"""Octonions, left-multiplication complex structures and the 6-sphere lift.

The multiplication table is generated by Cayley-Dickson doubling of the
quaternions (i j = k convention): (a, b)(c, d) = (a c - d* b, d a + b c*).
Basis order: e0 = 1, e1 = i, e2 = j, e3 = k, e4 = (0, 1), e5 = (0, i),
e6 = (0, j), e7 = (0, k).  Norm multiplicativity guards the table against
transcription errors.
Octonions are component first, (8,) or an (8, ...) field such as a frame's
planes, and the lift j = L_q is formed in frames with no (8, 8) field L_q.
"""
from __future__ import annotations

import numpy as np

from . import immersion, liealg
from .forms import ResidualReport, masked_report


class NotUnitImaginary(Exception):
    pass


class LiftPropertyViolated(Exception):
    pass


def _quaternion_table():
    T = np.zeros((4, 4, 4))
    T[0, :, :] = np.eye(4)
    T[:, 0, :] = np.eye(4)
    for i in (1, 2, 3):
        T[i, i, 0] = -1.0
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (i, j), k in cyc.items():
        T[i, j, k] = 1.0
        T[j, i, k] = -1.0
    return T


def _cayley_dickson(T):
    """Double an algebra-with-conjugation given by table T (conj flips e1..):
    (a, b)(c, d) = (ac - d* b, da + b c*), one block per pair of halves."""
    n = T.shape[0]
    conj = -np.ones(n)
    conj[0] = 1.0
    Tt = T.transpose(1, 0, 2)                   # Tt[i, j] = e_j e_i
    out = np.zeros((2 * n,) * 3)
    out[:n, :n, :n] = T                         # (a, 0)(c, 0) = (ac, 0)
    out[:n, n:, n:] = Tt                        # (a, 0)(0, d) = (0, da)
    out[n:, :n, n:] = T * conj[:, None]         # (0, b)(c, 0) = (0, b c*)
    out[n:, n:, :n] = -Tt * conj[:, None]       # (0, b)(0, d) = (-d* b, 0)
    return out


OCTONION_TABLE = _cayley_dickson(_quaternion_table())
_OCTONION_TERMS = liealg._nonzero_terms(OCTONION_TABLE)


def multiply(a, b):
    """Octonion product of component-first octonions: an (8,) octonion or an (8, ...)
    field of them, the fields broadcasting over their trailing axes."""
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    out = np.zeros((8,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    return liealg._sparse_product(_OCTONION_TERMS, a, b, out)


def conjugate(a):
    a = np.asarray(a, dtype=float)
    out = -a
    out[0] = a[0]
    return out


def norm(a):
    return np.linalg.norm(np.asarray(a, dtype=float), axis=0)


def basis_unit(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


def left_mult_structure(q):
    """L_q with L_q x = q x; an orthogonal complex structure for unit imaginary q,
    or an (8, 8, ...) field of them for an (8, ...) field of such q."""
    q = np.asarray(q, dtype=float)
    if max(np.max(np.abs(norm(q) - 1.0)), np.max(np.abs(q[0]))) > 1e-8:
        raise NotUnitImaginary("left multiplication needs a unit imaginary octonion")
    return np.einsum("i...,ijk->kj...", q, OCTONION_TABLE)


def canonical_q(field: immersion.ImmersionField):
    """The 6-sphere valued lift q of a conformal immersion into R^8, an (8, nu, nv) field.

    q = e2 * conj(e1) for the oriented orthonormal tangent basis (e1, e2);
    this order makes left multiplication rotate dphi(du) onto dphi(dv),
    which the function asserts (LiftPropertyViolated above a relative
    residual of 1e-8) as q * dphi_u = dphi_v, since L_q x = q x.  Its gates
    reduce over the field's lines `rows` (`immersion._gate`).
    """
    if field.ambient_dim != 8:
        raise ValueError("the octonion lift lives in R^8")
    e1, e2 = field.frame_planes[:2]
    q = multiply(e2, conjugate(e1))
    dphi_u, dphi_v = field.dphi_planes
    rows = field.rows
    immersion._gate(field, _lift_gates, float(field.branch_mask[rows].any()),
                    max(np.max(np.abs(norm(q[:, rows]) - 1.0)), np.max(np.abs(q[0, rows]))),
                    np.max(norm((multiply(q, dphi_u) - dphi_v)[:, rows])),
                    np.max(field.lam[rows]))
    return q


def _lift_gates(branched, qerr, resid, scale):
    """`canonical_q`'s gates, from whether a point is degenerate and the largest
    ||q| - 1| or |q_0|, |q dphi_u - dphi_v| and lambda."""
    if branched:
        raise immersion.NotImmersed("octonion lift across branch points")
    if qerr > 1e-8:
        raise immersion.NotImmersed(f"tangent frame degenerate: q off S^6 by {qerr:.3e}")
    rel = float(resid) / max(float(scale), 1e-30)
    if rel > 1e-8:
        raise LiftPropertyViolated(f"j dphi(du) != dphi(dv) (relative residual {rel:.3e})")


def twistor_from_q(field: immersion.ImmersionField, q) -> immersion.TwistorField:
    """The lift j = L_q of `canonical_q` as a TwistorField in frames:
    j_T[a, b] = <e_a, q e_b> and j_N[p, r] = <n_p, q n_r>, one frame vector at a time."""
    F = field.frame_planes

    def block(rows):
        out = np.empty((len(rows), len(rows)) + F.shape[2:])
        for b, r in enumerate(rows):
            qf = multiply(q, F[r])   # column b from q f_b alone
            for a, p in enumerate(rows):
                immersion._grid_dot(F[p], qf, out=out[a, b])
        return out

    return immersion.TwistorField(field=field, sign=+1, j_T_planes=block(range(2)),
                                  j_N_planes=block(range(2, len(F))), eps=0)


# the parts of `lift_pointwise`, in the order that `lift_report` names the largest
_LIFT_PARTS = ("reframing_drift", "unit_norm", "real_part")


def lift_pointwise(field: immersion.ImmersionField, q):
    """The reframing drift D, ||q| - 1| and |q_0| of the lift q at each grid point, as
    (3, nu, nv) (see `lift_residual`)."""
    e1, e2 = field.frame_planes[:2]
    A = q + multiply(e1, conjugate(e2))
    B = multiply(e2, conjugate(e2)) - multiply(e1, conjugate(e1))
    return np.stack([norm(A) + 0.5 * norm(B), np.abs(norm(q) - 1.0), np.abs(q[0])])


def lift_report(name, h, parts, mask) -> ResidualReport:
    """`lift_residual`'s report from the parts of `lift_pointwise` over `mask`."""
    rep = masked_report(name, h, np.maximum.reduce(parts), mask)
    sups = {part: float(np.max(plane[mask])) for part, plane in zip(_LIFT_PARTS, parts)}
    rep.meta.update(reframing_drift=sups["reframing_drift"], sup_component=max(sups, key=sups.get))
    return rep


def lift_residual(field: immersion.ImmersionField, q) -> ResidualReport:
    """Pointwise the largest of ||q| - 1|, |q_0| and the reframing drift D of the lift q.

    Turning the frame (e1, e2) by an angle moves q = e2 conj(e1) by exactly
    -s^2 A + s c B, with A = e2 conj(e1) + e1 conj(e2) and B = e2 conj(e2) - e1 conj(e1),
    so D = |A| + |B|/2 bounds the drift at every angle.  `meta` gives the sup of D as
    `reframing_drift` and names the part that gave the sup as `sup_component`.
    """
    return lift_report("octonion_lift", field.grid.h, lift_pointwise(field, q),
                       field.report_mask(0))
