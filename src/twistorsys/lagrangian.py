"""Lagrangian surfaces in the flat Kahler plane: Maslov form machinery.

Conventions: omega(X, Y) = <J^N X, Y> with J^N (x1, y1, x2, y2) =
(-y1, x1, -y2, x2); the Maslov 1-form is beta(X) = omega(H, dphi X)
= <dphi X, J^N H> (no 1/pi normalisation).  With these conventions the
anticommuting part of the second fundamental form satisfies
II_minus = -beta * J^N|T, which is the sign the identity check uses.
Co-closedness is reported in divergence form: d*beta = du beta_u + dv
beta_v in the conformal chart (the true codifferential carries an extra
-1/lambda^2, irrelevant for the vanishing test).
"""
from __future__ import annotations

import numpy as np

from . import immersion, liealg
from .forms import ResidualReport, _sq_norm, masked_report, partial_u, partial_v


class NotKahler(Exception):
    pass


class NotLagrangian(Exception):
    pass


class MaslovCrossCheckFailed(Exception):
    """The Maslov form's two closed forms disagree: the Kahler structure is not skew."""


def _require_kahler(field: immersion.ImmersionField):
    if field.space.kahler is None:
        raise NotKahler("this check needs a model space with a Kahler structure")
    return np.asarray(field.space.kahler)


def _pullback_omega(field: immersion.ImmersionField, J):
    d_u, d_v = field.dphi_planes
    return immersion._grid_dot(immersion._plane_product(J, d_u), d_v)


def lagrangian_pointwise(field: immersion.ImmersionField):
    """|omega(du phi, dv phi)|, the only pullback component, at each grid point."""
    return np.abs(_pullback_omega(field, _require_kahler(field)))


def lagrangian_residual(field: immersion.ImmersionField) -> ResidualReport:
    """Pointwise |omega(du phi, dv phi)|, the only pullback component."""
    return masked_report("lagrangian", field.grid.h, lagrangian_pointwise(field),
                         field.report_mask(0))


def lagrangian_twistor_pointwise(field: immersion.ImmersionField, tw: immersion.TwistorField):
    """(|{j, J^N}|_F, |omega(du phi, dv phi)|) at each grid point, as (2, nu, nv)."""
    J = _require_kahler(field)
    return np.stack([liealg._frobenius(tw.j_ambient @ J + J @ tw.j_ambient),
                     np.abs(_pullback_omega(field, J))])


def lagrangian_twistor_report(name, h, parts, mask) -> ResidualReport:
    """`lagrangian_twistor_residual`'s report from its pointwise parts over `mask`."""
    anti, lag = parts
    rep = masked_report(name, h, np.maximum(anti, lag), mask)
    anti_sup, lag_sup = float(np.max(anti[mask])), float(np.max(lag[mask]))
    rep.meta.update(anticommutator_sup=anti_sup, lagrangian_sup=lag_sup,
                    consistent=max(anti_sup, lag_sup) <= 1e-8 or min(anti_sup, lag_sup) >= 1e-3)
    return rep


def lagrangian_twistor_residual(field: immersion.ImmersionField,
                                tw: immersion.TwistorField) -> ResidualReport:
    """Pointwise the larger of |{j, J^N}|_F and |omega(du phi, dv phi)|.

    The two vanish together exactly when the lift lands in the circle
    bundle of structures anticommuting with the ambient one.  `meta` gives
    the sup of each, and `consistent`: both at most 1e-8 or both at least 1e-3.
    """
    return lagrangian_twistor_report("lagrangian_twistor", field.grid.h,
                                     lagrangian_twistor_pointwise(field, tw), field.report_mask(0))


def maslov_form(field: immersion.ImmersionField):
    """beta = iota_H omega as coordinate coefficients (beta_u, beta_v).

    Checks the defining contraction beta(X) = omega(H, dphi X) = <J^N H, dphi X>
    against the closed form -omega(dphi X, H) = -<J^N dphi X, H> of a skew omega,
    raising MaslovCrossCheckFailed when they differ by more than 1e-10 on the u
    slot; raises NotLagrangian when the pullback of omega exceeds 1e-6.  Both gates
    reduce over the field's lines `rows` (`immersion._gate`).
    """
    J = _require_kahler(field)
    rows = field.rows
    lag = lagrangian_pointwise(field)[rows][field.report_mask(0)[rows]]
    dot, product = immersion._grid_dot, immersion._plane_product
    H_amb = product(field.H[None], field.frame_planes[2:])[0]   # sum_p H_p n_p
    JH = product(J, H_amb)
    d_u, d_v = field.dphi_planes
    beta_u, beta_v = dot(JH, d_u), dot(JH, d_v)
    err = np.abs(beta_u + dot(product(J, d_u), H_amb))[rows]
    immersion._gate(field, _maslov_gates, np.max(lag, initial=-np.inf), np.max(err, initial=0.0))
    return beta_u, beta_v


def _maslov_gates(lag, err):
    """`maslov_form`'s gates, from the largest pullback of omega and cross-check error."""
    if lag > 1e-6:
        raise NotLagrangian("Maslov form needs a Lagrangian immersion")
    if err > 1e-10:
        raise MaslovCrossCheckFailed(f"omega(H, dphi du) + omega(dphi du, H) = {err:.3e}")


def maslov_identity_pointwise(field: immersion.ImmersionField, tw: immersion.TwistorField):
    """The larger over slots X in (e1, e2) of |II_minus(X, .) + beta(X) J^N|T| at each
    grid point."""
    J = _require_kahler(field)
    beta_u, beta_v = maslov_form(field)
    F = field.frame_planes
    # J^N|T in frames: <n_p, J e_b>, (q, 2, nu, nv), one J e_b at a time
    JNT = np.empty((len(F) - 2, 2) + F.shape[2:])
    for b, e in enumerate(F[:2]):
        Je = immersion._plane_product(J, e)
        for p, n in enumerate(F[2:]):
            JNT[p, b] = immersion._grid_dot(n, Je)
    del Je
    inv = 1.0 / np.maximum(field.lam, 1e-30)
    # II_minus(e_a, .) + beta(e_a) J^N|T, one slot at a time
    return np.sqrt(np.maximum(*(_sq_norm(tw.II_minus_slot(a) + beta * inv * JNT)
                                for a, beta in enumerate((beta_u, beta_v)))))


def maslov_identity_residual(field: immersion.ImmersionField,
                             tw: immersion.TwistorField) -> ResidualReport:
    """Norm of II_minus(X, .) + beta(X) J^N|T over slots X in (e1, e2)."""
    return masked_report("maslov_identity", field.grid.h, maslov_identity_pointwise(field, tw),
                         field.report_mask(2))


def hamiltonian_stationary_pointwise(field: immersion.ImmersionField):
    """|du beta_u + dv beta_v| at each grid point."""
    beta_u, beta_v = maslov_form(field)
    return np.abs(partial_u(field.grid, beta_u) + partial_v(field.grid, beta_v))


def hamiltonian_stationary_residual(field: immersion.ImmersionField) -> ResidualReport:
    """Divergence-form co-closedness of the Maslov form: du beta_u + dv beta_v."""
    return masked_report("hamiltonian_stationary", field.grid.h,
                         hamiltonian_stationary_pointwise(field), field.report_mask(2))
