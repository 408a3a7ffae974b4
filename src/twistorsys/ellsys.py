"""The graded elliptic system: residuals, frame development, gauge action.

The system on a g-valued 1-form alpha over a conformal grid comprises
three residuals, reported separately:

  holomorphicity:     the (0,1) part of the grade-1 component;
  covariant closure:  d a2^(1,0) + [a0 ^ a2^(1,0)];
  flatness:           d alpha + (1/2)[alpha ^ alpha].

Adapted frames of an immersion with a twistor lift produce such an alpha
as the discrete logarithmic derivative g^-1 dg; the grading is the one of
the frame group's order-4 automorphism fixture.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import forms, immersion, liealg, symspace
from .fixtures import AlgebraFixture
from .forms import LieValuedOneForm, ResidualReport, SurfaceGrid


class NonFiniteExp(Exception):
    pass


class NotInH(Exception):
    pass


@dataclass
class FrameField:
    grid: SurfaceGrid
    fixture: AlgebraFixture
    g: np.ndarray            # (nu, nv, n, n) group elements
    meta: dict = dc_field(default_factory=dict)

    def inverse(self):
        return np.linalg.inv(self.g)


# ----------------------------------------------------------------- residuals

def holomorphicity_residual(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism,
                            margin: int = 1) -> ResidualReport:
    """Norms of the (0,1) part of the grade-1 component of alpha."""
    g1 = forms.grade_decompose(alpha, aut)[1]
    _, a01 = forms.type_decompose(g1)
    return forms.report_from_pointwise("holomorphicity", alpha.grid,
                                       a01.pointwise_norm(), margin=margin)


def covariant_closure_residual(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism,
                               margin: int = 2) -> ResidualReport:
    """Norms of d a2^(1,0) + [a0 ^ a2^(1,0)] over the interior."""
    g = forms.grade_decompose(alpha, aut)
    a2_10, _ = forms.type_decompose(g[2])
    two = forms.exterior_derivative(a2_10).value + forms.wedge_bracket(g[0], a2_10).value
    pw = np.sqrt(np.sum(np.abs(two) ** 2, axis=-1))
    return forms.report_from_pointwise("covariant_closure", alpha.grid, pw, margin=margin)


def flatness_residual(alpha: LieValuedOneForm, margin: int = 2) -> ResidualReport:
    return forms.curvature_residual(alpha, margin=margin, name="flatness")


def system_residuals(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism) -> dict:
    return {
        "holomorphicity": holomorphicity_residual(alpha, aut),
        "covariant_closure": covariant_closure_residual(alpha, aut),
        "flatness": flatness_residual(alpha),
    }


# ------------------------------------------------------------ sampled frames

def exp_frame(grid: SurfaceGrid, fixture: AlgebraFixture, xi, eta) -> FrameField:
    """The two-parameter frame g(u, v) = exp(u X) exp(v Y), X, Y in coordinates."""
    X = fixture.algebra.matrix(np.asarray(xi, dtype=float))
    Y = fixture.algebra.matrix(np.asarray(eta, dtype=float))
    gu = liealg.matrix_exp(grid.u_coords()[:, None, None] * X)
    gv = liealg.matrix_exp(grid.v_coords()[:, None, None] * Y)
    g = np.einsum("uij,vjk->uvik", gu, gv)
    return FrameField(grid=grid, fixture=fixture, g=g,
                      meta={"kind": "exp_frame", "X": np.asarray(xi), "Y": np.asarray(eta)})


def exp_frame_form(grid: SurfaceGrid, fixture: AlgebraFixture, xi, eta) -> LieValuedOneForm:
    """Analytic logarithmic derivative of exp(u X) exp(v Y):
    a_u = Ad(exp(-v Y)) X, a_v = Y (exactly flat)."""
    alg = fixture.algebra
    X = alg.matrix(np.asarray(xi, dtype=float))
    Y = alg.matrix(np.asarray(eta, dtype=float))
    vY = grid.v_coords()[:, None, None] * Y
    rows = alg.coords(liealg.matrix_exp(-vY) @ X @ liealg.matrix_exp(vY))  # (nv, d)
    a_u = np.broadcast_to(rows[None, :, :], (grid.nu, grid.nv, alg.dim)).astype(complex)
    a_v = np.broadcast_to(np.asarray(eta, dtype=complex), (grid.nu, grid.nv, alg.dim))
    return LieValuedOneForm(grid, alg, a_u.copy(), a_v.copy())


def frame_to_connection(frame: FrameField, atol: float | None = None) -> LieValuedOneForm:
    """alpha = g^-1 dg by centered differences, projected to the fixture basis.

    The discrete logarithmic derivative of exact group frames sits O(h^2)
    off the algebra, so the projection is unchecked by default; that error
    is part of the overall stencil error.
    """
    grid = frame.grid
    ginv = frame.inverse()
    M_u = ginv @ forms.partial_u(grid, frame.g)
    M_v = ginv @ forms.partial_v(grid, frame.g)
    alg = frame.fixture.algebra
    a_u = alg.coords(M_u, atol=atol)
    a_v = alg.coords(M_v, atol=atol)
    return LieValuedOneForm(grid, alg, a_u.astype(complex), a_v.astype(complex))


# -------------------------------------------------------------- development

def _avg(a, b):
    return 0.5 * (a + b)


def _step_exponentials(grid: SurfaceGrid, A_u, A_v):
    """Trapezoidal steps exp(h * (A_i + A_(i+1)) / 2): E_u[i, j] from (i, j) to
    (i+1, j), E_v[i, j] from (i, j) to (i, j+1); the last edge of a line wraps."""
    E_u = liealg.matrix_exp(grid.hu * _avg(A_u, np.roll(A_u, -1, axis=0)))
    E_v = liealg.matrix_exp(grid.hv * _avg(A_v, np.roll(A_v, -1, axis=1)))
    return E_u, E_v


def _frobenius(M):
    """Frobenius norms of a stack of matrices, each summed as np.linalg.norm
    sums a single matrix (a dot product of the flattened entries)."""
    flat = M.reshape(M.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def develop_frame(alpha: LieValuedOneForm, fixture: AlgebraFixture, g0=None,
                  flatness_warn: float = 1e-3) -> FrameField:
    """Integrate d + alpha along row-major paths (u first, then v).

    Steps use the trapezoidal exponent exp(h * (a_i + a_(i+1)) / 2), which
    recovers smooth frames to second order.  Periodic directions report
    the holonomy defect |g_return - g_start| instead of wrapping.
    """
    if not (np.all(np.isfinite(alpha.a_u)) and np.all(np.isfinite(alpha.a_v))):
        raise NonFiniteExp("non-finite connection coefficient during development")
    rep = flatness_residual(alpha, margin=min(2, (alpha.grid.nu - 1) // 3))
    if rep.final_sup > flatness_warn * max(1.0, float(np.max(alpha.pointwise_norm()))):
        warnings.warn(f"developing a connection with flatness residual {rep.final_sup:.3e}; "
                      "the frame will be path-dependent", stacklevel=2)
    alg = fixture.algebra
    grid = alpha.grid
    if np.max(np.abs(alpha.a_u.imag)) > 1e-12 or np.max(np.abs(alpha.a_v.imag)) > 1e-12:
        raise ValueError("can only develop real forms")
    # the path leaves row v = 0 only along u, so only that row needs u-steps
    E_u, E_v = _step_exponentials(grid, alg.matrix(alpha.a_u[:, :1].real),
                                  alg.matrix(alpha.a_v.real))
    g = np.zeros(E_v.shape)
    g[0, 0] = np.eye(alg.ambient_dim) if g0 is None else np.asarray(g0, dtype=float)
    for i in range(1, grid.nu):
        g[i, 0] = g[i - 1, 0] @ E_u[i - 1, 0]
    for j in range(1, grid.nv):
        g[:, j] = g[:, j - 1] @ E_v[:, j - 1]

    meta = {}
    if grid.periodic_u:
        ret = g[-1, 0] @ E_u[-1, 0]
        meta["holonomy_u"] = float(np.linalg.norm(ret - g[0, 0]))
    if grid.periodic_v:
        ret = g[:, -1] @ E_v[:, -1]
        meta["holonomy_v"] = float(np.max(_frobenius(ret - g[:, 0])))
    return FrameField(grid=grid, fixture=fixture, g=g, meta=meta)


def plaquette_defects(alpha: LieValuedOneForm, fixture: AlgebraFixture) -> float:
    """Max over elementary cells of |exp-step path A - path B| (u-then-v vs v-then-u)."""
    alg = fixture.algebra
    grid = alpha.grid
    E_u, E_v = _step_exponentials(grid, alg.matrix(alpha.a_u.real), alg.matrix(alpha.a_v.real))
    # cell (i, j): bottom then right edge against left then top edge; along a
    # non-periodic direction the last cell would close through the wrapped step
    D = E_u @ np.roll(E_v, -1, axis=0) - E_v @ np.roll(E_u, -1, axis=1)
    D = D[:None if grid.periodic_u else -1, :None if grid.periodic_v else -1]
    return float(np.max(_frobenius(D)))


# -------------------------------------------------------------- gauge action

def gauge_transform(alpha: LieValuedOneForm, h_field, fixture: AlgebraFixture,
                    atol: float = 1e-8) -> LieValuedOneForm:
    """alpha -> Ad(h^-1) alpha + h^-1 dh for a field h valued in the stabiliser.

    Raises NotInH when pointwise conjugation either leaves the algebra or
    fails to commute with tau.
    """
    alg = fixture.algebra
    grid = alpha.grid
    h = np.asarray(h_field, dtype=float)
    hinv = np.linalg.inv(h)
    try:
        ad_coords = alg.coords(h[..., None, :, :] @ alg.basis @ hinv[..., None, :, :],
                               atol=atol)  # (nu, nv, d, d) rows=source basis
    except liealg.NotClosed as exc:
        raise NotInH(f"conjugation leaves the algebra: {exc}") from exc
    C = np.swapaxes(ad_coords, -1, -2)  # columns = images of basis vectors
    comm = np.max(np.abs(C @ fixture.aut.tau - fixture.aut.tau @ C))
    if comm > atol:
        raise NotInH(f"conjugation does not commute with tau (residual {comm:.3e})")

    M_u = alg.matrix(alpha.a_u)
    M_v = alg.matrix(alpha.a_v)
    # the discrete h^-1 dh part is only O(h^2) close to the algebra: project
    new_u = hinv @ M_u @ h + hinv @ forms.partial_u(grid, h)
    new_v = hinv @ M_v @ h + hinv @ forms.partial_v(grid, h)
    return LieValuedOneForm(grid, alg, alg.coords(new_u, atol=None),
                            alg.coords(new_v, atol=None))


def stabilizer_gauge_field(fixture: AlgebraFixture, grid: SurfaceGrid, f, xi=None):
    """h(u, v) = exp(f(u, v) * Xi) for Xi in the stabiliser subalgebra."""
    if xi is None:
        xi = fixture.h_basis[0]
    X = fixture.algebra.matrix(np.asarray(xi, dtype=float))
    f = np.asarray(f, dtype=float)
    return liealg.matrix_exp(f[..., None, None] * X)


# ------------------------------------------------------- frames from geometry

def frame_from_geometry(field: immersion.ImmersionField, tw: immersion.TwistorField,
                        space: symspace.ModelSpace | None = None):
    """Adapted frames g carrying the reference point and reference complex
    structure to (phi, j); returns (FrameField, alpha = g^-1 dg).

    Flat targets use the affine group in homogeneous 5x5 form with the
    frame block (e1, j e1, n1, j n1) and phi in the last column; the round
    4-sphere uses SO(5) with the same frame block and phi/r in the last
    column (the fixture base point).
    """
    space = space or field.space
    fixture = space.algebra_fixture()
    if field.meta.get("frame_discontinuity"):
        raise immersion.FrameDiscontinuity(
            "fixture frames jump; use a smaller patch or an analytic-frame fixture")
    if field.branch_mask.any():
        raise immersion.NotImmersed("cannot frame across branch points")
    if field.ambient_dim != space.ambient_dim:
        raise ValueError("immersion and model space disagree on the ambient dimension")

    j = tw.j_ambient
    je1 = np.einsum("uvij,uvj->uvi", j, field.e1)
    jn1 = np.einsum("uvij,uvj->uvi", j, field.n1)
    nu, nv = field.grid.nu, field.grid.nv
    if space.kind == "sphere4":
        r = space.radius or 1.0
        g = np.stack([field.e1, je1, field.n1, jn1, field.phi / r], axis=-1)
    else:
        g = np.zeros((nu, nv, 5, 5))
        F = np.stack([field.e1, je1, field.n1, jn1], axis=-1)
        g[..., :4, :4] = F
        g[..., :4, 4] = field.phi
        g[..., 4, 4] = 1.0
    frame = FrameField(grid=field.grid, fixture=fixture, g=g,
                       meta={"kind": field.meta.get("kind"), "space": space.kind})
    alpha = frame_to_connection(frame)
    return frame, alpha
