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
    g: np.ndarray            # (nu, nv, n, n) group elements, maybe a view of (n, n, nu, nv) planes
    meta: dict = dc_field(default_factory=dict)


# ----------------------------------------------------------------- residuals

def holomorphicity_residual(alpha: LieValuedOneForm,
                            aut: liealg.GradedAutomorphism) -> ResidualReport:
    """Norms of the (0,1) part of the grade-1 component of alpha (taken in
    the grade-adapted unitary basis, which keeps pointwise norms): |Q_1 dz-bar|
    of `forms.graded_checks`, which forms Q_1 alone for it."""
    return forms.graded_checks(alpha, aut, ["holomorphicity"])["holomorphicity"]


def covariant_closure_residual(alpha: LieValuedOneForm,
                               aut: liealg.GradedAutomorphism) -> ResidualReport:
    """Norms of d a2^(1,0) + [a0 ^ a2^(1,0)] over the interior: the F_2
    coefficient of `forms.laurent_curvature`, formed by the same code."""
    return forms.graded_checks(alpha, aut, ["covariant_closure"])["covariant_closure"]


def system_residuals(alpha: LieValuedOneForm, aut: liealg.GradedAutomorphism) -> dict:
    return {**forms.graded_checks(alpha, aut, ["holomorphicity", "covariant_closure"]),
            "flatness": forms.curvature_residual(alpha)}


# ------------------------------------------------------------ sampled frames

def exp_frame(grid: SurfaceGrid, fixture: AlgebraFixture, xi, eta) -> FrameField:
    """The two-parameter frame g(u, v) = exp(u X) exp(v Y), X, Y in coordinates."""
    X = fixture.algebra.matrix(np.asarray(xi, dtype=float))
    Y = fixture.algebra.matrix(np.asarray(eta, dtype=float))
    gu = liealg.matrix_exp(grid.u_coords()[:, None, None] * X)
    gv = liealg.matrix_exp(grid.v_coords()[:, None, None] * Y)
    g = np.einsum("uij,vjk->uvik", gu, gv)
    return FrameField(grid=grid, fixture=fixture, g=g)


def exp_frame_form(grid: SurfaceGrid, fixture: AlgebraFixture, xi, eta) -> LieValuedOneForm:
    """Analytic logarithmic derivative of exp(u X) exp(v Y):
    a_u = Ad(exp(-v Y)) X, a_v = Y (exactly flat)."""
    alg = fixture.algebra
    X = alg.matrix(np.asarray(xi, dtype=float))
    Y = alg.matrix(np.asarray(eta, dtype=float))
    vY = grid.v_coords()[:, None, None] * Y
    rows = alg.coords(liealg.matrix_exp(-vY) @ X @ liealg.matrix_exp(vY))  # (nv, d)
    a_u = np.broadcast_to(rows[None, :, :], (grid.nu, grid.nv, alg.dim))
    a_v = np.broadcast_to(np.asarray(eta, dtype=float), (grid.nu, grid.nv, alg.dim))
    return LieValuedOneForm(grid, alg, a_u.copy(), a_v.copy())


def _connection(grid: SurfaceGrid, fixture: AlgebraFixture, tiles) -> LieValuedOneForm:
    """alpha = g^-1 dg by centered differences, projected to the fixture basis, over
    row tiles (G, keep, dest): G is g's (n, n, lines, nv) planes over a tile's lines,
    whose slice `keep` it writes to the grid rows `dest`; a tile's u stencil, open
    over its halo, is the whole grid's.

    g^-1 is taken as g^T, which it is in SO(5), and the projection is folded into
    the product: alpha_k = sum_(a, b) pinv[k, a, b] (g^T dg)[a, b], and each entry
    (g^T dg)[a, b] = sum_l G[l, a] dG[l, b] that pinv reads is one grid dot product,
    added to each alpha_k with its weight (`_connection_terms`), column by column in b.
    An affine frame's constant last row differentiates to 0 and pinv's last row is 0,
    so the sums leave that row out.  The discrete logarithmic derivative sits O(h^2)
    off the algebra, part of the stencil error, so the projection is unchecked.
    alpha is stored component first, as (d, nu, nv) planes behind (nu, nv, d) views.
    """
    rows, terms = fixture._connection_terms
    # one block per direction: one (2, d, nu, nv) block raised frame_development's peak RSS
    out_u, out_v = (np.zeros((fixture.algebra.dim, grid.nu, grid.nv)) for _ in range(2))
    for G, keep, dest in tiles:
        G = G[:rows]
        for out, partial in ((out_u, lambda x: forms._centred(x, grid.hu, -2, False)[:, keep]),
                             (out_v, lambda x: forms.partial_v(grid, x[:, keep], -1))):
            for b, column in terms.items():
                dG = partial(G[:, b])
                for a, weights in column.items():
                    gTdg = immersion._grid_dot(G[:, a, keep], dG)
                    for k, c in weights:
                        out[k, dest] += c * gTdg
        del G, dG   # before the next tile's planes are formed
    return LieValuedOneForm(grid, fixture.algebra, *map(immersion._pointwise, (out_u, out_v)))


def frame_to_connection(frame: FrameField) -> LieValuedOneForm:
    """alpha = g^-1 dg of a sampled frame by `_connection`, each row tile of g copied
    to contiguous planes once (on a strided view, such as that of `develop_frame`'s
    grid-first g, the products take two to three times as long)."""
    grid, G = frame.grid, np.moveaxis(frame.g, (0, 1), (-2, -1))
    tiles = forms._tiles(grid.nu, grid.periodic_u)
    return _connection(grid, frame.fixture, ((np.ascontiguousarray(G[..., lines, :]), keep, dest)
                                             for lines, keep, dest in tiles))


# -------------------------------------------------------------- development

def _avg(A, axis, h):
    """h times the average (A_i + A_(i+1)) / 2 over each edge along axis, the
    last edge wrapping to A_0: the sum goes through slices into one output,
    scaled in place (x 1/2 is exact).  Over lines whose last one is a halo,
    `_avg(...)[:-1]` along that axis are the edges between them."""
    S = np.empty(A.shape)
    a, s = np.moveaxis(A, axis, 0), np.moveaxis(S, axis, 0)
    np.add(a[:-1], a[1:], out=s[:-1])
    np.add(a[-1], a[0], out=s[-1])
    S *= 0.5
    S *= h
    return S


def develop_frame(alpha: LieValuedOneForm, fixture: AlgebraFixture, g0=None) -> FrameField:
    """Integrate d + alpha along row-major paths (u first, then v).

    Steps use the trapezoidal exponent exp(h * (a_i + a_(i+1)) / 2), which
    recovers smooth frames to second order.  Periodic directions report
    the holonomy defect |g_return - g_start| instead of wrapping.  The v-steps
    are formed one column tile of `forms._tiles` at a time as the sweep reaches
    them, so no whole-grid stack of steps is held beside g.  Flatness is not
    checked here: the holonomy defects, `plaquette_defects` and the flatness
    residual measure how far the frame depends on the path.
    """
    if not (np.all(np.isfinite(alpha.a_u)) and np.all(np.isfinite(alpha.a_v))):
        raise NonFiniteExp("non-finite connection coefficient during development")
    alg = fixture.algebra
    grid = alpha.grid
    if np.max(np.abs(alpha.a_u.imag)) > 1e-12 or np.max(np.abs(alpha.a_v.imag)) > 1e-12:
        raise ValueError("can only develop real forms")
    # the path leaves row v = 0 only along u, so only that row needs u-steps
    E_u = liealg.matrix_exp(_avg(alg.matrix(alpha.a_u[:, :1].real), 0, grid.hu))
    g = np.zeros((grid.nu, grid.nv) + E_u.shape[2:])
    g[0, 0] = np.eye(alg.ambient_dim) if g0 is None else np.asarray(g0, dtype=float)
    for i in range(1, grid.nu):
        g[i, 0] = g[i - 1, 0] @ E_u[i - 1, 0]

    meta = {}
    if grid.periodic_u:
        ret = g[-1, 0] @ E_u[-1, 0]
        meta["holonomy_u"] = float(np.linalg.norm(ret - g[0, 0]))
    # v-steps one tile of columns at a time, column first so that each column's are
    # contiguous; a periodic line's last step, back to column 0, gives the holonomy
    a_v = np.swapaxes(alpha.a_v.real, 0, 1)
    for cols, keep, dest in forms._tiles(grid.nv, grid.periodic_v):
        # the tile's edges, over its kept columns and the halo after them, which the
        # slice leaves out past an open axis's last column (that column starts no edge)
        span = slice(keep.start, keep.stop + 1)
        E_v = liealg.matrix_exp(_avg(alg.matrix(a_v[cols][span]), 0, grid.hv)[:-1])
        for j in range(dest.start, dest.start + len(E_v)):
            step = g[:, j] @ E_v[j - dest.start]
            if j + 1 < grid.nv:
                g[:, j + 1] = step
            else:
                meta["holonomy_v"] = float(np.max(liealg._frobenius(step - g[:, 0])))
        del E_v   # before the next tile's steps are formed
    return FrameField(grid=grid, fixture=fixture, g=g, meta=meta)


def plaquette_defects(alpha: LieValuedOneForm, fixture: AlgebraFixture) -> float:
    """Max over elementary cells of |exp-step path A - path B| (u-then-v vs v-then-u),
    one row tile of `forms._tiles` at a time, each tile's steps formed from the grid
    rows it reads."""
    alg = fixture.algebra
    grid = alpha.grid
    a_u, a_v = alpha.a_u.real, alpha.a_v.real
    # a cell closing through a wrapped step exists only along a periodic direction
    cv = grid.nv if grid.periodic_v else grid.nv - 1
    worst = 0.0
    for rows, keep, _ in forms._tiles(grid.nu, grid.periodic_u):
        # the tile's cells, over its kept rows and the halo after them, which the slice
        # leaves out past an open axis's last row (that row starts no cell)
        span = slice(keep.start, keep.stop + 1)
        E_u = liealg.matrix_exp(_avg(alg.matrix(a_u[rows][span]), 0, grid.hu)[:-1])
        if not len(E_u):   # a tile of that row alone
            continue
        E_v = liealg.matrix_exp(_avg(alg.matrix(a_v[rows][span]), 1, grid.hv))
        # cell (i, j): bottom then right edge against left then top edge
        D = E_u[:, :cv] @ E_v[1:, :cv]
        W = np.empty_like(D)
        np.matmul(E_v[:-1, :-1], E_u[:, 1:], out=W[:, :grid.nv - 1])
        if grid.periodic_v:
            np.matmul(E_v[:-1, -1], E_u[:, 0], out=W[:, -1])
        D -= W
        worst = max(worst, float(np.max(liealg._frobenius(D))))
    return worst


# -------------------------------------------------------------- gauge action

def gauge_transform(alpha: LieValuedOneForm, h_field, fixture: AlgebraFixture) -> LieValuedOneForm:
    """alpha -> Ad(h^-1) alpha + h^-1 dh for a field h valued in the stabiliser.

    H is the centraliser of J in the frame group: NotInH unless, pointwise,
    h^T h = I, hJ = Jh and, if affine, h's last row is e_n; then h^-1 = h^T.
    Both the membership test and the transform run over the row tiles of
    `forms._tiles`, the test over every tile before any is transformed.
    """
    alg = fixture.algebra
    grid = alpha.grid
    h = np.asarray(h_field, dtype=float)
    J, eye = fixture.J, np.eye(alg.ambient_dim)
    tiles = list(forms._tiles(grid.nu, grid.periodic_u))
    offs = []
    for _, _, dest in tiles:
        t = h[dest]
        offs.append((np.max(np.abs(np.swapaxes(t, -1, -2) @ t - eye)),
                     np.max(np.abs(t @ J - J @ t)),
                     np.max(np.abs(t[..., -1, :] - eye[-1])) if fixture.affine else 0.0))
    off = max(np.max(column) for column in zip(*offs))
    if not off <= 1e-8:
        raise NotInH(f"h is not in the centraliser of J in the frame group (residual {off:.3e})")

    # the discrete h^-1 dh part is only O(h^2) close to the algebra: project
    new_u, new_v = (np.empty((grid.nu, grid.nv, alg.dim), alpha.a_u.dtype) for _ in range(2))
    for rows, keep, dest in tiles:
        t = h[dest]
        tT = np.swapaxes(t, -1, -2)
        dh_u = forms._centred(h[rows], grid.hu, 0, False)[keep]
        new_u[dest] = alg.coords(tT @ alg.matrix(alpha.a_u[dest]) @ t + tT @ dh_u, atol=None)
        new_v[dest] = alg.coords(tT @ alg.matrix(alpha.a_v[dest]) @ t
                                 + tT @ forms.partial_v(grid, t), atol=None)
    return LieValuedOneForm(grid, alg, new_u, new_v)


def stabilizer_gauge_field(fixture: AlgebraFixture, grid: SurfaceGrid, f, xi=None):
    """h(u, v) = exp(f(u, v) * Xi) for Xi in the stabiliser subalgebra."""
    if xi is None:
        xi = fixture.h_basis[0]
    X = fixture.algebra.matrix(np.asarray(xi, dtype=float))
    f = np.asarray(f, dtype=float)
    return liealg.matrix_exp(f[..., None, None] * X)


# ------------------------------------------------------- frames from geometry

def _adapted_frame(field: immersion.ImmersionField, tw: immersion.TwistorField, space=None):
    """g's (5, 5, nu, nv) planes of `frame_from_geometry` over the field's grid: the
    columns e1, j e1, n1, j n1 and the base point, j e1 and j n1 from the first
    columns of the frame components of j.  Its gates reduce over the field's lines
    `rows` (`immersion._gate`): the Gram-Schmidt frame jump, then branch points."""
    space = space or field.space
    taken = field.meta.get("normal_axes")
    jump = 0.0 if taken is None else immersion._frame_jump(
        field.frame_planes[..., field.meta["jump_lines"], :], len(taken))
    immersion._gate(field, _framing, jump, field.branch_mask[field.rows].any())
    if field.ambient_dim != space.ambient_dim:
        raise ValueError("immersion and model space disagree on the ambient dimension")
    m, sphere, F = field.ambient_dim, space.kind == "sphere4", field.frame_planes
    G = np.zeros((5, 5) + F.shape[-2:])
    G[:m, 0], G[:m, 2], G[4, 4] = F[0], F[2], not sphere
    np.divide(field.phi_planes, space.radius if sphere else 1.0, out=G[:m, 4])
    immersion._plane_product(tw.j_T_planes[None, :, 0], F[:2], G[None, :m, 1])
    immersion._plane_product(tw.j_N_planes[None, :, 0], F[2:], G[None, :m, 3])
    return G


def _framing(jump, branched):
    """`_adapted_frame`'s gates: the largest Gram-Schmidt frame jump, then branch points."""
    if jump > 0.5:
        raise immersion.FrameDiscontinuity(
            "fixture frames jump; use a smaller patch or an analytic-frame fixture")
    if branched:
        raise immersion.NotImmersed("cannot frame across branch points")


def frame_from_geometry(field: immersion.ImmersionField, tw: immersion.TwistorField,
                        space: symspace.ModelSpace | None = None):
    """Adapted frames g carrying the reference point and complex structure to
    (phi, j), and alpha = g^-1 dg: the affine group in homogeneous 5x5 form on flat
    targets, SO(5) on the round 4-sphere, each with the frame block (e1, j e1, n1,
    j n1) and in the last column phi, or phi/r on the sphere (the fixture base point).
    `FrameField.g` is the grid-first view of (5, 5, nu, nv) planes."""
    fixture = (space or field.space).algebra_fixture()
    frame = FrameField(field.grid, fixture, immersion._pointwise(_adapted_frame(field, tw, space)))
    return frame, frame_to_connection(frame)
