"""Immersion fixtures, second fundamental form, lifts, harmonicity residuals."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage

from twistorsys import cli
from twistorsys import immersion as im
from twistorsys import lagrangian as lg
from twistorsys import octo
from twistorsys import symspace
from twistorsys.forms import ResidualReport, _sq_norm, partial_u, partial_v

LADDER = (16, 32, 64)


def ladder_report(fn, kinds_n=LADDER):
    rep = None
    for n in kinds_n:
        r = fn(n)
        rep = r if rep is None else rep.merged(r)
    return rep


def converges_or_exact(rep, slope_min=1.5, floor=1e-12):
    if rep.final_sup <= floor:
        return True
    return rep.estimated_order is not None and rep.estimated_order >= slope_min


def coeffs(II):
    """(nu, nv, 3, q): the slots (11, 12, 22) of II, grid-first."""
    M = im._pointwise(II.planes)
    return np.stack([M[..., 0, :, 0], M[..., 0, :, 1], M[..., 1, :, 1]], axis=-2)


def dense_skew(W):
    """(k, k, nu, nv): the skew matrices of a connection stored as the k(k - 1)/2
    upper-triangle planes W that `frame_connection` returns."""
    k = (1 + math.isqrt(1 + 8 * len(W))) // 2
    M = np.zeros((k, k) + W.shape[1:])
    for w, (a, b) in zip(W, itertools.combinations(range(k), 2)):
        M[a, b], M[b, a] = w, -w
    return M


def II_minus(tw):
    """(2, q, 2, nu, nv): both slots of II_minus, as the lift forms them one at a time."""
    return np.stack([tw.II_minus_slot(a) for a in range(2)])


def other_order_mixed(fld):
    """(nu, nv, q): the mixed slot of II from d_v(d_u phi) alone, one of the two
    difference orders that II's mixed slot averages."""
    D = partial_v(fld.grid, fld.dphi_planes[0], axis=-1)
    inv = 1.0 / np.maximum(fld.conformal_factor, 1e-30)
    return np.stack([im._grid_dot(n, D) * inv for n in fld.frame_planes[2:]], axis=-1)


# --------------------------------------------------------------------- fixtures

def test_clifford_conformal_factor():
    # hand oracle: |du phi|^2 = 1/2 for the 1/sqrt(2) normalisation
    fld = im.build_immersion("clifford_torus", n=16)
    assert np.max(np.abs(fld.conformal_factor - 0.5)) <= 1e-14
    assert fld.conformality_residual() <= 1e-13


def test_fixture_catalog_is_conformal():
    for kind in im.list_fixture_kinds():
        if kind in ("graph", "branched_disk"):
            continue
        params = {"potential": "cubic"} if kind == "lagrangian_graph" else {}
        fld = im.build_immersion(kind, params, n=16)
        assert fld.conformality_residual() <= 1e-6, kind
        # adapted frames are orthonormal and orthogonal to the tangent
        F = im._pointwise(fld.frame_planes)
        gram = np.einsum("uvam,uvbm->uvab", F, F)
        eye = np.eye(F.shape[-2])
        mask = fld.report_mask(0)
        assert np.max(np.abs(gram - eye)[mask]) <= 1e-10, kind


def test_sphere_fixture_on_manifold():
    fld = im.build_immersion("round_sphere", {"r": 2.0}, n=16)
    assert np.max(np.abs(np.linalg.norm(fld.phi_planes[:3], axis=0) - 2.0)) <= 1e-12
    fld5 = im.build_immersion("clifford_torus_s4", n=16)
    assert np.max(np.abs(np.linalg.norm(fld5.phi_planes, axis=0) - 1.0)) <= 1e-12


def test_graph_not_conformal():
    with pytest.raises(im.NotConformal):
        im.build_immersion("graph", {"amplitude": 0.3}, n=16)
    fld = im.build_immersion("graph", {"amplitude": 0.3, "allow_nonconformal": True}, n=16)
    assert fld.meta["conformality_residual"] > 1e-2


def test_branched_disk_masks_origin():
    fld = im.build_immersion("branched_disk", n=17)  # odd: origin on the grid
    assert fld.branch_mask[8, 8]
    assert not fld.report_mask(1)[8, 8]
    assert fld.report_mask(1).any()


def test_branch_mask_dilation_matches_scipy():
    rng = np.random.default_rng(21)
    for _ in range(200):
        shape = tuple(rng.integers(3, 20, size=2))
        mask = rng.random(shape) < rng.uniform(0.02, 0.3)
        mask[rng.integers(shape[0]), rng.choice([0, shape[1] - 1])] = True  # on the border
        it = int(rng.integers(1, 5))
        assert np.array_equal(im._dilate(mask, it),
                              scipy.ndimage.binary_dilation(mask, iterations=it))
    fld = im.build_immersion("branched_disk", n=17)
    for margin in (1, 2):
        bad = scipy.ndimage.binary_dilation(fld.branch_mask, iterations=margin + 1)
        assert np.array_equal(fld.report_mask(margin), fld.grid.interior_mask(margin) & ~bad)


def _last_axis_gram_schmidt(dphi_u, dphi_v, branch):
    """Modified Gram-Schmidt over the last axis, one point per row: the reference
    for `_gram_schmidt_frames`, with the same axis order and acceptance rule."""
    def jump(f):
        return max(float(np.max(np.linalg.norm(np.diff(f, axis=a), axis=-1), initial=0.0))
                   for a in (0, 1))
    lam = np.sqrt(np.maximum(np.sum(dphi_u ** 2, axis=-1), 1e-30))
    e1 = dphi_u / lam[..., None]
    w = dphi_v - np.sum(dphi_v * e1, axis=-1, keepdims=True) * e1
    e2 = w / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-30)
    accepted = []
    for axis in range(dphi_u.shape[-1]):
        if len(accepted) == dphi_u.shape[-1] - 2:
            break
        cand = np.zeros_like(e1)
        cand[..., axis] = 1.0
        for prev in [e1, e2] + accepted:
            cand = cand - np.sum(cand * prev, axis=-1, keepdims=True) * prev
        norms = np.linalg.norm(cand, axis=-1)
        if np.min(norms[~branch]) >= 0.35:
            accepted.append(cand / np.maximum(norms[..., None], 1e-30))
    normal_frame = np.stack(accepted, axis=-2)
    return e1, e2, normal_frame, max(jump(e1), jump(normal_frame)) > 0.5


def _sampled_derivatives(kind, n):
    """The fixture's sampled (2, m, nu, nv) derivative planes."""
    p = im.fixture_params(kind)
    U, V = im._grid(n, *im.FIXTURES[kind].domain(p)).mesh()
    _, dphi, _ = im.FIXTURES[kind].builder(p, U, V)
    return im._planes(dphi, U.shape)


@pytest.mark.parametrize("kind, n", [("graph", 33), ("branched_disk", 33),
                                     ("octonion_graph", 64), ("octonion_graph", 128)])
def test_gram_schmidt_frames_match_the_last_axis_loop(kind, n):
    dphi = _sampled_derivatives(kind, n)
    branch = np.sum(dphi[0] ** 2, axis=0) < 1e-10
    if kind == "graph":   # a sign flip over half the grid: e1 jumps by 2
        dphi = np.where(np.arange(n)[:, None] < n // 2, -dphi, dphi)
    frames, disc = im._gram_schmidt_frames(dphi, branch)
    *ref, ref_disc = _last_axis_gram_schmidt(im._pointwise(dphi[0]), im._pointwise(dphi[1]),
                                             branch)
    assert disc is ref_disc and disc == (kind != "octonion_graph")
    assert frames.shape == (dphi.shape[1],) + dphi.shape[1:] and frames.flags.c_contiguous
    for f, r in zip((frames[0], frames[1], frames[2:]), ref):
        f = im._pointwise(f)
        assert f.shape == r.shape
        assert np.max(np.abs(f - r)) <= 2e-15, kind
    F = im._pointwise(frames)
    gram = np.einsum("uvam,uvbm->uvab", F, F)
    assert np.max(np.abs(gram - np.eye(F.shape[-2]))[~branch]) <= 1e-14, kind


class ReadRecorder(dict):
    """A params mapping that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("kind", im.list_fixture_kinds())
def test_fixture_reads_exactly_its_declared_params(kind):
    # build_immersion itself reads allow_nonconformal; builder and domain read the rest
    fixture = im.FIXTURES[kind]
    p = ReadRecorder(fixture.params)
    lo_u, hi_u, lo_v, hi_v = fixture.domain(p)[:4]
    U, V = np.meshgrid(np.linspace(lo_u, hi_u, 8), np.linspace(lo_v, hi_v, 8), indexing="ij")
    fixture.builder(p, U, V)
    assert p.read == set(fixture.params)
    assert set(im.fixture_params(kind)) == set(fixture.params) | {"allow_nonconformal"}


@pytest.mark.parametrize("kind, params", [(kind, {}) for kind in im.list_fixture_kinds()]
                         + [("lagrangian_graph", {"potential": "cubic"})])
def test_open_mesh_field_equals_the_full_mesh_builder(kind, params):
    # build_immersion samples on the open mesh, a (nu, 1) column of u and a (1, nv)
    # row of v; every plane is the builder's on the full (nu, nv) mesh, bit for bit
    p = im.fixture_params(kind, {**params, "allow_nonconformal": True})
    grid = im._grid(33, *im.FIXTURES[kind].domain(p))
    U, V = grid.mesh()
    phi, dphi, frames = im.FIXTURES[kind].builder(p, U, V)
    fld = im.build_immersion(kind, p, n=33)
    assert np.array_equal(fld.phi_planes, im._planes([phi], U.shape)[0])
    assert np.array_equal(fld.dphi_planes, im._planes(dphi, U.shape))
    if frames is not None:
        assert np.array_equal(fld.frame_planes, im._planes(frames, U.shape))


def test_unknown_kind():
    with pytest.raises(KeyError):
        im.build_immersion("moebius", n=16)


def test_perturbed_chart_wraps():
    fld = im.build_immersion("perturbed_torus", {"eps": 0.1}, n=32)
    phi = im._pointwise(fld.phi_planes)
    jump = np.linalg.norm(phi[0] - phi[-1], axis=-1).max()
    step = np.linalg.norm(np.diff(phi, axis=0), axis=-1).max()
    assert jump <= 2.0 * step  # the seam looks like any other grid step


@pytest.mark.parametrize("kind", sorted(set(im.FIXTURES) - {"graph", "branched_disk",
                                                            "octonion_graph"}))
def test_analytic_build_peak_memory(kind):
    # the traced high-water mark of one n = 128 build of a fixture with analytic
    # frames, in grid planes of 8 n^2 bytes above the field it returns: each
    # sampled plane is written once into its component-first array, and a
    # constant component is a number that fills its plane in place
    n = 128
    im.build_immersion(kind, n=n)   # imports and first-call set-up outside the trace
    tracemalloc.start()
    try:
        fld = im.build_immersion(kind, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (fld.phi_planes, fld.dphi_planes, fld.frame_planes,
                                  fld.conformal_factor, fld.branch_mask))
    assert (peak - held) / (8 * n * n) <= 15.0


# -------------------------------------------------------- second fundamental II

def test_plane_has_zero_II():
    # the coordinate planes column by column: the chart, e1 = dphi_u, e2 = dphi_v
    # and the normals, which are the remaining axes in order
    for kind, params in (("plane", {}), ("complex_line", {}), ("lagrangian_plane", {}),
                         ("octonion_plane", {"axes": (2, 5)})):
        fld = im.build_immersion(kind, params, n=16)
        U, V = fld.grid.mesh()
        Z, O = np.zeros_like(U), np.ones_like(U)
        m = fld.ambient_dim
        unit = [[O if k == a else Z for k in range(m)] for a in range(m)]
        if kind == "lagrangian_plane":
            phi, e1, e2, normals = (U, Z, V, Z), unit[0], unit[2], [unit[1], unit[3]]
        elif kind == "octonion_plane":
            phi, e1, e2 = (Z, Z, U, Z, Z, V, Z, Z), unit[2], unit[5]
            normals = [unit[k] for k in (0, 1, 3, 4, 6, 7)]
        else:
            phi, e1, e2, normals = (U, V, Z, Z), unit[0], unit[1], [unit[2], unit[3]]
        pw = im._pointwise
        assert np.array_equal(pw(fld.phi_planes), np.stack(phi, axis=-1)), kind
        for got, want in ((fld.dphi_planes[0], e1), (fld.frame_planes[0], e1),
                          (fld.dphi_planes[1], e2), (fld.frame_planes[1], e2)):
            assert np.array_equal(pw(got), np.stack(want, axis=-1)), kind
        assert np.array_equal(pw(fld.frame_planes[2:]),
                              np.stack([np.stack(n, axis=-1) for n in normals], axis=-2)), kind
        II = im.second_fundamental_form(fld)
        assert np.max(np.abs(coeffs(II))) == 0.0
        assert np.max(np.abs(im.mean_curvature(II))) == 0.0


def test_sphere_umbilic_II():
    # closed form: II(X, Y) = -<X, Y> n / r with n the outward normal
    r = 1.5
    fld = im.build_immersion("round_sphere", {"r": r}, n=32)
    II = im.second_fundamental_form(fld)
    mask = fld.report_mask(1)
    h2 = fld.grid.h ** 2
    C = coeffs(II)
    assert np.max(np.abs(C[..., 0, 0] + 1.0 / r)[mask]) <= 2 * h2 / r
    assert np.max(np.abs(C[..., 2, 0] + 1.0 / r)[mask]) <= 2 * h2 / r
    assert np.max(np.abs(C[..., 1, :])[mask]) <= 2 * h2 / r
    assert np.max(np.abs(C[..., :, 1])[mask]) <= 2 * h2 / r
    H = im.mean_curvature(II)
    assert np.max(np.abs(np.linalg.norm(H, axis=0) - 1.0 / r)[mask]) <= 2 * h2 / r


def test_clifford_II_oracle():
    # differentiation oracle in the shipped frames: II(e1, e1) = -n1 + n2,
    # II(e2, e2) = -n1 - n2, II(e1, e2) = 0, so H = -n1 with |H| = 1
    fld = im.build_immersion("clifford_torus", n=32)
    II = im.second_fundamental_form(fld)
    sinc = np.sin(fld.grid.hu) / fld.grid.hu  # centered stencil factor
    oracle = np.array([[-1.0, 1.0], [0.0, 0.0], [-1.0, -1.0]]) * sinc
    assert np.max(np.abs(coeffs(II) - oracle)) <= 1e-12
    H = im.mean_curvature(II)
    assert np.max(np.abs(np.linalg.norm(H, axis=0) - sinc)) <= 1e-12
    assert abs(sinc - 1.0) <= fld.grid.h ** 2


def test_II_mixed_slot_crosscheck():
    # the two difference orders for the mixed slot agree at stencil accuracy
    rep = ResidualReport("cross")
    for n in LADDER:
        fld = im.build_immersion("round_sphere", n=n)
        II = im.second_fundamental_form(fld)
        diff = np.linalg.norm(coeffs(II)[..., 1, :] - other_order_mixed(fld), axis=-1)
        mask = fld.report_mask(1)
        rep.add(fld.grid.h, float(np.max(diff[mask])), 0.0)
    assert rep.final_sup <= 1e-3
    assert converges_or_exact(rep, slope_min=1.9)


def test_helicoid_minimal():
    fld = im.build_immersion("helicoid", n=32)
    II = im.second_fundamental_form(fld)
    H = im.mean_curvature(II)
    mask = fld.report_mask(1)
    assert np.max(np.linalg.norm(H, axis=0)[mask]) <= 1e-8
    assert np.max(np.abs(coeffs(II))) > 0.1  # curved, just minimal


# ----------------------------------------------------------------- twistor lift

def test_plane_positive_lift_is_standard_structure():
    fld = im.build_immersion("plane", n=16)
    tw = im.twistor_lift(fld, +1)
    assert tw.eps == +1
    assert np.max(np.abs(tw.j_ambient - symspace.standard_kahler_structure())) <= 1e-14


def test_lift_orientations():
    # signs frozen from the 4x4 determinants of the shipped frames
    for kind, eps in [("plane", +1), ("clifford_torus", -1), ("product_torus", -1),
                      ("round_sphere", -1), ("clifford_torus_s4", +1)]:
        fld = im.build_immersion(kind, n=16)
        assert im.twistor_lift(fld, +1).eps == eps, kind
        assert im.twistor_lift(fld, -1).eps == -eps, kind


def test_lift_invariants():
    for kind in ("clifford_torus", "round_sphere", "clifford_torus_s4", "helicoid",
                 "octonion_graph"):
        fld = im.build_immersion(kind, n=16)
        tw = octo.canonical_lift(fld)[1] if kind == "octonion_graph" else im.twistor_lift(fld, +1)
        j = tw.j_ambient
        # skew, squares to minus the projector onto the span of the 2 + q frame vectors
        assert np.max(np.abs(j + np.swapaxes(j, -1, -2))) <= 1e-12, kind
        F = np.moveaxis(fld.frame_planes, (0, 2, 3), (-1, 0, 1))   # (nu, nv, m, 2 + q)
        P = F @ np.swapaxes(F, -1, -2)
        assert np.max(np.abs(j @ j + P)) <= 1e-12, kind
        # holomorphicity of phi for its own lift: j dphi(du) = dphi(dv)
        dphi_u, dphi_v = map(im._pointwise, fld.dphi_planes)
        resid = np.einsum("uvij,uvj->uvi", j, dphi_u) - dphi_v
        assert np.max(np.linalg.norm(resid, axis=-1)) <= 1e-8, kind
        if fld.ambient_dim == 5:
            phi = im._pointwise(fld.phi_planes)
            assert np.max(np.abs(np.einsum("uvij,uvj->uvi", j, phi))) <= 1e-12


def test_lift_needs_rank_two():
    fld = im.build_immersion("octonion_plane", n=16)
    with pytest.raises(im.NotImmersed):
        im.twistor_lift(fld, +1)



ROTATION_LIFT_FIXTURES = ["plane", "clifford_torus", "round_sphere", "product_torus",
                          "clifford_torus_s4"]


def _outer(a, b):
    return np.einsum("uvi,uvj->uvij", a, b)


@pytest.mark.parametrize("kind", ROTATION_LIFT_FIXTURES)
@pytest.mark.parametrize("sign", [+1, -1])
def test_rotation_lift_ambient_j_closed_form(kind, sign):
    # j = s (e2 x e1 - e1 x e2) + eps (n2 x n1 - n1 x n2), formed only when read;
    # s = +1 for the canonical lift and -1 for its anti-holomorphic twin
    fld = im.build_immersion(kind, n=16)
    tw = im.twistor_lift(fld, sign)
    flipped = im.flip_tangent_orientation(fld, tw)
    assert flipped.field is fld and (flipped.sign, flipped.eps) == (tw.sign, tw.eps)
    e1, e2, n1, n2 = map(im._pointwise, fld.frame_planes)
    for lift, s in ((tw, +1), (flipped, -1)):
        assert "j_ambient" not in vars(lift)
        oracle = (s * (_outer(e2, e1) - _outer(e1, e2))
                  + lift.eps * (_outer(n2, n1) - _outer(n1, n2)))
        assert np.array_equal(lift.j_ambient, oracle), (kind, sign, s)
        assert lift.j_ambient is lift.j_ambient   # cached on the lift


def test_octonion_lift_keeps_the_given_structure():
    # the octonion lift is built from its frame components alone: its ambient j is
    # formed on read, by the formula of every lift, and is L_q up to roundoff
    fld = im.build_immersion("octonion_graph", n=16)
    q, tw = octo.canonical_lift(fld)
    assert "j_ambient" not in vars(tw)
    L = np.moveaxis(octo.left_mult_structure(q), (2, 3), (0, 1))
    assert np.max(np.abs(tw.j_ambient - L)) <= 1e-15


def _hadamard_bound(M):
    return np.prod(np.linalg.norm(M, axis=-2), axis=-1)


@pytest.mark.parametrize("kind", ROTATION_LIFT_FIXTURES + ["helicoid", "perturbed_torus"])
def test_column_det_matches_lapack_on_fixture_frames(kind):
    fld = im.build_immersion(kind, n=16)
    cols = list(fld.frame_planes)
    if fld.space.kind == "sphere4":
        cols = [fld.phi_planes / fld.space.radius] + cols
    M = np.stack([im._pointwise(c) for c in cols], axis=-1)
    assert np.max(np.abs(im._column_det(cols) - np.linalg.det(M))) <= 1e-13, kind


@pytest.mark.parametrize("m", [4, 5])
def test_column_det_matches_lapack_on_random_stacks(m):
    M = np.random.default_rng(m).standard_normal((9, 7, m, m))
    det = im._column_det([np.moveaxis(M[..., k], -1, 0) for k in range(m)])
    assert np.max(np.abs(det - np.linalg.det(M)) / _hadamard_bound(M)) <= 1e-13


def test_orientation_flip_is_a_frame_discontinuity():
    # a normal frame whose second vector turns over on half the grid flips the
    # sign of the orientation determinant there, and no one eps fits the lift
    fld = im.build_immersion("clifford_torus", n=16)
    F = fld.frame_planes.copy()
    F[3, :, :8] *= -1.0
    with pytest.raises(im.FrameDiscontinuity, match="orientation flips"):
        im.twistor_lift(dataclasses.replace(fld, frame_planes=F), +1)


def test_degenerate_frame_is_not_immersed():
    fld = im.build_immersion("clifford_torus", n=16)
    F = fld.frame_planes.copy()
    F[3] = F[2]
    with pytest.raises(im.NotImmersed):
        im.twistor_lift(dataclasses.replace(fld, frame_planes=F), +1)


def test_vertical_geometry_computed_once_per_lift(monkeypatch):
    # three checks on one rung share one divergence of II_minus, and none of
    # them forms the ambient j or stores II_minus: the j-conjugation runs once
    # per slot of II that a reader takes (two for the divergence, two for the
    # Maslov identity) and once on nabla_perp H
    calls = {"_anticommuting": 0, "_hom_covariant_divergence": 0}
    for fname in calls:
        def counted(*args, _orig=getattr(im, fname), _name=fname, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(im, fname, counted)
    scen = {"name": "product_torus", "fixture": {"kind": "product_torus", "params": {}},
            "model_space": {"kind": "complex2"}, "grid_ladder": [32],
            "checks": ["maslov_identity", "vertical_harmonicity", "divergence_identity"],
            "expect": "converge"}
    ctx = cli.RungContext(scen, 32)
    for name in scen["checks"]:
        cli.CHECKS[name][0](ctx)
    assert calls == {"_anticommuting": 5, "_hom_covariant_divergence": 1}
    fields = {f.name for f in dataclasses.fields(ctx.tw)}
    assert set(vars(ctx.tw)) - fields == {"div_minus"}


# --------------------------------------------------------------------- split II

def test_split_recombines_and_commutes():
    for kind in ("clifford_torus", "round_sphere"):
        fld = im.build_immersion(kind, n=16)
        tw = im.twistor_lift(fld, +1)
        II, minus = im._pointwise(fld.II.planes), im._pointwise(II_minus(tw))
        j_T, j_N = im._pointwise(tw.j_T_planes), im._pointwise(tw.j_N_planes)
        plus = II - minus
        assert np.max(np.abs(plus + minus - II)) <= 1e-13
        for X in (0, 1):
            P, M = plus[..., X, :, :], minus[..., X, :, :]
            comm = j_N @ P - P @ j_T
            anti = j_N @ M + M @ j_T
            assert np.max(np.abs(comm)) <= 1e-12
            assert np.max(np.abs(anti)) <= 1e-12


def test_split_umbilic_sphere_minus_parallel():
    # oracle by 2x2 arithmetic: with II(X, Y) = -<X, Y> n1 / r the e1 slot is
    # -E11 / r, whose anticommuting part is -(E11 - eps E22) / (2 r): nonzero
    # but constant in the adapted frames, so its covariant divergence (the
    # harmonicity integrand) vanishes
    r = 1.5
    fld = im.build_immersion("round_sphere", {"r": r}, n=32)
    tw = im.twistor_lift(fld, +1)
    oracle = -0.5 / r * np.array([[1.0, 0.0], [0.0, -float(tw.eps)]])
    mask = fld.report_mask(1)
    err = np.linalg.norm(im._pointwise(tw.II_minus_slot(0)) - oracle, axis=(-2, -1))
    assert np.max(err[mask]) <= 5 * fld.grid.h ** 2
    rep = ladder_report(lambda n: run_residual("round_sphere",
                                               im.vertical_harmonicity_residual, n))
    assert converges_or_exact(rep, slope_min=1.9)


def test_split_clifford_minus_constant():
    # hand oracle: the anticommuting part on the e1 slot is
    # (1/2) [[-1, -1], [1, -1]] (times the stencil factor), Frobenius norm 1
    fld = im.build_immersion("clifford_torus", n=32)
    tw = im.twistor_lift(fld, +1)
    sinc = np.sin(fld.grid.hu) / fld.grid.hu
    oracle = 0.5 * np.array([[-1.0, -1.0], [1.0, -1.0]]) * sinc
    minus = im._pointwise(tw.II_minus_slot(0))
    assert np.max(np.abs(minus - oracle)) <= 1e-12
    norms = np.linalg.norm(minus, axis=(-2, -1))
    assert np.max(np.abs(norms - norms[0, 0])) <= 1e-12
    assert norms[0, 0] > 0.9


def test_lift_blocks_are_parallel():
    # the lift acts as frame rotations, so its frame blocks are constant and
    # commute with the (skew 2x2) connection coefficients: D j = 0 holds
    # structurally
    fld = im.build_immersion("clifford_torus", n=16)
    tw = im.twistor_lift(fld, +1)
    om_u, om_v, wn_u, wn_v = (im._pointwise(dense_skew(w)) for w in fld.connection_planes)
    j_T, j_N = im._pointwise(tw.j_T_planes), im._pointwise(tw.j_N_planes)
    for blocks, conns in ((j_T, (om_u, om_v)), (j_N, (wn_u, wn_v))):
        assert np.max(np.abs(blocks - blocks[0, 0])) == 0.0
        for w in conns:
            assert np.max(np.abs(w @ blocks - blocks @ w)) <= 1e-13


# ------------------------------------------------------- harmonicity residuals

def run_residual(kind, fn, n, params=None, sign=+1):
    fld = im.build_immersion(kind, params or {}, n=n)
    tw = im.twistor_lift(fld, sign)
    return fn(fld, tw)


def test_vertical_harmonicity_positive_fixtures():
    for kind in ("plane", "clifford_torus", "product_torus"):
        rep = run_residual(kind, im.vertical_harmonicity_residual, 32)
        assert rep.final_sup <= 1e-12, kind
    for kind in ("round_sphere", "helicoid"):
        rep = ladder_report(lambda n: run_residual(kind, im.vertical_harmonicity_residual, n))
        assert converges_or_exact(rep, slope_min=1.9), kind


def test_vertical_harmonicity_negative_control():
    for n in LADDER:
        rep = run_residual("perturbed_torus", im.vertical_harmonicity_residual, n,
                           params={"eps": 0.1})
        assert rep.final_sup >= 0.01


def test_holomorphic_H():
    for kind in ("plane", "clifford_torus", "product_torus"):
        assert run_residual(kind, im.holomorphic_H_residual, 32).final_sup <= 1e-12, kind
    rep = ladder_report(lambda n: run_residual("round_sphere", im.holomorphic_H_residual, n))
    assert converges_or_exact(rep, slope_min=1.9)
    helicoid = run_residual("helicoid", im.holomorphic_H_residual, 32)
    assert helicoid.final_sup <= 1e-6  # H = 0 for the minimal fixture
    for n in LADDER:
        rep = run_residual("perturbed_torus", im.holomorphic_H_residual, n)
        assert rep.final_sup >= 0.1  # the anti-holomorphic part is order one


def test_divergence_identity_all_fixtures():
    # the traced identity holds on solutions and non-solutions alike
    cases = [("plane", {}), ("round_sphere", {}), ("clifford_torus", {}),
             ("product_torus", {}), ("helicoid", {}), ("perturbed_torus", {}),
             ("lagrangian_graph", {"potential": "saddle"}),
             ("lagrangian_graph", {"potential": "cubic"}), ("clifford_torus_s4", {})]
    for kind, params in cases:
        rep = ladder_report(lambda n: run_residual(kind, im.divergence_identity_residual,
                                                   n, params=params))
        assert converges_or_exact(rep, slope_min=1.0), (kind, params)


def test_codazzi_identity():
    assert run_residual("plane", lambda f, t: im.codazzi_identity_residual(f), 16).final_sup == 0.0
    assert run_residual("clifford_torus",
                        lambda f, t: im.codazzi_identity_residual(f), 32).final_sup <= 1e-12
    rep = ladder_report(lambda n: run_residual("round_sphere",
                                               lambda f, t: im.codazzi_identity_residual(f), n))
    assert converges_or_exact(rep, slope_min=1.0)
    # octonion_graph is the one fixture whose normal connection is not zero, so
    # only it sees the sign of the normal-connection terms; run_residual would
    # build its rank-6 lift, which the identity does not need
    rep = ladder_report(lambda n: im.codazzi_identity_residual(
        im.build_immersion("octonion_graph", n=n)))
    assert rep.estimated_order >= 1.9


@pytest.mark.parametrize("kind", ["clifford_torus_s4", "round_sphere"])
def test_codazzi_curvature_term_matches_operator_loop(kind, monkeypatch):
    # oracle: sum_i R(e_i, X) e_i from the (nu, nv, m, m) curvature operators;
    # within roundoff of the curvature scale c on sphere4, exact on a flat target
    fld = im.build_immersion(kind, n=32)
    captured = {}

    def capture(name, h, pointwise, mask):
        captured[name] = pointwise
        return ResidualReport(name)
    monkeypatch.setattr(im, "masked_report", capture)
    im.codazzi_identity_residual(fld)
    e1, e2 = map(im._pointwise, fld.frame_planes[:2])
    cols = [sum(np.einsum("uvij,uvj->uvi", symspace.curvature_operator(fld.space, ei, X), ei)
                for ei in (e1, e2)) for X in (e1, e2)]
    normal_frame = im._pointwise(fld.frame_planes[2:])
    Rterm = np.moveaxis(normal_frame @ np.stack(cols, axis=-1), (0, 1), (-2, -1))
    inv2 = 1.0 / np.maximum(fld.conformal_factor, 1e-30)
    lhs = inv2 * im._hom_covariant_divergence(fld, fld.II.planes)
    oracle = np.sqrt(_sq_norm(lhs - (Rterm + 2.0 * im._grad_H_hom(fld))))
    c = fld.space.curvature_constant
    if kind == "round_sphere":
        assert c == 0.0 and np.array_equal(captured["codazzi_identity"], oracle)
    else:
        assert c == 1.0 and _close(captured["codazzi_identity"], oracle, scale=c)


def test_curvature_commutator_space_forms():
    for kind in ("plane", "clifford_torus", "round_sphere", "clifford_torus_s4"):
        rep = run_residual(kind, im.curvature_commutator_residual, 16)
        assert rep.final_sup <= 1e-10, kind


# ------------------------------------------------------ per-field geometry cache

def test_cached_geometry_matches_public_functions():
    fld = im.build_immersion("round_sphere", n=32)
    ref = im.build_immersion("round_sphere", n=32)
    II = im.second_fundamental_form(ref)
    H = im.mean_curvature(II)
    assert np.array_equal(fld.II.planes, II.planes)
    # II is stored once, as one C-contiguous component-first Hom(T, N) array with
    # equal mixed slots
    assert fld.II.planes.flags.c_contiguous
    assert np.array_equal(fld.II.planes[0, :, 1], fld.II.planes[1, :, 0])
    assert np.array_equal(fld.H, H)
    for cached, fresh in zip(fld.connection_planes, im.frame_connection(ref)):
        assert np.array_equal(cached, fresh)
    for cached, fresh in zip(fld.grad_H, im.normal_connection_derivative(ref, H)):
        assert np.array_equal(cached, fresh)
    assert fld.II is fld.II and fld.connection_planes is fld.connection_planes


def test_residuals_independent_of_cache_state():
    # every check gives the same bits on a fresh field and on one whose
    # cache the other checks have filled; the sphere has a nonzero discrete
    # nabla_perp H in both directions, the cubic graph is Lagrangian
    surface = {
        "vertical_harmonicity": im.vertical_harmonicity_residual,
        "holomorphic_H": im.holomorphic_H_residual,
        "divergence_identity": im.divergence_identity_residual,
        "codazzi_identity": lambda f, t: im.codazzi_identity_residual(f),
    }
    maslov = {
        "maslov_identity": lg.maslov_identity_residual,
        "hamiltonian_stationary": lambda f, t: lg.hamiltonian_stationary_residual(f),
    }
    cases = [("round_sphere", {}, surface),
             ("lagrangian_graph", {"potential": "cubic"}, {**surface, **maslov})]
    for kind, params, checks in cases:
        def fresh():
            fld = im.build_immersion(kind, params, n=32)
            return fld, im.twistor_lift(fld, +1)

        for name, fn in checks.items():
            first = fn(*fresh())
            fld, tw = fresh()
            for other, other_fn in checks.items():
                if other != name:
                    other_fn(fld, tw)
            assert fn(fld, tw).as_dict() == first.as_dict(), (kind, name)


def test_geometry_computed_once_per_rung(monkeypatch):
    calls = {"second_fundamental_form": 0, "frame_connection": 0}
    for fname in calls:
        def counted(*args, _orig=getattr(im, fname), _name=fname, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(im, fname, counted)
    ladder = [16, 24, 32]
    scen = {"name": "round_sphere", "fixture": {"kind": "round_sphere", "params": {}},
            "model_space": {"kind": "euclidean4"}, "grid_ladder": ladder,
            "checks": ["vertical_harmonicity", "holomorphic_H", "divergence_identity",
                       "codazzi_identity"], "expect": "converge"}
    cli.run_scenario(scen)
    assert calls == {"second_fundamental_form": len(ladder), "frame_connection": len(ladder)}


def _rung_peak_planes(kind, space, params, checks, n=128):
    """The traced high-water mark of one n-rung of a scenario, in grid planes of
    8 n^2 bytes, with imports and first-call set-up outside the trace."""
    scen = {"name": kind, "fixture": {"kind": kind, "params": params},
            "model_space": {"kind": space}, "grid_ladder": [n], "checks": checks,
            "expect": "converge"}
    cli.run_scenario(scen)
    tracemalloc.start()
    try:
        cli.run_scenario(scen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_round_sphere_rung_peak_memory():
    # one n = 128 rung of the benchmark's round_sphere scenario: the field and
    # its cached geometry hold about 51 planes, and no stage may add more than
    # about one slot or one column of derivatives or products on top of them;
    # II_minus is never held whole
    checks = ["vertical_harmonicity", "holomorphic_H", "divergence_identity", "codazzi_identity"]
    assert _rung_peak_planes("round_sphere", "euclidean4", {"r": 1.0}, checks) <= 66.0


def test_product_torus_rung_peak_memory():
    # the benchmark's product_torus rung, in its check order: the Maslov identity
    # and the divergence of II_minus each form one slot of II_minus at a time
    checks = ["maslov_identity", "hamiltonian_stationary", "vertical_harmonicity",
              "divergence_identity"]
    assert _rung_peak_planes("product_torus", "complex2", {"r1": 1.0, "r2": 0.6},
                             checks) <= 64.0


@pytest.mark.parametrize("checks, lifts", [(["octonion_lift"], 0),
                                           (["vertical_harmonicity", "holomorphic_H",
                                             "octonion_lift"], 1)])
def test_octonion_structure_built_only_for_checks_that_read_it(monkeypatch, checks, lifts):
    calls = 0

    def counted(*args, _orig=octo.twistor_from_q, **kwargs):
        nonlocal calls
        calls += 1
        return _orig(*args, **kwargs)
    monkeypatch.setattr(octo, "twistor_from_q", counted)
    ladder = [16, 24]
    scen = {"name": "octonion_graph", "fixture": {"kind": "octonion_graph", "params": {}},
            "model_space": {"kind": "euclidean8"}, "grid_ladder": ladder, "checks": checks,
            "expect": "exact"}
    cli.run_scenario(scen)
    assert calls == lifts * len(ladder)


# ------------------------------------------- batched contractions vs einsum

ORACLE_FIXTURES = ["round_sphere", "clifford_torus_s4", "product_torus", "octonion_graph"]


def _einsum_reference(fld, tw):
    """The per-point einsum formulas, on grid-first views, that the plane kernels replaced."""
    grid, pw = fld.grid, im._pointwise
    dphi_u, dphi_v = map(pw, fld.dphi_planes)
    D11 = partial_u(grid, dphi_u)
    D12 = 0.5 * (partial_u(grid, dphi_v) + partial_v(grid, dphi_u))
    D22 = partial_v(grid, dphi_v)
    inv = 1.0 / np.maximum(fld.conformal_factor, 1e-30)
    N = pw(fld.frame_planes[2:])
    coeffs = np.stack([np.einsum("uvqm,uvm,uv->uvq", N, D, inv) for D in (D11, D12, D22)],
                      axis=-2)
    cross = np.einsum("uvqm,uvm,uv->uvq", N, partial_v(grid, dphi_u), inv)
    E = pw(fld.frame_planes[:2])

    def coeff(F, dF):
        raw = np.einsum("uvam,uvbm->uvab", F, dF)
        return 0.5 * (raw - np.swapaxes(raw, -1, -2))

    connection = (coeff(E, partial_u(grid, E)), coeff(E, partial_v(grid, E)),
                  coeff(N, partial_u(grid, N)), coeff(N, partial_v(grid, N)))
    M = pw(fld.II.planes)
    j_T, j_N = pw(tw.j_T_planes), pw(tw.j_N_planes)
    split_conj = np.einsum("uvpq,uvxqb,uvbc->uvxpc", j_N, M, j_T)
    H = pw(fld.H)
    wn = pw(dense_skew(fld.connection_planes[2])), pw(dense_skew(fld.connection_planes[3]))
    grad_H = tuple(d(grid, H) + np.einsum("uvpq,uvq->uvp", w, H)
                   for d, w in ((partial_u, wn[0]), (partial_v, wn[1])))
    Ghom = pw(im._grad_H_hom(fld))
    div_conj = np.einsum("uvpq,uvqb,uvbc->uvpc", j_N, Ghom, j_T)
    om_u, om_v, wn_u, wn_v = connection
    lam = np.sqrt(fld.conformal_factor)[..., None, None]
    B_u, B_v = lam * M[..., 0, :, :], lam * M[..., 1, :, :]
    hom_div = (partial_u(grid, B_u) + np.einsum("uvpq,uvqb->uvpb", wn_u, B_u)
               - np.einsum("uvpa,uvab->uvpb", B_u, om_u)
               + partial_v(grid, B_v) + np.einsum("uvpq,uvqb->uvpb", wn_v, B_v)
               - np.einsum("uvpa,uvab->uvpb", B_v, om_v))
    return dict(coeffs=coeffs, cross=cross, connection=connection, split_conj=split_conj,
                grad_H=grad_H, Ghom=Ghom, div_conj=div_conj, hom_div=hom_div)


def _close(new, ref, scale=None):
    """Within 1e-14 of the reference, relative to the scale of the field it belongs to."""
    scale = np.max(np.abs(ref)) if scale is None else scale
    return np.max(np.abs(new - ref)) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ORACLE_FIXTURES)
def test_batched_contractions_match_einsum(kind, monkeypatch):
    fld = im.build_immersion(kind, n=32)
    if kind == "octonion_graph":
        _, tw = octo.canonical_lift(fld)
        e, N = im._pointwise(fld.frame_planes[:2]), im._pointwise(fld.frame_planes[2:])
        assert fld.normal_rank == 6
        assert _close(im._pointwise(tw.j_T_planes),
                      np.einsum("uvam,uvmk,uvbk->uvab", e, tw.j_ambient, e))
        assert _close(im._pointwise(tw.j_N_planes),
                      np.einsum("uvpm,uvmk,uvqk->uvpq", N, tw.j_ambient, N))
    else:
        tw = im.twistor_lift(fld, +1)
    ref = _einsum_reference(fld, tw)
    assert _close(coeffs(fld.II), ref["coeffs"])
    # the mixed slot of an umbilic sphere is ~0: measure it against all of II
    assert _close(other_order_mixed(fld), ref["cross"], scale=np.max(np.abs(ref["coeffs"])))
    for new, old in zip(fld.connection_planes, ref["connection"]):
        new = im._pointwise(dense_skew(new))
        assert _close(new, old)
        # exactly skew, with a zero diagonal: the upper-triangle planes that the
        # connection kernel applies, also on the right, hold all of it
        assert np.array_equal(new, -np.swapaxes(new, -1, -2))
    # round_sphere has om != 0, octonion_graph q = 6 and wn != 0
    II = fld.II.planes.copy()
    assert _close(im._pointwise(im._hom_covariant_divergence(fld, fld.II.planes)), ref["hom_div"])
    assert np.array_equal(fld.II.planes, II)   # the divergence leaves its input alone
    for new, old in zip(fld.grad_H, ref["grad_H"]):
        assert _close(im._pointwise(new), old)
    M = im._pointwise(fld.II.planes)
    # on canonical lifts j_T and j_N are exact rotations, so the split is exact
    same = np.array_equal if kind != "octonion_graph" else _close
    assert same(im._pointwise(II_minus(tw)), 0.5 * (M + ref["split_conj"]))
    # the same j-conjugation on the single-slot nabla_perp H
    assert same(im._pointwise(im._anticommuting(tw, im._grad_H_hom(fld))),
                0.5 * (ref["Ghom"] + ref["div_conj"]))

    captured = {}

    def capture(name, h, pointwise, mask):
        captured[name] = pointwise
        return ResidualReport(name)
    monkeypatch.setattr(im, "masked_report", capture)
    im.divergence_identity_residual(fld, tw)
    inv2 = 1.0 / np.maximum(fld.conformal_factor, 1e-30)
    lhs = inv2[..., None, None] * im._pointwise(
        im._hom_covariant_divergence(fld, map(tw.II_minus_slot, range(2))))
    oracle = np.linalg.norm(lhs - (ref["Ghom"] + ref["div_conj"]), axis=(-2, -1))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(ref["Ghom"])))
    assert _close(captured["divergence_identity"], oracle, scale)

    # the plane product M X on every shape it serves, against the per-point einsum:
    # equal bit for bit over two columns, within roundoff over more
    H, F = fld.H, fld.frame_planes
    cases = [(dense_skew(fld.connection_planes[2]), H), (tw.j_N_planes, fld.grad_H[1]),
             (H[None], F[2:]), (tw.j_T_planes[None, :, 0], F[:2]),
             (tw.j_N_planes[None, :, 0], F[2:])]
    if fld.space.kahler is not None:
        cases += [(fld.space.kahler, F[0]), (fld.space.kahler, fld.dphi_planes[0])]
    for M, X in cases:
        planes = M if M.ndim == 4 else M[..., None, None]   # a constant J: one value per plane
        want = np.einsum("pr...,r...->p...", np.broadcast_to(planes, M.shape[:2] + X.shape[-2:]),
                         X)
        got = im._plane_product(M, X)
        assert got.shape == want.shape
        assert (np.array_equal if len(X) == 2 else _close)(got, want)
    # the grid-first views of the component-first storage, against the norms they feed
    for G in fld.grad_H:
        assert _close(np.sqrt(_sq_norm(G)), np.linalg.norm(im._pointwise(G), axis=-1))


@pytest.mark.parametrize("k", [2, 6])
def test_connection_product_matches_dense_einsum(k):
    # the one connection kernel against the per-point dense product: on the left
    # (the normal connection), and on the right through transposed views of the
    # operand and of the output (the tangent one), with random skew fields, an
    # all-zero plane among them, and bit for bit over two columns
    rng = np.random.default_rng(k)
    pairs = k * (k - 1) // 2
    fields = [rng.standard_normal((pairs, 5, 7)) for _ in range(2)]
    fields[1][pairs // 2] = 0.0
    X, B = rng.standard_normal((k, 3, 5, 7)), rng.standard_normal((3, k, 5, 7))
    same = np.array_equal if k == 2 else _close
    for W in fields:
        w = dense_skew(W)
        start = rng.standard_normal(X.shape)
        got = im._connection_product(W, X, start.copy())
        assert same(got, start + np.einsum("abuv,b...uv->a...uv", w, X))
        # - B w: the transposed planes of B in, a transposed view of the output out
        start = rng.standard_normal(B.shape)
        out = start.copy()
        im._connection_product(W, B.swapaxes(0, 1), out.swapaxes(0, 1))
        assert same(out, start - np.einsum("pauv,abuv->pbuv", B, w))


def test_planes_are_contiguous_component_first():
    # each quantity is stored once, component-first, as C-contiguous planes
    for kind in ("round_sphere", "octonion_graph"):
        fld = im.build_immersion(kind, n=16)
        tw = octo.canonical_lift(fld)[1] if kind == "octonion_graph" else im.twistor_lift(fld)
        assert fld.frame_planes[2:].shape == (fld.normal_rank, fld.ambient_dim, 16, 16)
        assert fld.II.planes.shape == (2, fld.normal_rank, 2, 16, 16)
        assert tw.II_minus_slot(1).shape == (fld.normal_rank, 2, 16, 16)
        for planes in (fld.phi_planes, fld.dphi_planes, fld.frame_planes, fld.II.planes,
                       tw.II_minus_slot(0), fld.H, *fld.connection_planes, *fld.grad_H):
            assert planes.shape[-2:] == (16, 16) and planes.flags.c_contiguous, kind
        # a skew connection as its upper-triangle planes: one for each rank-2 frame
        q = fld.normal_rank
        assert [len(w) for w in fld.connection_planes] == [1, 1] + [q * (q - 1) // 2] * 2, kind
        if kind == "round_sphere":   # the canonical lift: views of one constant 2 x 2 matrix
            assert tw.j_T_planes.strides[-2:] == tw.j_N_planes.strides[-2:] == (0, 0)
