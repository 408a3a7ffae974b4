"""System residuals on frames, development, gauge action."""
import tracemalloc

import numpy as np
import pytest

from twistorsys import ellsys, forms, immersion as im, liealg
from twistorsys.fixtures import ALGEBRA_FIXTURES, load_algebra_fixture
from twistorsys.forms import LieValuedOneForm, SurfaceGrid


def unit_grid(n=16, periodic=False):
    h = 2 * np.pi / n if periodic else 1.0 / (n - 1)
    return SurfaceGrid(nu=n, nv=n, hu=h, hv=h, periodic_u=periodic, periodic_v=periodic)


def geometry(kind, n, params=None, sign=+1, flip=False):
    fld = im.build_immersion(kind, params or {}, n=n)
    tw = im.twistor_lift(fld, sign)
    if flip:
        tw = im.flip_tangent_orientation(fld, tw)
    frame, alpha = ellsys.frame_from_geometry(fld, tw)
    return fld, tw, frame, alpha, fld.space.algebra_fixture()


def ladder(fn, ns=(16, 32, 64)):
    rep = None
    for n in ns:
        r = fn(n)
        rep = r if rep is None else rep.merged(r)
    return rep


# ------------------------------------------------------------------- residuals

def test_constructed_holomorphic_form_is_exact():
    fx = load_algebra_fixture("so5_s4")
    g = unit_grid(12)
    rng = np.random.default_rng(0)
    raw = LieValuedOneForm(g, fx.algebra,
                           rng.standard_normal((12, 12, 10)).astype(complex),
                           rng.standard_normal((12, 12, 10)).astype(complex))
    parts = forms.grade_decompose(raw, fx.aut)
    g1_10, _ = forms.type_decompose(parts[1])
    alpha = parts[0] + parts[2] + LieValuedOneForm(g, fx.algebra,
                                                   2 * g1_10.a_u.real, 2 * g1_10.a_v.real)
    assert ellsys.holomorphicity_residual(alpha, fx.aut).final_sup <= 1e-12


def test_holomorphicity_from_sphere_frame_converges():
    rep = ladder(lambda n: ellsys.holomorphicity_residual(
        geometry("round_sphere", n)[3], load_algebra_fixture("se4_r4").aut))
    assert rep.estimated_order >= 1.9
    assert rep.final_sup <= 1e-3


def test_antiholomorphic_lift_fails_holomorphicity():
    # reversing the tangent rotation makes the frame anti-adapted: the
    # grade-1 (0,1) part is order one
    for n in (16, 32):
        _, _, _, alpha, fx = geometry("clifford_torus", n, flip=True)
        assert ellsys.holomorphicity_residual(alpha, fx.aut).final_sup >= 0.1


def test_covariant_closure_zero_when_grade2_empty():
    # a form valued in p has no grade-2 part at all
    fx = load_algebra_fixture("se4_r4")
    g = unit_grid(12)
    U, V = g.mesh()
    xi = fx.split.p_basis[0]
    a_u = np.sin(U)[..., None] * xi
    a_v = np.cos(V)[..., None] * xi
    alpha = LieValuedOneForm(g, fx.algebra, a_u.astype(complex), a_v.astype(complex))
    assert ellsys.covariant_closure_residual(alpha, fx.aut).final_sup <= 1e-13


def test_clifford_system_exact_on_adapted_frames():
    _, _, _, alpha, fx = geometry("clifford_torus", 32)
    res = ellsys.system_residuals(alpha, fx.aut)
    for name, rep in res.items():
        assert rep.final_sup <= 1e-12, name


def test_solution_fixture_sweep():
    # every surface with holomorphic mean curvature frames into a solution:
    # homogeneous fixtures at roundoff, chart-inhomogeneous ones at order 2
    for kind, exact in [("plane", True), ("product_torus", True),
                        ("clifford_torus_s4", True), ("round_sphere", False),
                        ("helicoid", False)]:
        if exact:
            _, _, _, alpha, fx = geometry(kind, 24)
            for name, rep in ellsys.system_residuals(alpha, fx.aut).items():
                assert rep.final_sup <= 1e-12, (kind, name)
        else:
            reports = {}
            for n in (16, 32, 64):
                _, _, _, alpha, fx = geometry(kind, n)
                for name, rep in ellsys.system_residuals(alpha, fx.aut).items():
                    reports[name] = reports[name].merged(rep) if name in reports else rep
            for name, rep in reports.items():
                assert rep.estimated_order >= 1.5, (kind, name)
                assert rep.final_sup <= 5e-3, (kind, name)


def test_loop_reconstruction_on_adapted_frame():
    # the adapted flat-torus frame satisfies the holomorphicity equation at
    # roundoff, so the spectral family at lambda = 1 reconstructs alpha
    _, _, _, alpha, fx = geometry("clifford_torus", 16)
    out = forms.loop_form(alpha, fx.aut, 1.0)
    assert np.max((out - alpha).pointwise_norm()) <= 1e-12


def test_perturbed_closure_large_holomorphicity_converges():
    closure = ladder(lambda n: ellsys.covariant_closure_residual(
        geometry("perturbed_torus", n)[3], load_algebra_fixture("se4_r4").aut),
        ns=(16, 32, 64))
    assert all(e.sup >= 1e-2 for e in closure.entries)
    holo = ladder(lambda n: ellsys.holomorphicity_residual(
        geometry("perturbed_torus", n)[3], load_algebra_fixture("se4_r4").aut),
        ns=(16, 32, 64))
    assert holo.estimated_order >= 1.5
    assert holo.final_sup <= 1e-2


def test_plane_frame_translation_only():
    # totally geodesic: the connection form has no rotation part at all and
    # every system residual is at roundoff
    _, _, frame, alpha, fx = geometry("plane", 16)
    rot = fx.algebra.matrix(alpha.a_u.real)[..., :4, :4]
    assert np.max(np.abs(rot)) <= 1e-13
    for name, rep in ellsys.system_residuals(alpha, fx.aut).items():
        assert rep.final_sup <= 1e-12, name


def test_frame_group_membership():
    # sphere frames are orthogonal; affine frames have orthogonal linear part
    _, _, frame, _, _ = geometry("clifford_torus_s4", 16)
    gtg = np.swapaxes(frame.g, -1, -2) @ frame.g
    assert np.max(np.abs(gtg - np.eye(5))) <= 1e-8
    _, _, frame, _, _ = geometry("clifford_torus", 16)
    F = frame.g[..., :4, :4]
    assert np.max(np.abs(np.swapaxes(F, -1, -2) @ F - np.eye(4))) <= 1e-8
    assert np.max(np.abs(frame.g[..., 4, :4])) == 0.0


def real_frame_form(source, n):
    """(alpha, fixture) for an adapted geometric frame or, for "exp_frame", the
    analytic g^-1 dg of exp(u X) exp(v Y) in so5_s4."""
    if source != "exp_frame":
        return geometry(source, n)[3:]
    fx = load_algebra_fixture("so5_s4")
    xi, eta = np.random.default_rng(4).standard_normal((2, fx.algebra.dim))
    return ellsys.exp_frame_form(unit_grid(n), fx, xi, eta), fx


def test_frame_forms_are_real():
    alpha, fx = real_frame_form("exp_frame", 16)
    xi, eta = np.random.default_rng(4).standard_normal((2, fx.algebra.dim))
    frame = ellsys.exp_frame(alpha.grid, fx, xi, eta)
    for form in (alpha, ellsys.frame_to_connection(frame), geometry("clifford_torus_s4", 16)[3]):
        assert form.a_u.dtype == form.a_v.dtype == np.float64


@pytest.mark.parametrize("source", ["clifford_torus", "clifford_torus_s4", "exp_frame"])
def test_real_form_matches_its_complex_copy(source):
    # the graded residuals see the same complex graded coordinates; flatness
    # and the gauge action run in real arithmetic and agree up to roundoff (a
    # stencil quotient rounds otherwise in complex arithmetic), relative to d alpha
    alpha, fx = real_frame_form(source, 24)
    copy = LieValuedOneForm(alpha.grid, alpha.algebra, alpha.a_u.astype(complex),
                            alpha.a_v.astype(complex))
    assert copy.a_u.dtype == np.complex128
    for check in (ellsys.holomorphicity_residual, ellsys.covariant_closure_residual):
        assert check(alpha, fx.aut).as_dict() == check(copy, fx.aut).as_dict(), check.__name__
    scan, copy_scan = forms.zero_curvature_scan(alpha, fx.aut), forms.zero_curvature_scan(copy, fx.aut)
    assert scan.as_dict() == copy_scan.as_dict() and scan.meta == copy_scan.meta
    F, copy_F = forms.curvature_two_form(alpha).value, forms.curvature_two_form(copy).value
    assert np.max(np.abs(F - copy_F)) <= 1e-14 * np.max(np.abs(forms.exterior_derivative(alpha).value))

    U, V = alpha.grid.mesh()
    h = ellsys.stabilizer_gauge_field(fx, alpha.grid, 0.3 * np.sin(U) * np.cos(V))
    beta, copy_beta = ellsys.gauge_transform(alpha, h, fx), ellsys.gauge_transform(copy, h, fx)
    assert beta.a_u.dtype == beta.a_v.dtype == np.float64
    assert np.max(np.abs(beta.a_u - copy_beta.a_u)) <= 1e-13
    assert np.max(np.abs(beta.a_v - copy_beta.a_v)) <= 1e-13


def test_frame_rejects_branch_points():
    fld = im.build_immersion("branched_disk", n=17)
    with pytest.raises((im.NotImmersed, im.FrameDiscontinuity)):
        tw = im.twistor_lift(fld, +1)
        ellsys.frame_from_geometry(fld, tw)


# ----------------------------------------------------------------- development

def test_develop_zero_form_constant():
    fx = load_algebra_fixture("so5_s4")
    g = unit_grid(10)
    zero = forms.constant_form(g, fx.algebra, np.zeros(10), np.zeros(10))
    dev = ellsys.develop_frame(zero, fx)
    assert np.max(np.abs(dev.g - np.eye(5))) == 0.0


def test_develop_recovers_two_parameter_frame():
    # the u-then-v path sees constant coefficients on each leg, so the
    # trapezoidal steps reproduce exp(u X) exp(v Y) exactly
    fx = load_algebra_fixture("so5_s4")
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(10)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(10)
    eta /= np.linalg.norm(eta)
    g = unit_grid(12)
    alpha = ellsys.exp_frame_form(g, fx, xi, eta)
    truth = ellsys.exp_frame(g, fx, xi, eta)
    dev = ellsys.develop_frame(alpha, fx)
    assert np.max(np.linalg.norm(dev.g - truth.g, axis=(-2, -1))) <= 1e-12


def test_develop_recovers_geometric_frame_second_order():
    sups = []
    hs = []
    for n in (12, 24, 48):
        fld, tw, frame, alpha, fx = geometry("round_sphere", n)
        dev = ellsys.develop_frame(alpha, fx, g0=frame.g[0, 0])
        sups.append(np.max(np.linalg.norm(dev.g - frame.g, axis=(-2, -1))))
        hs.append(fld.grid.h)
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert slope >= 1.8
    assert sups[-1] <= 5e-3


def test_plaquette_defect_matches_commutator_scale():
    # oracle: for constant alpha the two paths around a cell differ by
    # h^2 [A_u, A_v] to leading order
    fx = load_algebra_fixture("so5_s4")
    X, Y = np.eye(10)[0], np.eye(10)[3]
    Amat = fx.algebra.matrix(X)
    Bmat = fx.algebra.matrix(Y)
    oracle = np.linalg.norm(Amat @ Bmat - Bmat @ Amat)
    for n in (32, 64):
        h = 1.0 / (n - 1)
        g = SurfaceGrid(nu=n, nv=n, hu=h, hv=h)
        alpha = forms.constant_form(g, fx.algebra, X, Y)
        defect = ellsys.plaquette_defects(alpha, fx)
        assert abs(defect / (h ** 2 * oracle) - 1.0) <= 0.1


def test_holonomy_defect_small_on_torus_frame():
    fld, tw, frame, alpha, fx = geometry("clifford_torus", 32)
    dev = ellsys.develop_frame(alpha, fx)
    h = fld.grid.h
    assert dev.meta["holonomy_u"] <= 10 * h ** 2
    assert dev.meta["holonomy_v"] <= 10 * h ** 2


# per-point loop references: the batched development, plaquette and gauge
# paths do the same arithmetic, so they must agree bit for bit

def _avg(a, b):
    return 0.5 * (a + b)


def loop_develop_frame(alpha, fixture):
    alg, grid = fixture.algebra, alpha.grid
    A_u, A_v = alg.matrix(alpha.a_u.real), alg.matrix(alpha.a_v.real)
    nu, nv, hu, hv = grid.nu, grid.nv, grid.hu, grid.hv
    g = np.zeros((nu, nv) + A_u.shape[-2:])
    g[0, 0] = np.eye(alg.ambient_dim)

    def step(gcur, Aavg, h):
        return gcur @ liealg.matrix_exp(h * Aavg)

    for i in range(1, nu):
        g[i, 0] = step(g[i - 1, 0], _avg(A_u[i - 1, 0], A_u[i, 0]), hu)
    for j in range(1, nv):
        for i in range(nu):
            g[i, j] = step(g[i, j - 1], _avg(A_v[i, j - 1], A_v[i, j]), hv)
    meta = {}
    if grid.periodic_u:
        ret = step(g[-1, 0], _avg(A_u[-1, 0], A_u[0, 0]), hu)
        meta["holonomy_u"] = float(np.linalg.norm(ret - g[0, 0]))
    if grid.periodic_v:
        defects = [np.linalg.norm(step(g[i, -1], _avg(A_v[i, -1], A_v[i, 0]), hv) - g[i, 0])
                   for i in range(nu)]
        meta["holonomy_v"] = float(np.max(defects))
    return g, meta


def loop_plaquette_defects(alpha, fixture):
    alg, grid = fixture.algebra, alpha.grid
    A_u, A_v = alg.matrix(alpha.a_u.real), alg.matrix(alpha.a_v.real)
    nu, nv, hu, hv = grid.nu, grid.nv, grid.hu, grid.hv
    worst = 0.0
    for i in range(nu) if grid.periodic_u else range(nu - 1):
        i2 = (i + 1) % nu
        for j in range(nv) if grid.periodic_v else range(nv - 1):
            j2 = (j + 1) % nv
            bot = liealg.matrix_exp(hu * _avg(A_u[i, j], A_u[i2, j]))
            right = liealg.matrix_exp(hv * _avg(A_v[i2, j], A_v[i2, j2]))
            left = liealg.matrix_exp(hv * _avg(A_v[i, j], A_v[i, j2]))
            top = liealg.matrix_exp(hu * _avg(A_u[i, j2], A_u[i2, j2]))
            worst = max(worst, float(np.linalg.norm(bot @ right - left @ top)))
    return worst


def loop_stabilizer_gauge_field(fixture, grid, f):
    X = fixture.algebra.matrix(fixture.h_basis[0])
    out = np.zeros((grid.nu, grid.nv) + X.shape)
    for i in range(grid.nu):
        for j in range(grid.nv):
            out[i, j] = liealg.matrix_exp(f[i, j] * X)
    return out


def test_batched_paths_equal_loop_references():
    _, _, _, torus, fx_torus = geometry("clifford_torus", 24)
    fx = load_algebra_fixture("so5_s4")
    rng = np.random.default_rng(2)
    chart = ellsys.exp_frame_form(unit_grid(20), fx, rng.standard_normal(10),
                                  rng.standard_normal(10))
    for alpha, fixture in ((torus, fx_torus), (chart, fx)):
        dev = ellsys.develop_frame(alpha, fixture)
        g, meta = loop_develop_frame(alpha, fixture)
        assert np.array_equal(dev.g, g)
        assert dev.meta == meta
        assert ("holonomy_v" in meta) == alpha.grid.periodic_v
        assert ellsys.plaquette_defects(alpha, fixture) == loop_plaquette_defects(alpha, fixture)
        U, V = alpha.grid.mesh()
        f = 0.3 * np.sin(U) * np.cos(2 * V)
        assert np.array_equal(ellsys.stabilizer_gauge_field(fixture, alpha.grid, f),
                              loop_stabilizer_gauge_field(fixture, alpha.grid, f))


# whole-grid references: the development, plaquette and gauge passes with every
# step, path and product formed over the whole grid at once; the tiled passes
# do the same arithmetic per point, so they must agree bit for bit

def whole_grid_develop_frame(alpha, fixture, g0=None):
    alg, grid = fixture.algebra, alpha.grid
    E_u = liealg.matrix_exp(ellsys._avg(alg.matrix(alpha.a_u.real), 0, grid.hu))
    E_v = liealg.matrix_exp(ellsys._avg(alg.matrix(alpha.a_v.real), 1, grid.hv))
    g = np.zeros(E_v.shape)
    g[0, 0] = np.eye(alg.ambient_dim) if g0 is None else g0
    for i in range(1, grid.nu):
        g[i, 0] = g[i - 1, 0] @ E_u[i - 1, 0]
    for j in range(1, grid.nv):
        g[:, j] = g[:, j - 1] @ E_v[:, j - 1]
    meta = {}
    if grid.periodic_u:
        meta["holonomy_u"] = float(np.linalg.norm(g[-1, 0] @ E_u[-1, 0] - g[0, 0]))
    if grid.periodic_v:
        meta["holonomy_v"] = float(np.max(liealg._frobenius(g[:, -1] @ E_v[:, -1] - g[:, 0])))
    return g, meta


def whole_grid_plaquette_defects(alpha, fixture):
    alg, grid = fixture.algebra, alpha.grid
    E_u = liealg.matrix_exp(ellsys._avg(alg.matrix(alpha.a_u.real), 0, grid.hu))
    E_v = liealg.matrix_exp(ellsys._avg(alg.matrix(alpha.a_v.real), 1, grid.hv))
    # cell (i, j) closes through its wrapped steps where the grid is periodic
    D = E_u @ np.roll(E_v, -1, axis=0) - E_v @ np.roll(E_u, -1, axis=1)
    cells = D[:None if grid.periodic_u else -1, :None if grid.periodic_v else -1]
    return float(np.max(liealg._frobenius(cells)))


def whole_grid_gauge_transform(alpha, h, fixture):
    alg, grid = fixture.algebra, alpha.grid
    hT = np.swapaxes(h, -1, -2)
    new_u = hT @ alg.matrix(alpha.a_u) @ h + hT @ forms.partial_u(grid, h)
    new_v = hT @ alg.matrix(alpha.a_v) @ h + hT @ forms.partial_v(grid, h)
    return alg.coords(new_u, atol=None), alg.coords(new_v, atol=None)


def multi_tile_forms():
    """pytest params (alpha, fixture, g0) on grids taller and wider than one tile, with
    sizes that are no multiple of forms._TILE_ROWS: open and periodic exp_frame
    forms in both frame groups, open ones whose last tile along each axis is one
    line (n = 1 mod _TILE_ROWS), which starts no edge or cell, the adapted frames of
    both Clifford tori, and those of the round sphere's open chart, whose
    coefficients vary along both axes."""
    rng = np.random.default_rng(4)
    for name in ("so5_s4", "se4_r4"):
        fx = load_algebra_fixture(name)
        xi, eta = rng.standard_normal((2, fx.algebra.dim))
        for periodic in (False, True):
            grid = SurfaceGrid(nu=45, nv=70, hu=0.02, hv=0.015,
                               periodic_u=periodic, periodic_v=periodic)
            yield pytest.param(ellsys.exp_frame_form(grid, fx, xi, eta), fx, None,
                               id=f"{name}-{'periodic' if periodic else 'open'}")
        grid = SurfaceGrid(nu=2 * forms._TILE_ROWS + 1, nv=forms._TILE_ROWS + 1, hu=0.02, hv=0.015)
        yield pytest.param(ellsys.exp_frame_form(grid, fx, xi, eta), fx, None,
                           id=f"{name}-open-last-tile-one-line")
    for kind in ("clifford_torus", "clifford_torus_s4", "round_sphere"):
        _, _, frame, alpha, fx = geometry(kind, 67)
        yield pytest.param(alpha, fx, frame.g[0, 0], id=kind)


@pytest.mark.parametrize("alpha, fx, g0", list(multi_tile_forms()))
def test_tiled_frame_chain_equals_whole_grid(alpha, fx, g0):
    assert max(alpha.grid.nu, alpha.grid.nv) > forms._TILE_ROWS
    assert alpha.grid.nu % forms._TILE_ROWS and alpha.grid.nv % forms._TILE_ROWS
    dev = ellsys.develop_frame(alpha, fx, g0=g0)
    g, meta = whole_grid_develop_frame(alpha, fx, g0)
    assert np.array_equal(dev.g, g)
    assert dev.meta == meta
    assert ("holonomy_u" in meta, "holonomy_v" in meta) == (alpha.grid.periodic_u,
                                                            alpha.grid.periodic_v)
    assert ellsys.plaquette_defects(alpha, fx) == whole_grid_plaquette_defects(alpha, fx)
    U, V = alpha.grid.mesh()
    h = ellsys.stabilizer_gauge_field(fx, alpha.grid, 0.3 * np.sin(3 * U) * np.cos(2 * V))
    for form in (alpha, alpha.scaled(1 + 0.5j)):
        beta = ellsys.gauge_transform(form, h, fx)
        ref_u, ref_v = whole_grid_gauge_transform(form, h, fx)
        assert beta.a_u.dtype == form.a_u.dtype
        assert np.array_equal(beta.a_u, ref_u) and np.array_equal(beta.a_v, ref_v)


def test_gauge_membership_is_checked_on_every_tile():
    # a single point off H in the last tile raises before any tile is transformed
    _, _, _, alpha, fx = geometry("clifford_torus", 67)
    U, V = alpha.grid.mesh()
    h = ellsys.stabilizer_gauge_field(fx, alpha.grid, 0.3 * np.sin(U) * np.cos(V))
    h[-1, 5] *= 1.5
    with pytest.raises(ellsys.NotInH, match="residual 1.250e"):
        ellsys.gauge_transform(alpha, h, fx)


def _transient_stacks(call, n):
    """call()'s traced high-water mark above what it starts with, in (n, n, 5, 5)
    stacks of 8 * 25 n^2 bytes; the first call, outside the trace, does the set-up."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * 25 * n * n)


def test_frame_chain_peak_memory():
    # the frame_development rung at n = 96, in stacks of (96, 96, 5, 5) matrices:
    # no pass holds a whole-grid stack of steps, paths or products (whole-grid
    # passes took 3.9, 5.9 and 4.0).  The development peaks at 2.45 with g (1.0),
    # one tile's steps (32 of 96 columns, 0.34 a stack) and their exponentials'
    # batches, and runs no flatness check of its own; the plaquette pass at 2.76
    # with one tile's E_u, E_v, D and W; the gauge action at 2.16 with its output
    # coordinates (0.8) and one tile's products
    n = 96
    fx = load_algebra_fixture("so5_s4")
    xi, eta = np.random.default_rng([1, 2]).standard_normal((2, 10))
    grid = SurfaceGrid(nu=n, nv=n, hu=1.0 / (n - 1), hv=1.0 / (n - 1))
    alpha = ellsys.exp_frame_form(grid, fx, xi / np.linalg.norm(xi), eta / np.linalg.norm(eta))
    U, V = grid.mesh()
    h = ellsys.stabilizer_gauge_field(fx, grid, 0.3 * np.sin(2 * np.pi * U) * np.cos(2 * np.pi * V))
    assert _transient_stacks(lambda: ellsys.develop_frame(alpha, fx), n) <= 2.6
    assert _transient_stacks(lambda: ellsys.plaquette_defects(alpha, fx), n) <= 3.0
    assert _transient_stacks(lambda: ellsys.gauge_transform(alpha, h, fx), n) <= 2.4


def test_develop_nonfinite():
    fx = load_algebra_fixture("so5_s4")
    g = unit_grid(10)
    a = np.zeros((10, 10, 10), dtype=complex)
    alpha = forms.constant_form(g, fx.algebra, np.zeros(10), np.zeros(10))
    alpha.a_u = a.copy()
    alpha.a_u[5, 0, 0] = np.inf  # on the first development leg
    with pytest.raises((ellsys.NonFiniteExp, ValueError)):
        ellsys.develop_frame(alpha, fx)


# ----------------------------------------------------------------- gauge action

def test_constant_gauge_is_pointwise_adjoint():
    fld, tw, frame, alpha, fx = geometry("clifford_torus", 16)
    h0 = liealg.matrix_exp(0.4 * fx.algebra.matrix(fx.h_basis[0]))
    h = np.broadcast_to(h0, frame.g.shape).copy()
    beta = ellsys.gauge_transform(alpha, h, fx)
    h0inv = np.linalg.inv(h0)
    oracle_u = fx.algebra.coords(h0inv @ fx.algebra.matrix(alpha.a_u) @ h0, atol=None)
    assert np.max(np.abs(beta.a_u - oracle_u)) <= 1e-10
    res_a = ellsys.system_residuals(alpha, fx.aut)
    res_b = ellsys.system_residuals(beta, fx.aut)
    for name in res_a:
        assert abs(res_a[name].final_sup - res_b[name].final_sup) <= 1e-12, name


def test_identity_gauge_noop():
    fld, tw, frame, alpha, fx = geometry("clifford_torus", 16)
    h = np.broadcast_to(np.eye(5), frame.g.shape).copy()
    beta = ellsys.gauge_transform(alpha, h, fx)
    assert np.max(np.abs(beta.a_u - alpha.a_u)) <= 1e-13
    assert np.max(np.abs(beta.a_v - alpha.a_v)) <= 1e-13


def test_gauge_rejects_non_stabilizer():
    fld, tw, frame, alpha, fx = geometry("clifford_torus", 16)
    U, V = fld.grid.mesh()
    xi_p = fx.split.p_basis[0]  # a translation: not in the stabiliser
    h = ellsys.stabilizer_gauge_field(fx, fld.grid, 0.3 * np.sin(U), xi=xi_p)
    with pytest.raises(ellsys.NotInH):
        ellsys.gauge_transform(alpha, h, fx)


@pytest.mark.parametrize("kind", ["clifford_torus", "clifford_torus_s4"])
def test_gauge_rejects_scaled_identity(kind):
    # Ad(2I) is the identity on the algebra, but 2I is not in the frame group
    fld, tw, frame, alpha, fx = geometry(kind, 16)
    h = np.broadcast_to(2.0 * np.eye(5), frame.g.shape).copy()
    with pytest.raises(ellsys.NotInH):
        ellsys.gauge_transform(alpha, h, fx)


@pytest.mark.parametrize("last_row", [[0.5, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 2.0],
                                      [0.0, 0.0, 0.0, 0.0, -1.0]])
def test_gauge_rejects_affine_matrix_with_wrong_last_row(last_row):
    fld, tw, frame, alpha, fx = geometry("clifford_torus", 16)
    assert fx.affine
    h0 = np.eye(5)
    h0[4] = last_row
    with pytest.raises(ellsys.NotInH):
        ellsys.gauge_transform(alpha, np.broadcast_to(h0, frame.g.shape).copy(), fx)


@pytest.mark.parametrize("kind", ["clifford_torus", "clifford_torus_s4"])
def test_frames_and_gauge_use_the_group_inverse(kind, monkeypatch):
    fld = im.build_immersion(kind, {}, n=16)
    tw = im.twistor_lift(fld, +1)
    fx = fld.space.algebra_fixture()
    U, V = fld.grid.mesh()
    h = ellsys.stabilizer_gauge_field(fx, fld.grid, 0.3 * np.sin(U) * np.cos(V))
    ref = ellsys.gauge_transform(ellsys.frame_from_geometry(fld, tw)[1], h, fx)

    def no_inv(*args, **kwargs):
        raise AssertionError("np.linalg.inv called on group elements")
    monkeypatch.setattr(np.linalg, "inv", no_inv)
    frame, alpha = ellsys.frame_from_geometry(fld, tw)
    beta = ellsys.gauge_transform(ellsys.frame_to_connection(frame), h, fx)
    assert np.array_equal(beta.a_u, ref.a_u) and np.array_equal(beta.a_v, ref.a_v)


FRAME_SOURCES = ["clifford_torus", "clifford_torus_s4", "round_sphere", "product_torus",
                 *(f"{how}:{name}" for how in ("exp_frame", "develop_frame")
                   for name in ALGEBRA_FIXTURES)]


@pytest.mark.parametrize("source", FRAME_SOURCES)
def test_group_inverse_equals_lapack_inverse(source):
    # frame_to_connection's g^T dg has the coordinates of g^-1 dg with g^-1
    # from LAPACK, up to roundoff in the products, in both frame groups
    if ":" in source:
        how, name = source.split(":")
        fx = load_algebra_fixture(name)
        xi, eta = np.random.default_rng(3).standard_normal((2, fx.algebra.dim))
        grid = unit_grid(16)
        frame = (ellsys.exp_frame(grid, fx, xi, eta) if how == "exp_frame"
                 else ellsys.develop_frame(ellsys.exp_frame_form(grid, fx, xi, eta), fx))
    else:
        frame = geometry(source, 16)[2]
    g, grid, alg = frame.g, frame.grid, frame.fixture.algebra
    alpha = ellsys.frame_to_connection(frame)
    g_norm = np.linalg.norm(g, axis=(-2, -1))
    for a, dg in ((alpha.a_u, forms.partial_u(grid, g)), (alpha.a_v, forms.partial_v(grid, g))):
        ref = alg.coords(np.linalg.inv(g) @ dg, atol=None)
        err = np.max(np.abs(a - ref), axis=-1)
        assert np.all(err <= 1e-14 * g_norm * np.linalg.norm(dg, axis=(-2, -1)))


def bits(a):
    """a's float64 values as their bit patterns, which tell -0.0 from 0.0."""
    return a.view(np.uint64)


def whole_grid_connection(frame):
    """(a_u, a_v) of alpha = g^-1 dg in one pass over the whole grid's (n, n, nu, nv)
    planes, the computation that `ellsys._connection` runs one row tile at a time."""
    grid, fixture = frame.grid, frame.fixture
    G = np.ascontiguousarray(np.moveaxis(frame.g, (0, 1), (-2, -1)))
    rows, terms = fixture._connection_terms
    components = []
    for partial, axis in ((forms.partial_u, -2), (forms.partial_v, -1)):
        out = np.zeros((fixture.algebra.dim, grid.nu, grid.nv))
        for b, column in terms.items():
            dG = partial(grid, G[:rows, b], axis)
            for a, weights in column.items():
                gTdg = im._grid_dot(G[:rows, a], dG)
                for k, c in weights:
                    out[k] += c * gTdg
        components.append(np.moveaxis(out, 0, -1))
    return components


def whole_grid_adapted_frame(fld, tw):
    """The (nu, nv, 5, 5) adapted frames of `frame_from_geometry`, every column
    formed over the whole grid at once."""
    F, m = fld.frame_planes, fld.ambient_dim
    G = np.zeros((5, 5, fld.grid.nu, fld.grid.nv))
    G[:m, 0], G[:m, 2], G[:m, 4] = F[0], F[2], fld.phi_planes
    G[:m, 1] = im._plane_product(tw.j_T_planes[None, :, 0], F[:2])[0]
    G[:m, 3] = im._plane_product(tw.j_N_planes[None, :, 0], F[2:])[0]
    if fld.space.kind == "sphere4":
        G[:m, 4] /= fld.space.radius
    else:
        G[4, 4] = 1.0
    return np.moveaxis(G, (0, 1), (-2, -1))


@pytest.mark.parametrize("n", [16, 33, 65, 67])
@pytest.mark.parametrize("kind", ["clifford_torus", "clifford_torus_s4", "round_sphere"])
def test_tiled_connection_equals_whole_grid_on_adapted_frames(kind, n):
    # one tile (16), an open last tile of one line (33 and 65 on the sphere's
    # chart), wrapped halos on the periodic tori; both doors and the frame's own
    fld = im.build_immersion(kind, n=n)
    tw = im.twistor_lift(fld, +1)
    frame, alpha = ellsys.frame_from_geometry(fld, tw)
    assert np.array_equal(bits(frame.g), bits(whole_grid_adapted_frame(fld, tw)))
    ref_u, ref_v = whole_grid_connection(frame)
    for form in (alpha, ellsys.frame_to_connection(frame), ellsys.connection_from_geometry(fld, tw)):
        assert np.array_equal(bits(form.a_u), bits(ref_u))
        assert np.array_equal(bits(form.a_v), bits(ref_v))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("name", ALGEBRA_FIXTURES)
def test_tiled_connection_equals_whole_grid_on_developed_frames(name, periodic):
    # grid-first developed frames, copied to planes one tile at a time, on grids
    # of several tiles with nu != nv
    fx = load_algebra_fixture(name)
    xi, eta = np.random.default_rng(5).standard_normal((2, fx.algebra.dim))
    grid = SurfaceGrid(nu=70, nv=45, hu=0.02, hv=0.015, periodic_u=periodic, periodic_v=periodic)
    frame = ellsys.develop_frame(ellsys.exp_frame_form(grid, fx, xi, eta), fx)
    alpha = ellsys.frame_to_connection(frame)
    ref_u, ref_v = whole_grid_connection(frame)
    assert np.array_equal(bits(alpha.a_u), bits(ref_u))
    assert np.array_equal(bits(alpha.a_v), bits(ref_v))


@pytest.mark.parametrize("name", [n for n in ALGEBRA_FIXTURES if load_algebra_fixture(n).affine])
def test_affine_coordinates_ignore_the_last_matrix_row(name):
    # frame_to_connection relies on this: g^T dg and g^-1 dg differ only there
    alg = load_algebra_fixture(name).algebra
    n = alg.ambient_dim
    assert not np.any(alg.pinv.reshape(alg.dim, n, n)[:, -1])


def test_smooth_gauge_residuals_at_discretization_floor():
    # graded residuals are exactly invariant (the gauge is grade-0 valued and
    # coordinate-orthogonal); flatness picks up an O(h^2) floor that refines
    sups = {"holomorphicity": [], "covariant_closure": [], "flatness": []}
    origs = {}
    hs = []
    for n in (16, 32, 64):
        fld, tw, frame, alpha, fx = geometry("clifford_torus", n)
        U, V = fld.grid.mesh()
        h = ellsys.stabilizer_gauge_field(fx, fld.grid, 0.3 * np.sin(U) * np.cos(V))
        beta = ellsys.gauge_transform(alpha, h, fx)
        res_a = ellsys.system_residuals(alpha, fx.aut)
        res_b = ellsys.system_residuals(beta, fx.aut)
        for name in sups:
            sups[name].append(res_b[name].final_sup)
            origs.setdefault(name, []).append(res_a[name].final_sup)
        hs.append(fld.grid.h)
    for name in ("holomorphicity", "covariant_closure"):
        assert all(abs(a - b) <= 1e-10 for a, b in zip(sups[name], origs[name])), name
    coeffs = [s / h ** 2 for s, h in zip(sups["flatness"], hs)]
    assert max(coeffs) <= 2.0 * min(coeffs)  # pure second-order floor
    assert sups["flatness"][-1] <= 1e-3
