"""System residuals on frames, development, gauge action."""
import numpy as np
import pytest

from twistorsys import ellsys, forms, immersion as im, liealg
from twistorsys.fixtures import load_algebra_fixture
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


def test_develop_warns_on_curved_connection():
    fx = load_algebra_fixture("so5_s4")
    g = unit_grid(10)
    X, Y = np.eye(10)[0], np.eye(10)[3]
    alpha = forms.constant_form(g, fx.algebra, X, Y)  # holonomic, not flat
    with pytest.warns(UserWarning):
        ellsys.develop_frame(alpha, fx)


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
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    import warnings
    _, _, _, torus, fx_torus = geometry("clifford_torus", 24)
    fx = load_algebra_fixture("so5_s4")
    rng = np.random.default_rng(2)
    chart = ellsys.exp_frame_form(unit_grid(20), fx, rng.standard_normal(10),
                                  rng.standard_normal(10))
    for alpha, fixture in ((torus, fx_torus), (chart, fx)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sampled torus frame is O(h^2) off flat
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
