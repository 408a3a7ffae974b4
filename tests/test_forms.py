"""Grid forms: decompositions, stencils, curvature, the spectral family."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import ellsys, forms
from twistorsys.fixtures import load_algebra_fixture


@pytest.fixture(scope="module")
def se4():
    return load_algebra_fixture("se4_r4")


@pytest.fixture(scope="module")
def so5():
    return load_algebra_fixture("so5_s4")


def unit_grid(n=16, periodic=False):
    h = 2 * np.pi / n if periodic else 1.0 / (n - 1)
    return forms.SurfaceGrid(nu=n, nv=n, hu=h, hv=h,
                             periodic_u=periodic, periodic_v=periodic)


def random_form(grid, algebra, seed=0, real=False):
    rng = np.random.default_rng(seed)
    shape = (grid.nu, grid.nv, algebra.dim)
    a_u = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
    a_v = rng.standard_normal(shape) + (0 if real else 1j * rng.standard_normal(shape))
    return forms.LieValuedOneForm(grid, algebra, a_u.astype(complex), a_v.astype(complex))


# ------------------------------------------------------------------------ grid

def test_grid_validation():
    with pytest.raises(forms.GridTooSmall):
        forms.SurfaceGrid(nu=4, nv=16, hu=0.1, hv=0.1)
    with pytest.raises(forms.GridError):
        forms.SurfaceGrid(nu=16, nv=16, hu=-0.1, hv=0.1)


def test_interior_mask():
    g = unit_grid(10)
    m = g.interior_mask(2)
    assert not m[0, 0] and not m[1, 5] and m[2, 2] and m[5, 5]
    gp = unit_grid(10, periodic=True)
    assert gp.interior_mask(2).all()


# -------------------------------------------------------------- type decompose

def test_type_decompose_constant_du(se4):
    # alpha = du * xi: the (1, 0) part is (xi/2) dz with dz = du + i dv, so it
    # evaluates to xi/2 on du and +i xi/2 on dv (the sign that makes
    # alpha10(du) + i alpha10(dv) vanish)
    g = unit_grid()
    xi = np.zeros(10)
    xi[3] = 1.0
    alpha = forms.constant_form(g, se4.algebra, xi, np.zeros(10))
    a10, a01 = forms.type_decompose(alpha)
    assert np.allclose(a10.a_u, 0.5 * xi, atol=1e-15)
    assert np.allclose(a10.a_v, 0.5j * xi, atol=1e-15)
    assert np.allclose((a10 + a01).a_u, alpha.a_u, atol=1e-15)


def test_type_decompose_pure_10(se4):
    # a_v = i a_u is already of type (1, 0)
    g = unit_grid()
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    alpha = forms.constant_form(g, se4.algebra, xi, 1j * xi)
    _, a01 = forms.type_decompose(alpha)
    assert np.max(a01.pointwise_norm()) <= 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_type_decompose_recombines(seed):
    alg = load_algebra_fixture("se4_r4").algebra
    alpha = random_form(unit_grid(8), alg, seed)
    a10, a01 = forms.type_decompose(alpha)
    assert np.max((a10 + a01 - alpha).pointwise_norm()) <= 1e-14
    # defining property of (1,0): alpha10(du) + i alpha10(dv) = 0
    assert np.max(np.abs(a10.a_u + 1j * a10.a_v)) <= 1e-14


# ------------------------------------------------------------- grade decompose

def test_grade_decompose_h_valued(se4):
    g = unit_grid()
    xi = se4.h_basis[0]
    alpha = forms.constant_form(g, se4.algebra, xi, 2.0 * xi)
    parts = forms.grade_decompose(alpha, se4.aut)
    assert np.max((parts[0] - alpha).pointwise_norm()) <= 1e-12
    for k in (1, 2, -1):
        assert np.max(parts[k].pointwise_norm()) <= 1e-12


def test_grade_decompose_p_valued(se4):
    g = unit_grid()
    xi = se4.split.p_basis[0]
    eta = se4.split.p_basis[1]
    alpha = forms.constant_form(g, se4.algebra, xi, eta)
    parts = forms.grade_decompose(alpha, se4.aut)
    assert np.max(parts[0].pointwise_norm()) <= 1e-12
    assert np.max(parts[2].pointwise_norm()) <= 1e-12


def test_grade_decompose_reality_and_reconstruction(so5):
    alpha = random_form(unit_grid(8), so5.algebra, seed=3, real=True)
    parts = forms.grade_decompose(alpha, so5.aut)
    total = parts[0] + parts[1] + parts[2] + parts[-1]
    assert np.max((total - alpha).pointwise_norm()) <= 1e-12
    assert np.max(np.abs(np.conj(parts[1].a_u) - parts[-1].a_u)) <= 1e-12


def test_grade_commutes_with_type(so5):
    alpha = random_form(unit_grid(8), so5.algebra, seed=4)
    a10, _ = forms.type_decompose(alpha)
    lhs = forms.grade_decompose(a10, so5.aut)[1]
    rhs = forms.type_decompose(forms.grade_decompose(alpha, so5.aut)[1])[0]
    assert np.max((lhs - rhs).pointwise_norm()) <= 1e-12


def test_grade_decompose_algebra_mismatch(so5):
    su2 = load_algebra_fixture("su2_order4")
    alpha = random_form(unit_grid(8), so5.algebra, seed=1)
    with pytest.raises(forms.AlgebraMismatch):
        forms.grade_decompose(alpha, su2.aut)


# --------------------------------------------------------- exterior derivative

def test_exterior_derivative_of_df_converges(so5):
    # oracle: d(df) = 0 analytically for f = sin(u + 2v); the discrete defect
    # decays at order 2 (the two stencil directions see different frequencies,
    # so their truncation errors cannot cancel)
    xi = np.zeros(10)
    xi[2] = 1.0
    rep = forms.ResidualReport("ddf")
    for n in (16, 32, 64):
        g = unit_grid(n)
        U, V = g.mesh()
        a_u = np.cos(U + 2 * V)[..., None] * xi
        a_v = 2 * np.cos(U + 2 * V)[..., None] * xi
        alpha = forms.LieValuedOneForm(g, so5.algebra, a_u.astype(complex), a_v.astype(complex))
        d = forms.exterior_derivative(alpha)
        rep = rep.merged(forms.report_from_pointwise("ddf", g, d.pointwise_norm(), margin=1))
    assert rep.estimated_order >= 1.9
    assert rep.final_sup <= 1e-3


def test_exterior_derivative_constant_zero(so5):
    alpha = forms.constant_form(unit_grid(), so5.algebra, np.eye(10)[0], np.eye(10)[1])
    assert np.max(forms.exterior_derivative(alpha).pointwise_norm()) == 0.0


def test_exterior_derivative_exact_on_linear(so5):
    # alpha = u dv * xi: d alpha = du ^ dv * xi, and the centered stencil is
    # exact on linear data
    g = unit_grid(12)
    U, _ = g.mesh()
    xi = np.eye(10)[4]
    a_v = U[..., None] * xi
    alpha = forms.LieValuedOneForm(g, so5.algebra,
                                   np.zeros_like(a_v, dtype=complex), a_v.astype(complex))
    d = forms.exterior_derivative(alpha)
    interior = g.interior_mask(1)
    assert np.max(np.abs(d.value[interior] - xi)) <= 1e-13


# ---------------------------------------------------------------- wedge bracket

def test_wedge_bracket_definition(so5):
    g = unit_grid()
    X, Y = np.eye(10)[0], np.eye(10)[3]
    alpha = forms.constant_form(g, so5.algebra, X, np.zeros(10))
    beta = forms.constant_form(g, so5.algebra, np.zeros(10), Y)
    w = forms.wedge_bracket(alpha, beta)
    oracle = so5.algebra.bracket_coords(X, Y)
    assert np.max(np.abs(w.value - oracle)) <= 1e-14


def test_wedge_bracket_commuting_zero(se4):
    # two translations commute
    g = unit_grid()
    t1, t2 = se4.split.p_basis[0], se4.split.p_basis[1]
    alpha = forms.constant_form(g, se4.algebra, t1, t2)
    assert np.max(forms.wedge_bracket(alpha, alpha).pointwise_norm()) <= 1e-14


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_wedge_bracket_symmetric(seed):
    fx = load_algebra_fixture("so5_s4")
    g = unit_grid(8)
    alpha = random_form(g, fx.algebra, seed)
    beta = random_form(g, fx.algebra, seed + 1)
    ab = forms.wedge_bracket(alpha, beta).value
    ba = forms.wedge_bracket(beta, alpha).value
    scale = max(np.max(np.abs(ab)), 1.0)
    assert np.max(np.abs(ab - ba)) <= 1e-12 * scale


def test_wedge_bracket_grid_mismatch(so5):
    a = random_form(unit_grid(8), so5.algebra, 0)
    b = random_form(unit_grid(10), so5.algebra, 0)
    with pytest.raises(forms.GridMismatch):
        forms.wedge_bracket(a, b)


# ----------------------------------------------------------- curvature residual

def test_curvature_flat_frame_converges(so5):
    # sampled logarithmic derivative of exp(u X) exp(v Y) is flat; the
    # discrete residual must vanish at order >= 2
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(10)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(10)
    eta /= np.linalg.norm(eta)
    rep = forms.ResidualReport("flatness")
    for n in (16, 32, 64):
        alpha = ellsys.exp_frame_form(unit_grid(n), so5, xi, eta)
        rep = rep.merged(forms.curvature_residual(alpha))
    assert rep.estimated_order >= 1.9
    assert rep.final_sup <= 1e-3


def test_curvature_constant_noncommuting(so5):
    g = unit_grid()
    X, Y = np.eye(10)[0], np.eye(10)[3]
    alpha = forms.constant_form(g, so5.algebra, X, Y)
    rep = forms.curvature_residual(alpha)
    oracle = np.linalg.norm(so5.algebra.bracket_coords(X, Y))
    assert abs(rep.final_sup - oracle) <= 1e-13
    assert oracle > 0.1


def test_curvature_zero_form(so5):
    g = unit_grid()
    zero = forms.constant_form(g, so5.algebra, np.zeros(10), np.zeros(10))
    assert forms.curvature_residual(zero).final_sup == 0.0


# -------------------------------------------------------------------- loop form

def exact_holomorphic_form(fx, grid, seed=0):
    """Random real form whose grade-1 part is of type (1, 0) exactly."""
    alpha = random_form(grid, fx.algebra, seed, real=True)
    parts = forms.grade_decompose(alpha, fx.aut)
    g1_10, _ = forms.type_decompose(parts[1])
    real_p = forms.LieValuedOneForm(grid, fx.algebra,
                                    2 * g1_10.a_u.real, 2 * g1_10.a_v.real)
    return parts[0] + parts[2] + real_p


def test_loop_form_grade0_invariant(se4):
    g = unit_grid()
    xi = se4.h_basis[1]
    alpha = forms.constant_form(g, se4.algebra, xi, -0.5 * xi)
    for lam in (1.0, -1.0, 2.0j, 0.3 - 0.4j):
        out = forms.loop_form(alpha, se4.aut, lam)
        assert np.max((out - alpha).pointwise_norm()) <= 1e-12


def test_loop_form_reconstructs_at_one(so5):
    g = unit_grid(8)
    alpha = exact_holomorphic_form(so5, g, seed=2)
    out = forms.loop_form(alpha, so5.aut, 1.0)
    assert np.max((out - alpha).pointwise_norm()) <= 1e-12


def test_loop_form_minus_one_flips_odd_grades(so5):
    g = unit_grid(8)
    alpha = exact_holomorphic_form(so5, g, seed=3)
    parts = forms.grade_decompose(alpha, so5.aut)
    flipped = parts[0] + parts[2] + (parts[1] + parts[-1]).scaled(-1.0)
    out = forms.loop_form(alpha, so5.aut, -1.0)
    assert np.max((out - flipped).pointwise_norm()) <= 1e-12


def test_loop_form_zero_lambda(so5):
    alpha = random_form(unit_grid(8), so5.algebra, 0)
    with pytest.raises(forms.ZeroLambda):
        forms.loop_form(alpha, so5.aut, 0.0)


def test_default_lambda_samples():
    samples = forms.default_lambda_samples()
    assert len(samples) == 24
    assert all(abs(s) in (0.5, 1.0, 2.0) for s in np.round(np.abs(samples), 12))


# ----------------------------------------------------------- zero curvature scan

def test_scan_zero_form(so5):
    g = unit_grid()
    zero = forms.constant_form(g, so5.algebra, np.zeros(10), np.zeros(10))
    assert forms.zero_curvature_scan(zero, so5.aut).final_sup == 0.0


def test_scan_flat_but_graded_violation(so5):
    # a flat logarithmic derivative with generators in k keeps the grade-1
    # equation vacuous, so the family reconstructs alpha at lambda = 1 (flat
    # up to stencil error) while the grade-2 equation fails: the scan at
    # lambda = i stays large
    kb = so5.split.k_basis
    xi = kb[0] + kb[3]
    eta = kb[1] + kb[4]
    xi = xi / np.linalg.norm(xi)
    eta = eta / np.linalg.norm(eta)
    P2 = so5.aut.projectors[2]
    assert min(np.linalg.norm(P2 @ xi), np.linalg.norm(P2 @ eta)) > 0.1
    alpha = ellsys.exp_frame_form(unit_grid(48), so5, xi, eta)
    assert ellsys.holomorphicity_residual(alpha, so5.aut).final_sup <= 1e-12
    assert ellsys.covariant_closure_residual(alpha, so5.aut).final_sup >= 1e-2
    at_one = forms.zero_curvature_scan(alpha, so5.aut, [1.0]).final_sup
    # on a flat form the real part of the grade-2 equation is half the
    # grade-2 curvature component, so real lambda^2 samples are blind to the
    # violation: the primitive 8th root probes the imaginary part
    at_8th = forms.zero_curvature_scan(alpha, so5.aut, [np.exp(0.25j * np.pi)]).final_sup
    default = forms.zero_curvature_scan(alpha, so5.aut).final_sup
    assert at_one <= 1e-3
    assert at_8th >= 1e-1
    assert default >= 1e-1


def test_scan_bounded_by_graded_residuals(so5):
    # with the holomorphicity equation exact, the scan over the default
    # samples and the two remaining residuals control each other (measured
    # ratios ~1.4 forward, ~0.8 converse; constants frozen with headroom)
    for seed in (0, 1, 2):
        g = unit_grid(16)
        alpha = exact_holomorphic_form(so5, g, seed=seed)
        scan = forms.zero_curvature_scan(alpha, so5.aut).final_sup
        r2b = ellsys.covariant_closure_residual(alpha, so5.aut).final_sup
        r2c = ellsys.flatness_residual(alpha).final_sup
        assert scan <= 12.0 * (r2b + r2c) + 10.0 * g.h ** 2
        assert r2b + r2c <= 4.0 * scan + 10.0 * g.h ** 2


def test_scan_empty_samples(so5):
    alpha = random_form(unit_grid(8), so5.algebra, 0)
    with pytest.raises(forms.ZeroLambda):
        forms.zero_curvature_scan(alpha, so5.aut, [])


# -------------------------------------------------------------- residual report

def test_report_order_requires_three_rungs():
    rep = forms.ResidualReport("x").add(0.1, 1e-2, 1e-2).add(0.05, 2.5e-3, 1e-3)
    assert rep.estimated_order is None


def test_report_order_measures_slope():
    rep = forms.ResidualReport("x")
    for h in (0.1, 0.05, 0.025):
        rep.add(h, 3.0 * h ** 2, h ** 2)
    assert abs(rep.estimated_order - 2.0) <= 1e-12


def test_report_merge_sorts_coarse_to_fine():
    a = forms.ResidualReport("x").add(0.05, 1.0, 1.0)
    b = forms.ResidualReport("x").add(0.1, 2.0, 2.0)
    merged = a.merged(b)
    assert [e.h for e in merged.entries] == [0.1, 0.05]
    with pytest.raises(ValueError):
        a.merged(forms.ResidualReport("y"))


def test_report_serialization():
    rep = forms.ResidualReport("flatness").add(0.1, 1e-2, 5e-3).add(0.05, 2.5e-3, 1e-3)
    d = rep.as_dict()
    assert d["name"] == "flatness" and len(d["entries"]) == 2
    assert d["estimated_order"] is None
