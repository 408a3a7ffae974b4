"""Grid forms: decompositions, stencils, curvature, the spectral family."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import cli, ellsys, forms, liealg
from twistorsys import immersion as im
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


# ----------------------------------------------------------------- form dtype

def test_form_components_keep_the_kind_of_their_data(so5):
    g = unit_grid(8)
    shape = (8, 8, so5.algebra.dim)
    ints = forms.LieValuedOneForm(g, so5.algebra, np.ones(shape, int), np.zeros(shape, int))
    assert ints.a_u.dtype == ints.a_v.dtype == np.float64
    assert forms.constant_form(g, so5.algebra, np.ones(10), np.zeros(10)).a_u.dtype == np.float64
    cplx = random_form(g, so5.algebra)
    assert cplx.a_u.dtype == cplx.a_v.dtype == np.complex128
    real = forms.LieValuedOneForm(g, so5.algebra,
                                  *np.random.default_rng(0).standard_normal((2,) + shape))
    assert real.a_u.dtype == real.a_v.dtype == np.float64
    for lam in (1.0, 0.5j):
        loop = forms.loop_form(real, so5.aut, lam)
        assert loop.a_u.dtype == loop.a_v.dtype == np.complex128


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


def test_grade_decompose_matches_einsum(so5, se4):
    # each grade comes from liealg.grade_project, the one P_k kernel: a @ P_k^T
    # bit for bit, and the einsum to roundoff
    for fx in (so5, se4):
        alpha = random_form(unit_grid(16), fx.algebra, seed=6)
        scale = max(np.max(np.abs(alpha.a_u)), np.max(np.abs(alpha.a_v)))
        for k, part in forms.grade_decompose(alpha, fx.aut).items():
            P = fx.aut.projectors[k]
            for new, a in ((part.a_u, alpha.a_u), (part.a_v, alpha.a_v)):
                assert np.array_equal(new, a @ P.T)
                assert np.max(np.abs(new - np.einsum("kd,uvd->uvk", P, a))) <= 1e-14 * scale


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


def test_same_dimension_algebras_do_not_mix(so5, se4):
    # se4_r4 and so5_s4 both have dimension 10
    grid = unit_grid(8)
    alpha = random_form(grid, so5.algebra, seed=1)
    beta = random_form(grid, se4.algebra, seed=2)
    assert se4.algebra.dim == so5.algebra.dim
    with pytest.raises(forms.AlgebraMismatch):
        alpha + beta
    with pytest.raises(forms.AlgebraMismatch):
        forms.wedge_bracket(alpha, beta)
    with pytest.raises(forms.AlgebraMismatch):
        forms.grade_decompose(alpha, se4.aut)


# ----------------------------------------------------------------- stencils

@pytest.mark.parametrize("n", [8, 9, 33])
@pytest.mark.parametrize("trailing", [(), (4,), (5, 5)])
@pytest.mark.parametrize("kind", [float, complex])
def test_centred_differences_match_roll_and_gradient_forms(n, trailing, kind):
    # periodic: bit-identical to the two-roll stencil, in the input's dtype and
    # C order, so batched `@` downstream never sees a strided view; open:
    # numpy's second-order one-sided edges
    rng = np.random.default_rng(n)
    f = rng.standard_normal((n, n + 1) + trailing)
    if kind is complex:
        f = f + 1j * rng.standard_normal(f.shape)
    for periodic in (True, False):
        g = forms.SurfaceGrid(nu=n, nv=n + 1, hu=0.3, hv=0.7,
                              periodic_u=periodic, periodic_v=periodic)
        for axis, partial, h in ((0, forms.partial_u, g.hu), (1, forms.partial_v, g.hv)):
            got = partial(g, f)
            if periodic:
                want = (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
            else:
                want = np.gradient(f, h, axis=axis, edge_order=2)
            assert np.array_equal(got, want)
            assert got.dtype == f.dtype and got.flags.c_contiguous


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_complex_centred_differences_its_parts_separately(periodic, axis):
    # a complex stencil is its two parts differenced separately, each difference
    # scaled by 1 / (2h), which is what numpy's complex division by the real 2h
    # computes (see the test above); the one-sided edges are the parts' own, and
    # axis -1 takes the flat-shift path
    rng = np.random.default_rng(3)
    f = rng.standard_normal((9, 11, 4)) + 1j * rng.standard_normal((9, 11, 4))
    h = 0.3
    got = forms._centred(f, h, axis, periodic)
    for part, x in ((got.real, f.real), (got.imag, f.imag)):
        want = np.moveaxis(forms._centred(x, h, axis, periodic), axis, 0).copy()
        g = np.moveaxis(x, axis, 0)
        want[1:-1] = (g[2:] - g[:-2]) * (1.0 / (2.0 * h))
        if periodic:
            want[0] = (g[1] - g[-1]) * (1.0 / (2.0 * h))
            want[-1] = (g[0] - g[-2]) * (1.0 / (2.0 * h))
        assert np.array_equal(np.moveaxis(part, axis, 0), want)


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
        rep = rep.merged(forms.masked_report("ddf", g.h, d.pointwise_norm(), g.interior_mask(1)))
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


def test_default_scan_is_the_sup_over_each_circle(so5):
    # on a drawn complex form <F_2, F_-2> is complex, so the sup over a circle sits
    # between samples: the circle sup is at least every sample of its circle and,
    # with 64 angles 4 theta is within pi/16 of the maximiser, at most about 1 % above
    alpha = random_form(unit_grid(10), so5.algebra, 3)
    rep = forms.zero_curvature_scan(alpha, so5.aut)
    keys = [f"circle_sup_{r:g}" for r in forms.CIRCLE_RADII]
    assert keys == ["circle_sup_0.5", "circle_sup_1", "circle_sup_2"]
    assert set(rep.meta) == set(keys) | {f"laurent_sup_{k}" for k in (2, 1, 0, -1, -2)}
    assert rep.final_sup == max(rep.meta[key] for key in keys)
    angles = np.exp(2j * np.pi * np.arange(64) / 64)
    for r, key in zip(forms.CIRCLE_RADII, keys):
        dense = forms.zero_curvature_scan(alpha, so5.aut, list(r * angles)).final_sup
        assert dense * (1 - 1e-12) <= rep.meta[key] <= 1.01 * dense, (r, rep.meta[key], dense)


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
        r2c = forms.curvature_residual(alpha).final_sup
        assert scan <= 12.0 * (r2b + r2c) + 10.0 * g.h ** 2
        assert r2b + r2c <= 4.0 * scan + 10.0 * g.h ** 2


def test_scan_empty_samples(so5):
    alpha = random_form(unit_grid(8), so5.algebra, 0)
    with pytest.raises(forms.ZeroLambda):
        forms.zero_curvature_scan(alpha, so5.aut, [])
    with pytest.raises(forms.ZeroLambda):
        forms.zero_curvature_scan(alpha, so5.aut, [1.0, 0.0])


def sampled_scan(alpha, aut, lams):
    """Oracle: the curvature of `loop_form` rebuilt at every sample."""
    entries = [forms.curvature_residual(forms.loop_form(alpha, aut, lam)).entries[0]
               for lam in lams]
    return max(e.sup for e in entries), max(e.l2 for e in entries)


# the scan's samples before it took the sup over each circle: the 8th roots of unity
# on the radii 1/2, 1 and 2
EIGHTH_ROOTS = [complex(r * w) for r in forms.CIRCLE_RADII
                for w in np.exp(2j * np.pi * np.arange(8) / 8.0)]


def assert_scan_matches_oracle(alpha, aut, lams):
    rep = forms.zero_curvature_scan(alpha, aut, lams)
    assert rep.meta["n_lambda"] == len(lams)
    got = (rep.entries[0].sup, rep.entries[0].l2)
    for value, oracle in zip(got, sampled_scan(alpha, aut, lams)):
        # relative above the roundoff floor, absolute at it
        assert abs(value - oracle) <= (1e-12 * oracle if oracle > 1e-10 else 1e-14), (value, oracle)
    return rep


def assert_circle_sup_bounds_samples(alpha, aut):
    """The default scan's sup and l2 are at least the 24 samples' (each pointwise
    circle value bounds every sample of its circle), up to roundoff; the sup equals
    theirs where <F_2, F_-2> is real, up to the same roundoff.  Returns both reports."""
    circle = forms.zero_curvature_scan(alpha, aut)
    samples = forms.zero_curvature_scan(alpha, aut, EIGHTH_ROOTS)
    e, s = circle.entries[0], samples.entries[0]
    for value, oracle in [(e.sup, s.sup), (e.l2, s.l2)]:
        assert value >= oracle - (1e-12 * oracle if oracle > 1e-10 else 1e-14), (value, oracle)
    F = forms.laurent_curvature(alpha, aut)
    c = np.sum(F[2].conj() * F[-2], axis=-1)[alpha.grid.interior_mask(2)]
    # real up to roundoff: the products of two coefficients at their 1e-10 floor are 1e-20
    if np.max(np.abs(c.imag)) <= 1e-12 * np.max(np.abs(c)) + 1e-20:
        assert _agrees(circle.final_sup, samples.final_sup), (circle.final_sup, samples.final_sup)
    return circle, samples


def adapted_frame_form(kind, n):
    fld = im.build_immersion(kind, {}, n=n)
    _, alpha = ellsys.frame_from_geometry(fld, im.twistor_lift(fld))
    return alpha, fld.space.algebra_fixture().aut


@pytest.mark.parametrize("kind", ["clifford_torus", "clifford_torus_s4"])
def test_scan_equals_sampled_oracle_on_clifford_tori(kind):
    alpha, aut = adapted_frame_form(kind, 32)
    assert assert_scan_matches_oracle(alpha, aut, EIGHTH_ROOTS).final_sup <= 1e-10
    assert assert_circle_sup_bounds_samples(alpha, aut)[0].final_sup <= 1e-10


@pytest.mark.parametrize("n", [24, 67])
def test_scan_equals_sampled_oracle_on_perturbed_torus(n):
    # a periodic non-solution, one tile at n = 24 and three at n = 67: the oracle's
    # `partial_u` wraps, so it checks the tiles' wrapped halo rows on a large scan
    alpha, aut = adapted_frame_form("perturbed_torus", n)
    assert alpha.grid.periodic_u
    assert assert_scan_matches_oracle(alpha, aut, EIGHTH_ROOTS).final_sup >= 1e-2


def exp_frame_alpha(so5, n, seed):
    rng = np.random.default_rng(seed)
    xi, eta = rng.standard_normal(10), rng.standard_normal(10)
    return ellsys.exp_frame_form(unit_grid(n), so5, xi / np.linalg.norm(xi),
                                 eta / np.linalg.norm(eta))


def test_scan_equals_sampled_oracle_on_exp_frame(so5):
    alpha = exp_frame_alpha(so5, 24, 4)
    assert_scan_matches_oracle(alpha, so5.aut, EIGHTH_ROOTS)
    # <F_2, F_-2> is complex here, and the circle sup lies above every sample
    circle, samples = assert_circle_sup_bounds_samples(alpha, so5.aut)
    assert circle.final_sup >= (1 + 1e-3) * samples.final_sup
    assert assert_scan_matches_oracle(alpha, so5.aut, [1j]).final_sup >= 1e-2


# every fixture the frame route takes (octonion fixtures have no frame algebra, and
# graph and branched_disk stop at their own geometry checks)
FRAME_FIXTURES = ["plane", "round_sphere", "clifford_torus", "clifford_torus_s4", "product_torus",
                  "perturbed_torus", "helicoid", "lagrangian_plane", "lagrangian_graph",
                  "complex_line"]


@pytest.mark.parametrize("kind", FRAME_FIXTURES + ["exp_frame"])
def test_circle_sup_bounds_the_samples_on_every_fixture(so5, kind):
    if kind == "exp_frame":
        alpha, aut = exp_frame_alpha(so5, 32, 1), so5.aut
    else:
        alpha, aut = adapted_frame_form(kind, 32)
    assert_circle_sup_bounds_samples(alpha, aut)


def graded_reports(alpha, aut, lams):
    reports = forms.graded_checks(alpha, aut, list(forms.GRADED_CHECKS), lams)
    return {name: (rep.entries[0].sup, rep.entries[0].l2, rep.meta)
            for name, rep in reports.items()}


def _nested_stencil(f, h, depth, periodic):
    for _ in range(depth):
        f = forms._centred(f, h, 0, periodic)
    return f


@given(st.one_of(st.integers(8, 200), st.sampled_from([33, 34, 65, 66, 97, 98, 129, 130, 193])),
       st.booleans(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tiles_keep_every_line_once_with_the_whole_axis_stencils(n, periodic, halo, seed):
    # each line is kept by exactly one tile, every tile reads at least the 8 lines
    # of a SurfaceGrid, and `halo` nested open stencils over a tile's lines give its
    # kept lines the whole axis's nested stencils, bit for bit
    f = np.random.default_rng(seed).standard_normal((n, 5))
    whole = _nested_stencil(f, 0.1, halo, periodic)
    kept = np.zeros(n, int)
    for lines, keep, dest in forms._tiles(n, periodic, halo):
        read = np.arange(n)[lines]
        assert len(read) >= 8 and (periodic or isinstance(lines, slice))
        assert np.array_equal(read[keep], np.arange(n)[dest])
        kept[dest] += 1
        tile = _nested_stencil(f[lines], 0.1, halo, False)
        assert np.array_equal(tile[keep].view(np.int64), whole[dest].view(np.int64))
    assert np.all(kept == 1)


@pytest.mark.parametrize("kind, n", [("clifford_torus", 33), ("clifford_torus", 100),
                                     ("clifford_torus_s4", 33), ("round_sphere", 33),
                                     ("round_sphere", 100), ("exp_frame", 33),
                                     ("exp_frame", 66), ("drawn", 45)])
@pytest.mark.parametrize("lams", [None, [1j, 0.5 + 0.3j]])
def test_tiled_pass_equals_one_tile(monkeypatch, so5, kind, n, lams):
    # every n here is taller than one tile, and the last tile is short: 1 row at
    # n = 33 and 66, 4 at 100, 13 at 45; clifford tori and the drawn complex form
    # on an n x 12 grid wrap in u, round_sphere and exp_frame have open edges.  The
    # tolerance is `_agrees`'s: 1e-12 relative above the 1e-10 roundoff floor,
    # 1e-14 absolute at it, where the complex products of different widths may
    # round differently (at n = 33 the l2 of roundoff-level values moves by at
    # most 2.1e-20)
    assert n > forms._TILE_ROWS and n % forms._TILE_ROWS
    if kind == "drawn":
        grid = forms.SurfaceGrid(nu=n, nv=12, hu=2 * np.pi / n, hv=0.1, periodic_u=True)
        alpha, aut = random_form(grid, so5.algebra, 5), so5.aut
    elif kind == "exp_frame":
        alpha, aut = exp_frame_alpha(so5, n, 2), so5.aut
    else:
        alpha, aut = adapted_frame_form(kind, n)
    assert alpha.grid.periodic_u == (kind in ("clifford_torus", "clifford_torus_s4", "drawn"))
    tiled = graded_reports(alpha, aut, lams)
    monkeypatch.setattr(forms, "_TILE_ROWS", n)
    whole = graded_reports(alpha, aut, lams)
    assert tiled.keys() == whole.keys() == set(forms.GRADED_CHECKS)
    for name, (sup, l2, meta) in tiled.items():
        assert meta.keys() == whole[name][2].keys()
        for value, ref in zip([sup, l2] + list(meta.values()),
                              list(whole[name][:2]) + list(whole[name][2].values())):
            assert _agrees(value, ref), (name, value, ref)


@given(st.integers(0, 2**32 - 1),
       st.lists(st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_scan_equals_sampled_oracle_on_drawn_forms(seed, lams):
    fx = load_algebra_fixture("so5_s4" if seed % 2 else "se4_r4")
    alpha = random_form(unit_grid(10), fx.algebra, seed)
    assert_scan_matches_oracle(alpha, fx.aut, lams)


@pytest.mark.parametrize("delta", [1e-6, 1e-10])
def test_scan_keeps_cancelling_g2_terms_exact(so5, delta):
    # alpha = u v2 (du + delta dv) with v2 in g_2 makes lam^2 F_2 and lam^-2 F_-2
    # nearly cancel at lam = 1, |F(1)| ~ delta |F_2|: the sampled g_2 sum keeps
    # that, a scalar-field form r^4 s_2 + r^-4 s_-2 + 2 Re(e^(4i theta) <F_2, F_-2>)
    # + ... cancels it away (relative error 1e-7 at delta = 1e-6; at 1e-10 it
    # reads roundoff below the exact floor for a residual of 3.6e-11)
    v2 = so5.aut.projectors[2].real @ np.random.default_rng(0).standard_normal(10)
    g = unit_grid(32)
    a_u = g.mesh()[0][..., None] * v2
    alpha = forms.LieValuedOneForm(g, so5.algebra, a_u, delta * a_u)
    rep = forms.zero_curvature_scan(alpha, so5.aut, [1.0])
    scale = max(rep.meta["laurent_sup_2"], rep.meta["laurent_sup_-2"])
    oracle = sampled_scan(alpha, so5.aut, [1.0])
    assert oracle[0] >= 0.1 * delta * scale
    for value, want in zip((rep.entries[0].sup, rep.entries[0].l2), oracle):
        assert abs(value - want) <= 1e-14 * scale, (value, want)


@pytest.mark.parametrize("source", ["clifford_torus", "drawn"])
def test_laurent_top_slot_is_covariant_closure(so5, source):
    if source == "drawn":
        alpha, aut = random_form(unit_grid(12), so5.algebra, 7), so5.aut
    else:
        alpha, aut = adapted_frame_form(source, 24)
    g = forms.grade_decompose(alpha, aut)
    a2_10, _ = forms.type_decompose(g[2])
    closure = (forms.exterior_derivative(a2_10).value
               + forms.wedge_bracket(g[0], a2_10).value)
    F2 = forms.laurent_curvature(alpha, aut)[2]
    assert np.max(np.abs(F2 - closure)) <= 1e-14 * max(1.0, np.max(np.abs(closure)))
    meta = forms.zero_curvature_scan(alpha, aut).meta
    assert meta["laurent_sup_2"] == ellsys.covariant_closure_residual(alpha, aut).final_sup


def test_graded_pass_brackets_single_coefficients(monkeypatch):
    # a (1,0) or (0,1) part is its one dz or dz-bar coefficient, so each wedge
    # of the Laurent pass is one block bracket of component-first (d_k, rows, nv)
    # operands; the periodic n = 16 grid is one tile of 16 + 2 wrapped halo rows
    alpha, aut = adapted_frame_form("clifford_torus", 16)
    calls = []

    def counted(self, j, k, x, y, _orig=liealg.GradedBasis.bracket):
        calls.append((j, k, x.shape, y.shape))
        return _orig(self, j, k, x, y)

    monkeypatch.setattr(liealg.GradedBasis, "bracket", counted)
    forms.laurent_curvature(alpha, aut)
    width = {k: len(range(aut.dim)[aut.graded.slices[k]]) for k in liealg.GRADES}
    assert len(calls) == 9 and len({(j, k) for j, k, _, _ in calls}) == 8
    assert all(xs == (width[j], 18, 16) and ys == (width[k], 18, 16) for j, k, xs, ys in calls)
    calls.clear()
    ellsys.covariant_closure_residual(alpha, aut)
    assert len(calls) == 1
    calls.clear()
    ellsys.holomorphicity_residual(alpha, aut)
    assert calls == []


def test_scan_rung_peak_memory():
    # the traced high-water mark of the loop-family scan on one n = 128
    # clifford_torus rung, in grid planes of 8 n^2 bytes (30.8 measured): the
    # pass runs over tiles of 32 + 2 halo rows, 0.27 of a plane per real
    # component, and peaks in the last tile's dz coefficients, which hold its
    # wrapped halo's gathered a_u and a_v (5.3 planes), u -+ i v (5.3) and the
    # 16 complex components of P_2, P_1, P_0, Q_2, Q_0, Q_-1 (8.5), beside the
    # six whole-grid planes s_2 ... s_-2 and 2|<F_2, F_-2>| that the reports read;
    # each call gets a fresh form, so nothing a first call leaves on it can hide
    # the pass's own memory
    n = 128
    forms.zero_curvature_scan(*adapted_frame_form("clifford_torus", n))   # first-call set-up
    alpha, aut = adapted_frame_form("clifford_torus", n)
    tracemalloc.start()
    try:
        forms.zero_curvature_scan(alpha, aut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) <= 32.0


FRAME_CHECKS = ["holomorphicity", "covariant_closure", "flatness", "zero_curvature_scan"]


@pytest.mark.parametrize("kind, space", [("clifford_torus", "euclidean4"),
                                         ("clifford_torus_s4", "sphere4")])
def test_frame_rung_peak_memory(kind, space):
    # one n = 128 rung of the frame checks in clifford_system order, in grid
    # planes of 8 n^2 bytes: the rung's pass builds alpha (20 planes) from an empty
    # context while one row tile's field (10.6 on the sphere), lift and frame
    # columns (7.0) exist at a time, and peaks as a tile's frame columns are formed
    # (36.8 and 39.1 measured; building alpha from a whole field and lift put 34.4
    # and 36.0 above the 36.2-plane field and lift); above alpha, the checks' one
    # graded pass peaks at 32.9 planes over its row tiles (see
    # test_scan_rung_peak_memory; its holomorphicity plane and Q_1 add to the
    # scan's), and flatness at 30.1
    n = 128
    scen = {"fixture": {"kind": kind}, "model_space": {"kind": space}, "checks": FRAME_CHECKS}
    warm = cli.RungContext(scen, 16)   # first-call set-up outside the trace
    for name in FRAME_CHECKS:
        cli.CHECKS[name][0](warm)
    tracemalloc.start()
    try:
        ctx = cli.RungContext(scen, n)
        ctx.alpha
        build, held = tracemalloc.get_traced_memory()[::-1]
        tracemalloc.reset_peak()
        for name in FRAME_CHECKS:
            cli.CHECKS[name][0](ctx)
        checks = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build / (8 * n * n) <= 42.0
    assert checks / (8 * n * n) <= 34.0


def test_frame_only_rung_peak_memory():
    # a whole frame-only clifford_torus_s4 rung at n = 128 from an empty context, in
    # grid planes of 8 n^2 bytes (52.9 measured): alpha (20) is built in one pass
    # over row tiles, each tile's field, lift and frame columns dropped before the
    # next tile is sampled, so the rung peaks in the graded pass above alpha; a
    # whole-grid field and lift held while alpha was built set a 72.2-plane peak,
    # and the whole 5x5 frame beside them 93.7
    n = 128
    scen = {"fixture": {"kind": "clifford_torus_s4"}, "model_space": {"kind": "sphere4"},
            "checks": FRAME_CHECKS}
    warm = cli.RungContext(scen, 16)   # first-call set-up outside the trace
    for name in FRAME_CHECKS:
        cli.CHECKS[name][0](warm)
    tracemalloc.start()
    try:
        ctx = cli.RungContext(scen, n)
        for name in FRAME_CHECKS:
            cli.CHECKS[name][0](ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) <= 60.8


def test_one_rung_forms_the_dz_coefficients_once(monkeypatch):
    # the rung asks for every graded check of its scenario at once, and
    # system_residuals for its two; holomorphicity alone reads Q_1 and no bracket
    calls, brackets = [], []

    def counted(u, v, gb, p_grades, q_grades, _orig=forms._dz_coefficients):
        P, Q = _orig(u, v, gb, p_grades, q_grades)
        calls.append((sorted(P), sorted(Q)))
        return P, Q

    def bracket(self, j, k, x, y, _orig=liealg.GradedBasis.bracket):
        brackets.append((j, k))
        return _orig(self, j, k, x, y)

    monkeypatch.setattr(forms, "_dz_coefficients", counted)
    monkeypatch.setattr(liealg.GradedBasis, "bracket", bracket)
    ctx = cli.RungContext({"fixture": {"kind": "clifford_torus"},
                           "model_space": {"kind": "euclidean4"}, "checks": FRAME_CHECKS}, 16)
    for name in FRAME_CHECKS:
        cli.CHECKS[name][0](ctx)
    assert calls == [([0, 1, 2], [-1, 0, 1, 2])] and len(brackets) == 9
    calls.clear()
    ellsys.system_residuals(ctx.alpha, ctx.aut)
    assert calls == [([2], [0, 1])]
    calls.clear()
    brackets.clear()
    ellsys.holomorphicity_residual(ctx.alpha, ctx.aut)
    assert calls == [([], [1])] and brackets == []


def test_scan_meta_names_the_failing_slot(so5):
    # the flat k-valued frame of test_scan_flat_but_graded_violation has no
    # grade +-1 part, so only the even slots can carry the violation
    kb = so5.split.k_basis
    xi, eta = kb[0] + kb[3], kb[1] + kb[4]
    alpha = ellsys.exp_frame_form(unit_grid(24), so5, xi / np.linalg.norm(xi),
                                  eta / np.linalg.norm(eta))
    meta = forms.zero_curvature_scan(alpha, so5.aut).meta
    assert sorted(meta) == sorted([f"circle_sup_{r:g}" for r in forms.CIRCLE_RADII]
                                  + [f"laurent_sup_{k}" for k in (2, 1, 0, -1, -2)])
    assert meta["laurent_sup_1"] <= 1e-14 and meta["laurent_sup_-1"] <= 1e-14
    assert min(meta["laurent_sup_2"], meta["laurent_sup_-2"]) >= 1e-2


def test_empty_grade_zero_width_slices():
    # su2_order4 has g_2 = 0: the g_2 block has width 0, so covariant closure
    # and the lam^+-2 slots are exactly zero
    su2 = load_algebra_fixture("su2_order4")
    alpha = random_form(unit_grid(12), su2.algebra, 5)
    assert su2.aut.graded.rows[su2.aut.graded.slices[2]].shape == (0, 3)
    assert ellsys.covariant_closure_residual(alpha, su2.aut).final_sup == 0.0
    F = forms.laurent_curvature(alpha, su2.aut)
    assert all(Fk.shape == (12, 12, 3) for Fk in F.values())
    assert not F[2].any() and not F[-2].any()
    meta = forms.zero_curvature_scan(alpha, su2.aut).meta
    assert meta["laurent_sup_2"] == meta["laurent_sup_-2"] == 0.0


def full_coordinate_residuals(alpha, aut, lams):
    """Oracle: holomorphicity, covariant closure and the scan in the original
    coordinates, from grade_decompose, type_decompose and wedge_bracket."""
    grid = alpha.grid
    g = forms.grade_decompose(alpha, aut)
    holo = forms.masked_report("h", grid.h, forms.type_decompose(g[1])[1].pointwise_norm(),
                                grid.interior_mask(1))
    A, E = forms.type_decompose(g[2])
    B = forms.type_decompose(g[1])[0]
    D = forms.type_decompose(g[-1])[1]
    C = g[0]

    def d(a):
        return forms.exterior_derivative(a).value

    def w(a, b):
        return forms.wedge_bracket(a, b).value

    F = {2: d(A) + w(C, A), 1: d(B) + w(A, D) + w(B, C),
         0: d(C) + w(A, E) + w(B, D) + 0.5 * w(C, C),
         -1: d(D) + w(B, E) + w(C, D), -2: d(E) + w(C, E)}

    def report(value):
        return forms.masked_report(
            "s", grid.h, forms.LieValuedTwoForm(grid, alpha.algebra, value).pointwise_norm(),
            grid.interior_mask(2))

    samples = [report(sum(lam ** k * Fk for k, Fk in F.items())).entries[0] for lam in lams]
    scan = (max(e.sup for e in samples), max(e.l2 for e in samples))
    closure = report(F[2]).entries[0]
    return {"holomorphicity": (holo.entries[0].sup, holo.entries[0].l2),
            "covariant_closure": (closure.sup, closure.l2), "scan": scan,
            "laurent_sup": {k: report(Fk).final_sup for k, Fk in F.items()}}


def _agrees(value, oracle):
    # relative above the roundoff floor, absolute at it
    return abs(value - oracle) <= (1e-12 * oracle if oracle > 1e-10 else 1e-14)


@given(st.sampled_from(["so5_s4", "se4_r4", "su2_order4"]), st.integers(0, 2**32 - 1),
       st.booleans(),
       st.lists(st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_graded_residuals_equal_full_coordinate_oracle(name, seed, holomorphic, lams):
    fx = load_algebra_fixture(name)
    grid = unit_grid(10)
    # a holomorphic form puts the holomorphicity residual at the roundoff floor
    alpha = exact_holomorphic_form(fx, grid, seed) if holomorphic \
        else random_form(grid, fx.algebra, seed)
    oracle = full_coordinate_residuals(alpha, fx.aut, lams)
    got = {"holomorphicity": ellsys.holomorphicity_residual(alpha, fx.aut),
           "covariant_closure": ellsys.covariant_closure_residual(alpha, fx.aut),
           "scan": forms.zero_curvature_scan(alpha, fx.aut, lams)}
    for key, rep in got.items():
        for value, ref in zip((rep.entries[0].sup, rep.entries[0].l2), oracle[key]):
            assert _agrees(value, ref), (key, value, ref)
    for k, ref in oracle["laurent_sup"].items():
        assert _agrees(got["scan"].meta[f"laurent_sup_{k}"], ref), (k, ref)


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
