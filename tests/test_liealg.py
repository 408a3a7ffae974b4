"""Algebraic layer: brackets, Killing form, gradings, characterisations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import liealg
from twistorsys.fixtures import load_algebra_fixture

TOL = 1e-10


def _E(i, j, n):
    M = np.zeros((n, n))
    M[i, j] = 1.0
    return M


def _skew(i, j, n):
    return _E(i, j, n) - _E(j, i, n)


@pytest.fixture(scope="module")
def su2():
    return load_algebra_fixture("su2_order4")


@pytest.fixture(scope="module")
def so5():
    return load_algebra_fixture("so5_s4")


@pytest.fixture(scope="module")
def se4():
    return load_algebra_fixture("se4_r4")


# ---------------------------------------------------------------- build_algebra

def test_su2_killing_negative_definite(su2):
    # brute-force oracle: trace(ad b_i ad b_j) over the normalised basis
    a = su2.algebra
    assert a.dim == 3
    d = a.dim
    oracle = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            oracle[i, j] = np.trace(a.ad(np.eye(d)[i]) @ a.ad(np.eye(d)[j]))
    assert np.allclose(a.killing, oracle, atol=TOL)
    assert np.allclose(a.killing, -2.0 * np.eye(3), atol=TOL)
    assert np.all(np.linalg.eigvalsh(a.killing) < 0)


def test_so5_closed_with_bracket_table(so5):
    a = so5.algebra
    assert a.dim == 10
    # oracle: brute-force bracket table against structure constants
    for i in range(a.dim):
        for j in range(a.dim):
            B = a.basis[i] @ a.basis[j] - a.basis[j] @ a.basis[i]
            c = a.bracket_coords(np.eye(a.dim)[i], np.eye(a.dim)[j])
            assert np.linalg.norm(B - a.matrix(c)) <= TOL


def test_abelian_one_dim():
    a = liealg.build_algebra([_E(0, 1, 2)])
    assert a.dim == 1
    assert np.allclose(a.killing, 0.0)


def test_not_closed_rejected():
    # span{E12, E21} in gl(2) brackets to the diagonal, which is outside
    with pytest.raises(liealg.NotClosed):
        liealg.build_algebra([_E(0, 1, 2), _E(1, 0, 2)])


def test_dependent_basis_rejected():
    with pytest.raises(liealg.DependentBasis):
        liealg.build_algebra([_skew(0, 1, 3), 2.0 * _skew(0, 1, 3)])


def test_jacobi_identity(so5, su2, se4):
    for fx in (so5, su2, se4):
        a = fx.algebra
        eye = np.eye(a.dim)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, a.dim, size=(40, 3))
        for i, j, k in idx:
            x, y, z = eye[i], eye[j], eye[k]
            s = (a.bracket_coords(x, a.bracket_coords(y, z))
                 + a.bracket_coords(y, a.bracket_coords(z, x))
                 + a.bracket_coords(z, a.bracket_coords(x, y)))
            assert np.max(np.abs(s)) <= TOL


# ------------------------------------------------- automorphisms and projectors

def test_su2_grading_dimensions(su2):
    # oracle: ranks of the averaging projectors (idempotents, trace = rank)
    dims = {k: int(round(np.trace(su2.aut.projectors[k]).real)) for k in liealg.GRADES}
    assert dims == {0: 1, 1: 1, 2: 0, -1: 1}


def test_so5_tau_squared_is_sphere_involution(so5):
    # oracle: direct matrix arithmetic, Ad(diag(-I4, 1))
    a = so5.algebra
    S = np.diag([-1.0, -1, -1, -1, 1])
    sigma_oracle = a.coords(S[None] @ a.basis @ np.linalg.inv(S)[None]).T
    assert np.allclose(so5.aut.tau @ so5.aut.tau, sigma_oracle, atol=TOL)


def test_identity_automorphism(so5):
    aut = liealg.automorphism_from_group_element(so5.algebra, np.eye(5))
    assert np.allclose(aut.tau, np.eye(10), atol=TOL)
    assert np.allclose(aut.projectors[0], np.eye(10), atol=TOL)
    for k in (1, 2, -1):
        assert np.max(np.abs(aut.projectors[k])) <= TOL


def test_projector_algebra(so5, su2, se4):
    for fx in (so5, su2, se4):
        aut, d = fx.aut, fx.algebra.dim
        P = aut.projectors
        total = sum(P[k] for k in liealg.GRADES)
        assert np.max(np.abs(total - np.eye(d))) <= TOL
        for k in liealg.GRADES:
            assert np.max(np.abs(P[k] @ P[k] - P[k])) <= TOL
            assert np.max(np.abs(aut.tau @ P[k] - (1j) ** k * P[k])) <= TOL
            for m in liealg.GRADES:
                if m != k:
                    assert np.max(np.abs(P[k] @ P[m])) <= TOL


def test_bracket_grading(so5, su2, se4):
    for fx in (so5, su2, se4):
        a, P = fx.algebra, fx.aut.projectors
        eye = np.eye(a.dim)
        for ga in liealg.GRADES:
            for gb in liealg.GRADES:
                gc = ((ga + gb + 1) % 4) - 1  # representative in {-1,0,1,2}
                for i in range(a.dim):
                    for j in range(a.dim):
                        br = a.bracket_coords(P[ga] @ eye[i], P[gb] @ eye[j])
                        assert np.max(np.abs(P[gc] @ br - br)) <= TOL


def test_tau_preserves_brackets(so5, se4):
    for fx in (so5, se4):
        a, tau = fx.algebra, fx.aut.tau
        eye = np.eye(a.dim)
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = tau @ a.bracket_coords(eye[i], eye[j])
                rhs = a.bracket_coords(tau @ eye[i], tau @ eye[j])
                assert np.max(np.abs(lhs - rhs)) <= TOL


def test_reality_conjugation_swaps_grades(so5):
    P = so5.aut.projectors
    assert np.max(np.abs(np.conj(P[1]) - P[-1])) <= TOL
    assert np.max(np.abs(np.conj(P[0]) - P[0])) <= TOL
    assert np.max(np.abs(np.conj(P[2]) - P[2])) <= TOL


def test_not_order_four(so5):
    J = np.eye(5)
    J[0, 0] = 2.0
    J[1, 1] = 0.5  # Ad(J) preserves so(5)? it does not stay skew; expect failure
    with pytest.raises((liealg.DoesNotPreserveAlgebra, liealg.NotOrderFour)):
        liealg.automorphism_from_group_element(so5.algebra, J)
    # a genuine algebra automorphism of order 3 must be rejected as order-4
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    R3 = np.eye(5)
    R3[0:2, 0:2] = [[c, -s], [s, c]]
    with pytest.raises(liealg.NotOrderFour):
        liealg.automorphism_from_group_element(so5.algebra, R3)


# ----------------------------------------------------------------- grade_project

def test_grade_project_eigenvector(su2):
    aut = su2.aut
    rng = np.random.default_rng(1)
    xi = aut.projectors[1] @ rng.standard_normal(3)
    assert np.max(np.abs(liealg.grade_project(aut, xi, 1) - xi)) <= 1e-12
    for k in (0, 2, -1):
        assert np.max(np.abs(liealg.grade_project(aut, xi, k))) <= 1e-12


def test_grade_project_bad_grade(su2):
    with pytest.raises(liealg.BadGrade):
        liealg.grade_project(su2.aut, np.zeros(3), 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_grade_reconstruction_and_g2_vanishes(seed):
    fx = load_algebra_fixture("su2_order4")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    parts = [liealg.grade_project(fx.aut, xi, k) for k in liealg.GRADES]
    assert np.max(np.abs(sum(parts) - xi)) <= 1e-12
    assert np.max(np.abs(liealg.grade_project(fx.aut, xi, 2))) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugation_swaps_p1_into_pm1(seed):
    fx = load_algebra_fixture("so5_s4")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(10)  # real vector
    lhs = np.conj(liealg.grade_project(fx.aut, xi, 1))
    rhs = liealg.grade_project(fx.aut, xi, -1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# -------------------------------------------------------------- symmetric split

def test_split_dimensions(so5, su2):
    assert (so5.split.dim_k, so5.split.dim_p) == (6, 4)
    assert (su2.split.dim_k, su2.split.dim_p) == (1, 2)


def test_split_bracket_relations(so5):
    a, sp = so5.algebra, so5.split
    Pk = sp.k_basis.T @ sp.k_basis
    Pp = sp.p_basis.T @ sp.p_basis
    for xb, yb, target in [(sp.k_basis, sp.k_basis, Pk),
                           (sp.k_basis, sp.p_basis, Pp),
                           (sp.p_basis, sp.p_basis, Pk)]:
        for x in xb:
            for y in yb:
                br = a.bracket_coords(x, y)
                assert np.max(np.abs(target @ br - br)) <= TOL


def test_order_two_degenerate_split_rejected(so5):
    S = np.diag([-1.0, -1, -1, -1, 1])  # involution only: p of tau^2 = 1 is empty
    aut = liealg.automorphism_from_group_element(so5.algebra, S)
    with pytest.raises(liealg.EffectivityFailure):
        liealg.symmetric_split(aut)


def test_tau_p_is_orthogonal_complex_structure(so5, su2, se4):
    # inner product fixed as -trace(XY); in the orthonormal p-basis tau|p
    # must be orthogonal with square -1
    for fx in (so5, su2, se4):
        tp = fx.aut.tau_p(fx.split)
        dp = tp.shape[0]
        assert np.max(np.abs(tp @ tp + np.eye(dp))) <= TOL
        assert np.max(np.abs(tp.T @ tp - np.eye(dp))) <= TOL


# ------------------------------------------------------------ characterisations

def test_g0_g2_characterizations(so5, su2):
    for fx in (so5, su2):
        r0 = liealg.check_g0_characterization(fx.split, fx.aut)
        r2 = liealg.check_g2_characterization(fx.split, fx.aut)
        assert r0.residual <= TOL and r0.converse_ok
        assert r2.residual <= TOL and r2.converse_ok
        assert r0.kernel_dim == r0.eigenspace_dim
        assert r2.kernel_dim == r2.eigenspace_dim


def test_g2_empty_for_su2(su2):
    r2 = liealg.check_g2_characterization(su2.split, su2.aut)
    assert r2.eigenspace_dim == 0 and r2.residual == 0.0


def test_perturbed_tau_breaks_characterization(so5):
    a, sp = so5.algebra, so5.split
    # rotate tau by 1e-3 inside p; the commutator residual must jump
    K = np.zeros((10, 10))
    v1, v2 = sp.p_basis[0], sp.p_basis[1]
    K += np.outer(v1, v2) - np.outer(v2, v1)
    tau_pert = liealg.matrix_exp(1e-3 * K) @ so5.aut.tau
    aut_pert = liealg.GradedAutomorphism(algebra=a, tau=tau_pert,
                                         projectors=so5.aut.projectors)
    r0 = liealg.check_g0_characterization(sp, aut_pert)
    assert r0.residual > 1e-4


def test_g0_element_fails_anticommutator(so5):
    # an element of g_0 acting non-trivially on p cannot anticommute with tau|p
    a, sp, aut = so5.algebra, so5.split, so5.aut
    h = liealg.stabilizer_subalgebra(sp, aut)
    xi = h[0]
    Bp, tau_p = sp.p_basis, aut.tau_p(sp)
    A = Bp @ a.ad(xi) @ Bp.T
    anti = A @ tau_p + tau_p @ A
    assert np.linalg.norm(anti) > 1e-4


# ------------------------------------------------------------------- stabiliser

def test_stabilizer_dimensions_and_closure(so5, su2, se4):
    # oracle for so5: fixed points of Ad(J) on so(4) = the block-J centraliser,
    # a 4-dimensional unitary subalgebra; confirmed by commutation with tau
    for fx, dh in ((so5, 4), (su2, 1), (se4, 4)):
        h = fx.h_basis
        assert h.shape[0] == dh
        span = h.T @ h
        for x in h:
            assert np.max(np.abs(fx.aut.tau @ x - x)) <= TOL
            for y in h:
                br = fx.algebra.bracket_coords(x, y)
                assert np.max(np.abs(span @ br - br)) <= TOL


def test_fixture_loadable_from_path(tmp_path):
    import json
    from twistorsys import fixtures
    data = fixtures.fixture_data("su2_order4")
    data["name"] = "copy"
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(data))
    fx = fixtures.load_algebra_fixture(str(path))
    assert fx.algebra.dim == 3
    with pytest.raises(KeyError):
        fixtures.fixture_data("nonexistent")


def test_stabilizer_identity_tau(so5):
    aut = liealg.automorphism_from_group_element(so5.algebra, np.eye(5))
    h = liealg.stabilizer_subalgebra(None, aut)
    assert h.shape[0] == so5.algebra.dim


# ------------------------------------------------------------------- matrix_exp

def test_matrix_exp_zero_exact():
    assert np.array_equal(liealg.matrix_exp(np.zeros((3, 3))), np.eye(3))
    for zeros in (np.zeros((4, 3, 3)), -np.zeros((2, 2, 5, 5))):
        assert np.array_equal(liealg.matrix_exp(zeros),
                              np.broadcast_to(np.eye(zeros.shape[-1]), zeros.shape))


def test_matrix_exp_stack_equals_loop():
    # generic, zero, diagonal and nilpotent slices take different scipy paths
    rng = np.random.default_rng(5)
    scales = np.array([0.01, 0.3, 1.0, 4.0, 1.0, 1.0])
    stack = rng.standard_normal((6, 5, 5)) * scales[:, None, None]
    stack[4] = 0.0
    stack[5] = np.diag(rng.standard_normal(5))
    stack = np.concatenate([stack, np.triu(rng.standard_normal((1, 5, 5)), 1)])
    batched = liealg.matrix_exp(stack)
    assert np.array_equal(batched, np.stack([liealg.matrix_exp(X) for X in stack]))
    assert np.array_equal(liealg.matrix_exp(stack.reshape(7, 1, 5, 5)), batched[:, None])


def test_matrix_exp_rotation():
    X = (np.pi / 2) * np.array([[0.0, -1.0], [1.0, 0.0]])
    R = liealg.matrix_exp(X)
    assert np.max(np.abs(R - np.array([[0.0, -1.0], [1.0, 0.0]]))) <= 1e-12


def test_matrix_exp_nilpotent_polynomial():
    N = np.array([[0.0, 2.0, 3.0], [0, 0, 5.0], [0, 0, 0]])
    oracle = np.eye(3) + N + N @ N / 2.0  # finite series, N^3 = 0
    assert np.max(np.abs(liealg.matrix_exp(N) - oracle)) <= 1e-12


def test_matrix_exp_nonfinite():
    with pytest.raises(liealg.NonFinite):
        liealg.matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = np.nan
    with pytest.raises(liealg.NonFinite):
        liealg.matrix_exp(stack)
