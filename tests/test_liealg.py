"""Algebraic layer: brackets, Killing form, gradings, characterisations."""
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import liealg, octo
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


@pytest.mark.parametrize("name", ["se4_r4", "so5_s4", "su2_order4"])
def test_structure_equals_per_pair_loop(name):
    # oracle: one least-squares expansion of [b_i, b_j] per pair i < j, bit for
    # bit, and trace(ad b_i ad b_j) per pair of basis elements
    a = load_algebra_fixture(name).algebra
    d = a.dim
    structure = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            B = a.basis[i] @ a.basis[j] - a.basis[j] @ a.basis[i]
            structure[i, j] = a.pinv @ B.reshape(-1)
            structure[j, i] = -structure[i, j]
    assert np.array_equal(a.structure, structure)
    ads = structure.transpose(0, 2, 1)
    killing = np.array([[np.trace(ads[i] @ ads[j]) for j in range(d)] for i in range(d)])
    assert np.max(np.abs(a.killing - 0.5 * (killing + killing.T))) <= 1e-14


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


@pytest.mark.parametrize("table", ["se4_r4", "so5_s4", "su2_order4", "octonion", "graded"])
def test_sparse_bracket_kernel_equals_einsum(table):
    # oracle: the dense three-operand einsum the kernel replaces, bit for bit,
    # wherever an operand is real, for operands with 0 to 3 leading axes, some
    # of them broadcast, through every door of the one kernel: `_sparse_product`
    # itself on component-first views, its one grid-last door `bracket_coords`,
    # `octo.multiply` on component-first octonions (real), and
    # `GradedBasis.bracket` (the graded block tables of every fixture, complex).
    # Where both operands are complex the kernel forms each product with numpy's
    # complex multiply, which rounds differently from einsum's parts formula;
    # the oracle is then a dense reference in that arithmetic,
    # ref[k] += (x[i] y[j]) T[i, j, k] over the nonzeros in C order, bit for
    # bit, and that reference is within 2 (n_k + 4) 2^-53 sum |T||x||y| of the
    # einsum: each side is within (n_k + 4) 2^-53 of the exact sum of its n_k
    # terms (n_k - 1 additions, and a complex product and its scaling by T at
    # most sqrt(5) 2^-53 each)
    if table == "octonion":
        cases = [(octo.OCTONION_TABLE, liealg._nonzero_terms(octo.OCTONION_TABLE), None)]
    elif table == "graded":
        cases = [(T, terms, functools.partial(gb.bracket, j, k))
                 for gb in (load_algebra_fixture(name).aut.graded for name in sorted(GRADE_DIMS))
                 for (j, k), (T, terms) in gb.blocks.items()]
    else:
        alg = load_algebra_fixture(table).algebra
        cases = [(alg.structure, liealg._nonzero_terms(alg.structure), None)]
    rng = np.random.default_rng(11)
    shapes = [((), ()), ((5,), (5,)), ((7, 6), (7, 6)), ((3, 4, 5), (3, 4, 5)),
              ((4, 1), (1, 6)), ((), (3, 5)), ((2, 3, 1), (4,))]
    for T, terms, graded_bracket in cases:
        assert sum(len(row) for row in terms.values()) == np.count_nonzero(T)
        n_terms = np.count_nonzero(T, axis=(0, 1))
        for xs, ys in shapes:
            for cx, cy in ((False, False), (True, True), (False, True), (True, False)):
                x = (rng.standard_normal(xs + T.shape[:1])
                     + (1j * rng.standard_normal(xs + T.shape[:1]) if cx else 0))
                y = (rng.standard_normal(ys + T.shape[1:2])
                     + (1j * rng.standard_normal(ys + T.shape[1:2]) if cy else 0))
                oracle = np.einsum("...i,...j,ijk->...k", x, y, T)
                if cx and cy:
                    xf, yf = (np.moveaxis(a, -1, 0) for a in (x, y))
                    ref = np.zeros(oracle.shape[-1:] + oracle.shape[:-1], complex)
                    for i, j, k in zip(*np.nonzero(T)):
                        ref[k] += (xf[i] * yf[j]) * T[i, j, k]
                    ref = np.moveaxis(ref, 0, -1)
                    scale = np.einsum("...i,...j,ijk->...k", abs(x), abs(y), abs(T))
                    assert np.all(abs(ref - oracle) <= 2 * (n_terms + 4) * 2.0 ** -53 * scale)
                    oracle = ref
                if table in GRADE_DIMS:
                    out = alg.bracket_coords(x, y)
                    assert out.dtype == oracle.dtype and out.shape == oracle.shape
                    assert np.array_equal(out, oracle), (xs, ys, cx, cy)
                # the component-first doors, on views with the last axis moved first
                xf, yf = (np.moveaxis(np.asarray(a, oracle.dtype), -1, 0) for a in (x, y))
                kernel = np.zeros(oracle.shape[-1:] + oracle.shape[:-1], oracle.dtype)
                liealg._sparse_product(terms, xf, yf, kernel)
                first = [kernel] + ([graded_bracket(xf, yf)] if graded_bracket else [])
                if table == "octonion" and not (cx or cy):
                    first.append(octo.multiply(xf, yf))
                for out in first:
                    assert out.dtype == oracle.dtype and out.shape == kernel.shape
                    assert np.array_equal(np.moveaxis(out, 0, -1), oracle), (xs, ys, cx, cy)
    if table == "octonion":
        x, y = rng.standard_normal((8, 2, 9)), rng.standard_normal((8, 9))
        assert np.array_equal(octo.multiply(x, y), np.einsum("i...,j...,ijk->k...", x, y, T))


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


# ------------------------------------------------------------ graded basis

GRADE_DIMS = {"so5_s4": (4, 2, 2, 2), "se4_r4": (4, 2, 2, 2), "su2_order4": (1, 1, 0, 1)}
# the blocks that the wedges of forms.laurent_curvature bracket
LAURENT_BLOCKS = {(0, 2), (2, -1), (1, 0), (2, 2), (1, 2), (0, -1), (1, -1), (0, 0)}


def _graded_structure(fx):
    """Oracle: all structure constants in the graded basis, from the dense table."""
    Q = fx.aut.graded.rows
    return np.einsum("ai,bj,ijk,ck->abc", Q, Q, fx.algebra.structure, Q.conj())


@pytest.mark.parametrize("name", sorted(GRADE_DIMS))
def test_graded_basis_unitary_and_fixed_by_its_projectors(name):
    aut = load_algebra_fixture(name).aut
    gb = aut.graded
    Q = gb.rows
    assert np.max(np.abs(Q @ Q.conj().T - np.eye(aut.dim))) <= 1e-14
    assert tuple(Q[gb.slices[k]].shape[0] for k in liealg.GRADES) == GRADE_DIMS[name]
    for k in liealg.GRADES:
        rows = Q[gb.slices[k]]
        assert np.max(np.abs(rows @ aut.projectors[k].T - rows), initial=0.0) <= 1e-14
    assert aut.graded is gb   # built once


@pytest.mark.parametrize("name", sorted(GRADE_DIMS))
def test_graded_structure_blocks_hold_all_the_structure(name):
    # mass outside [g_j, g_k] -> g_(j+k), and every entry dropped as zero,
    # is roundoff against the dense oracle
    fx = load_algebra_fixture(name)
    gb = fx.aut.graded
    T = _graded_structure(fx)
    kept = np.zeros_like(T)
    for (j, k), (table, terms) in gb.blocks.items():
        block = np.zeros_like(table)
        for out, row in terms.items():
            for a, b, c in row:
                block[a, b, out] = c
        assert np.array_equal(block, table)
        kept[gb.slices[j], gb.slices[k], gb.slices[liealg._grade_sum(j, k)]] = block
    assert np.max(np.abs(T - kept)) <= 1e-14 * np.max(np.abs(T))
    n_terms = sum(len(row) for jk in LAURENT_BLOCKS for row in gb.blocks[jk][1].values())
    assert n_terms <= 50   # against 9 x 60 (so5_s4) and 9 x 52 (se4_r4) in full coordinates


@given(st.sampled_from(sorted(GRADE_DIMS)), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_graded_bracket_equals_bracket_coords(name, seed):
    # graded coordinates are component first: (d, nu, nv) over a 5 x 3 grid
    fx = load_algebra_fixture(name)
    gb, d = fx.aut.graded, fx.algebra.dim
    rng = np.random.default_rng(seed)
    xi, eta = rng.standard_normal((2, 5, 3, d)) + 1j * rng.standard_normal((2, 5, 3, d))
    x, y = (np.moveaxis(v @ gb.rows.conj().T, -1, 0) for v in (xi, eta))
    back = sum(gb.vector(gb.bracket(j, k, x[gb.slices[j]], y[gb.slices[k]]), liealg._grade_sum(j, k))
               for j in liealg.GRADES for k in liealg.GRADES)
    scale = np.linalg.norm(xi, axis=-1) * np.linalg.norm(eta, axis=-1)
    err = np.linalg.norm(back - fx.algebra.bracket_coords(xi, eta), axis=-1)
    assert np.all(err <= 1e-14 * scale)


# -------------------------------------------------------------- symmetric split

def test_split_dimensions(so5, su2):
    assert (so5.split.k_basis.shape[0], so5.split.p_basis.shape[0]) == (6, 4)
    assert (su2.split.k_basis.shape[0], su2.split.p_basis.shape[0]) == (1, 2)


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


def _loop_characterization(split, aut, grade, sign):
    """The characterisation as it was built before the batched ad(b_i): one
    `ad` of each unit vector and tau|p formed inline."""
    algebra, Bp = split.algebra, split.p_basis
    d = algebra.dim
    incl_p = Bp.T
    tau_p = Bp @ aut.tau @ Bp.T
    maps = []
    for i in range(d):
        ad_i = algebra.ad(np.eye(d)[i])
        M = ad_i @ incl_p @ tau_p + sign * aut.tau @ ad_i @ incl_p
        maps.append(M.reshape(-1))
    L = np.stack(maps, axis=1).astype(complex)
    P = aut.projectors[grade]
    basis_g = liealg._complex_image(P)
    forward = float(np.max(np.abs(L @ basis_g.T))) if basis_g.shape[0] else 0.0
    U, s, Vt = np.linalg.svd(L)
    null_dim = int(np.sum(s <= 1e-8 * max(s[0], 1.0)))
    converse_ok = null_dim == basis_g.shape[0]
    if converse_ok and null_dim:
        null = Vt.conj()[L.shape[1] - null_dim:]
        converse_ok = bool(np.max(np.abs(null @ P.T - null)) <= 1e-8)
    return liealg.CharacterizationResult(forward, converse_ok, null_dim, basis_g.shape[0])


def test_characterizations_equal_per_vector_loop(so5, su2, se4):
    # bit for bit, on the three fixtures and on a tau rotated inside p
    K = np.outer(so5.split.p_basis[0], so5.split.p_basis[1])
    tau_pert = liealg.matrix_exp(1e-3 * (K - K.T)) @ so5.aut.tau
    pert = liealg.GradedAutomorphism(algebra=so5.algebra, tau=tau_pert,
                                     projectors=so5.aut.projectors)
    cases = [(fx.split, fx.aut) for fx in (so5, su2, se4)] + [(so5.split, pert)]
    for split, aut in cases:
        assert liealg.check_g0_characterization(split, aut) == \
            _loop_characterization(split, aut, 0, -1.0)
        assert liealg.check_g2_characterization(split, aut) == \
            _loop_characterization(split, aut, 2, +1.0)


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


def test_group_kind_read_from_basis(tmp_path):
    import json
    from twistorsys import fixtures
    assert [n for n in fixtures.ALGEBRA_FIXTURES if load_algebra_fixture(n).affine] == ["se4_r4"]
    data = fixtures.fixture_data("su2_order4")
    n = data["ambient_dim"]
    basis = np.array(data["basis"], dtype=float).reshape(-1, n, n)
    basis[0] += np.eye(n)  # neither skew nor with a zero last row
    data.update(name="unskewed", basis=basis.tolist())
    path = tmp_path / "unskewed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        fixtures.load_algebra_fixture(str(path))


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
    # generic, zero, diagonal and nilpotent slices fall in different degree bands
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


def _exp_bands(edges, scalings):
    """(lo, hi] 1-norm bands: one below each degree threshold in `edges`, then
    the scaled band above the last split by its scaling s = 1 ... scalings."""
    edges = [0.0, *edges]
    edges += [edges[-1] * 2.0 ** s for s in range(1, scalings + 1)]
    return list(zip(edges[:-1], edges[1:]))


# Two band sets: the Pade [m/m] thresholds for m = 3, 5, 7, 9, 13 (Higham 2005)
# sample 1-norms from 3.7e-3 to 335; the Taylor thresholds of matrix_exp reach
# down to its degree 4 (theta_4 = 1.7e-3) and split its scaled band at s = 1 ... 3.
_PADE_EDGES = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 5.371920351148152e0)
_BAND_SETS = (_exp_bands(_PADE_EDGES, 6), _exp_bands(liealg._TAYLOR_THETA.values(), 3))


def _in_band(lo, hi):
    return lo + (hi - lo) * np.array([0.25, 0.6, 0.95])


def _with_norms(mats, norms):
    """mats rescaled to the given 1-norms."""
    return mats * (norms / np.max(np.sum(np.abs(mats), axis=-2), axis=-1))[:, None, None]


def _rel_diff(E, ref):
    return np.max(np.abs(E - ref)) / max(1.0, np.max(np.abs(ref)))


def test_matrix_exp_matches_scipy_in_every_band():
    # inputs on which scipy's expm is itself accurate: upper-triangular ones
    # with a non-positive diagonal in every band (scipy recomputes the diagonal
    # of a triangular input exactly), dense ones below Pade's theta_9
    for bands in _BAND_SETS:
        rng = np.random.default_rng(11)
        for lo, hi in bands:
            tri = np.triu(rng.standard_normal((3, 5, 5)))
            tri[:, range(5), range(5)] = -np.abs(tri[:, range(5), range(5)])
            stacks = [tri] + ([rng.standard_normal((3, 5, 5))] if hi <= _PADE_EDGES[3] else [])
            for stack in stacks:
                stack = _with_norms(stack, _in_band(lo, hi))
                for X, E in zip(stack, liealg.matrix_exp(stack)):
                    assert _rel_diff(E, scipy.linalg.expm(X)) <= 1e-13, (lo, hi)


def test_matrix_exp_rotation_generators_in_every_band():
    # skew input, as the so(5) frames have; on these scipy's expm itself departs
    # from the closed form by up to ~5e-12 at s = 6, so the closed form is the oracle
    for bands in _BAND_SETS:
        rng = np.random.default_rng(12)
        for lo, hi in bands:
            for a in _in_band(lo, hi):
                b = rng.uniform(-1.0, 1.0) * a
                X = np.zeros((5, 5))
                E = np.eye(5)
                for k, t in ((0, a), (2, b)):
                    X[k:k + 2, k:k + 2] = [[0.0, -t], [t, 0.0]]
                    E[k:k + 2, k:k + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
                P = np.eye(5)[rng.permutation(5)]
                assert _rel_diff(liealg.matrix_exp(P @ X @ P.T), P @ E @ P.T) <= 1e-13, (lo, hi)


def test_matrix_exp_mixed_band_stack_equals_loop():
    for bands in _BAND_SETS:
        rng = np.random.default_rng(13)
        norms = np.array([0.5 * (lo + hi) for lo, hi in bands])
        stack = np.concatenate([_with_norms(rng.standard_normal((len(norms), 5, 5)), norms),
                                np.zeros((1, 5, 5))])
        stack = stack[rng.permutation(len(stack))].reshape(-1, 4, 5, 5)
        loop = np.stack([liealg.matrix_exp(X) for X in stack.reshape(-1, 5, 5)])
        assert np.array_equal(liealg.matrix_exp(stack), loop.reshape(stack.shape))


def test_matrix_exp_batched_stack_equals_loop():
    # more slices than two batches of `_BATCH`, with the degree-8 and the scaled
    # band each longer than one batch, the scaled slices at s = 0 ... 3
    # interleaved, and a zero and a -0 slice
    rng = np.random.default_rng(19)
    bands = _BAND_SETS[1]
    counts = [120, 1100, 120] + [300] * (len(bands) - 3)
    norms = np.concatenate([rng.uniform(lo, hi, k) for (lo, hi), k in zip(bands, counts)])
    stack = np.concatenate([_with_norms(rng.standard_normal((len(norms), 5, 5)), norms),
                            np.zeros((1, 5, 5)), np.full((1, 5, 5), -0.0)])
    assert len(stack) > 2 * liealg._BATCH
    stack = stack[rng.permutation(len(stack))]
    loop = np.stack([liealg.matrix_exp(X) for X in stack])
    assert np.array_equal(liealg.matrix_exp(stack), loop)


def test_matrix_exp_empty_and_negative_zero():
    assert liealg.matrix_exp(np.zeros((0, 5, 5))).shape == (0, 5, 5)
    assert liealg.matrix_exp(np.zeros((3, 0, 0))).shape == (3, 0, 0)
    out = liealg.matrix_exp(np.full((3, 5, 5), -0.0))
    assert np.array_equal(out, np.broadcast_to(np.eye(5), out.shape))
    assert not np.any(np.signbit(out))


def test_frobenius_of_an_empty_stack():
    assert liealg._frobenius(np.zeros((0, 5, 5))).shape == (0,)
    assert liealg._frobenius(np.zeros((3, 0, 5, 5))).shape == (3, 0)
    M = np.random.default_rng(0).standard_normal((4, 5, 5))
    assert liealg._frobenius(M) == pytest.approx([np.linalg.norm(m) for m in M], rel=1e-15)


def _exp_tail(theta, m):
    """sum_{k>m} theta^k / k! in exact rationals, summed to k = m + 40."""
    t = Fraction(theta)
    return sum(t ** k / math.factorial(k) for k in range(m + 1, m + 41))


def test_taylor_thetas_are_the_largest_norms_with_tail_below_unit_roundoff():
    for m, theta in liealg._TAYLOR_THETA.items():
        assert _exp_tail(theta, m) <= Fraction(1, 2 ** 53) < _exp_tail(1.01 * theta, m), m


@pytest.mark.parametrize("m", list(liealg._TAYLOR_THETA))
def test_taylor_is_the_exact_degree_m_polynomial(m):
    # on diagonal input the polynomial acts entrywise; at 5 even the last
    # coefficient 1/m! adds 5^m/m! >= 5.9e-4 to a sum of at most e^5, so every
    # coefficient shows far above roundoff
    x = np.array([0.5, 2.0, 5.0, -0.5])
    A = np.stack([np.diag(np.roll(x, k)) for k in range(len(x))])
    exact = {v: float(sum(Fraction(v) ** k / math.factorial(k) for k in range(m + 1)))
             for v in x}
    P = liealg._taylor(A, m)
    ref = np.stack([np.diag([exact[v] for v in np.roll(x, k)]) for k in range(len(x))])
    assert np.max(np.abs(P - ref) / np.where(ref, np.abs(ref), 1.0)) <= 1e-14
    assert not np.any(P[:, ~np.eye(len(x), dtype=bool)])


@pytest.mark.parametrize("scale", [5.0, 20.0, 60.0, 150.0, 300.0])
def test_matrix_exp_large_positive_eigenvalues(scale):
    # symmetric input with eigenvalues in scale * [0.2, 1]: the 2^s squarings
    # amplify any error of the scaled polynomial; scipy's expm is off by up to 2e-12 here
    rng = np.random.default_rng(17)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    lam = scale * rng.uniform(0.2, 1.0, 5)
    ref = Q @ np.diag(np.exp(lam)) @ Q.T
    E = liealg.matrix_exp(Q @ np.diag(lam) @ Q.T)
    assert np.max(np.abs(E - ref)) / np.max(np.abs(ref)) <= 1e-12


def test_constant_matrix_contractions_match_einsum(so5):
    a = so5.algebra
    rng = np.random.default_rng(14)
    xi = rng.standard_normal((9, 7, a.dim))
    for x in (xi, xi + 1j * rng.standard_normal(xi.shape)):
        ref = np.einsum("...d,dij->...ij", x, a.basis)
        assert np.max(np.abs(a.matrix(x) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # in the span, where coords checks its reconstruction, and off it, unchecked
    for M, atol in ((a.matrix(xi), 1e-8), (rng.standard_normal((9, 7, 5, 5)), None)):
        ref = np.einsum("dk,...k->...d", a.pinv, M.reshape(9, 7, -1))
        assert np.max(np.abs(a.coords(M, atol=atol) - ref)) <= 1e-14 * np.max(np.abs(M))
