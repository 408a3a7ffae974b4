"""Model-space curvature, twistor membership, j -> order-4 lifting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import symspace
from twistorsys.fixtures import load_algebra_fixture


def random_acs(rng):
    """A random orthogonal complex structure on R^4: conjugate the block one."""
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    J = symspace.standard_kahler_structure()
    return Q @ J @ Q.T


# ----------------------------------------------------------- curvature operator

def test_flat_spaces_have_zero_curvature():
    for space in (symspace.euclidean4(), symspace.complex2()):
        X = np.array([1.0, 0, 0, 0])
        Y = np.array([0.0, 1.0, 0, 0])
        assert np.max(np.abs(symspace.curvature_operator(space, X, Y))) == 0.0


def test_sphere_curvature_rotates_the_plane():
    # oracle: R(X, Y) Y = X for orthonormal tangent X, Y at unit radius
    space = symspace.sphere4(1.0)
    X = np.array([0.0, 1.0, 0, 0, 0])
    Y = np.array([0.0, 0, 1.0, 0, 0])
    R = symspace.curvature_operator(space, X, Y)
    assert np.allclose(R @ Y, X, atol=1e-14)
    assert np.allclose(R @ X, -Y, atol=1e-14)
    assert np.max(np.abs(symspace.curvature_operator(space, X, X))) == 0.0


def test_sphere_radius_scaling():
    space = symspace.sphere4(2.0)
    X = np.array([0.0, 1.0, 0, 0, 0])
    Y = np.array([0.0, 0, 2.0, 0, 0])
    R = symspace.curvature_operator(space, X, Y)
    assert np.allclose(R @ Y, X, atol=1e-14)  # c = 1/4, |Y|^2 = 4


def test_dimension_mismatch():
    with pytest.raises(symspace.DimensionMismatch):
        symspace.curvature_operator(symspace.sphere4(), np.zeros(4), np.zeros(4))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_curvature_agrees_with_bracket_path(seed):
    # the two routes to the unit-sphere curvature must coincide:
    # constant-curvature formula vs -ad([X^, Y^])|p on the frame fixture
    fx = load_algebra_fixture("so5_s4")
    space = symspace.sphere4(1.0)
    rng = np.random.default_rng(seed)
    X4, Y4, Z4 = rng.standard_normal((3, 4))
    X = np.concatenate([X4, [0.0]])
    Y = np.concatenate([Y4, [0.0]])
    R = symspace.curvature_operator(space, X, Y)
    direct = (R @ np.concatenate([Z4, [0.0]]))[:4]
    via_bracket = symspace.lie_curvature_operator(fx, X4, Y4)(Z4)
    assert np.max(np.abs(direct - via_bracket)) <= 1e-10


# ----------------------------------------------------------- twistor membership

def test_membership_standard_structure():
    assert symspace.twistor_membership(symspace.standard_kahler_structure()) <= 1e-15


def test_membership_scaled_structure():
    # j = 1.1 J: j^2 + I = -0.21 I, Frobenius norm 0.42 on R^4
    j = 1.1 * symspace.standard_kahler_structure()
    assert abs(symspace.twistor_membership(j) - 0.42) <= 1e-12


def test_membership_random_skew():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    j = A - A.T
    assert symspace.twistor_membership(j) > 1e-3


# ----------------------------------------------- curvature commutation identity

def test_commutation_flat():
    space = symspace.euclidean4()
    rng = np.random.default_rng(1)
    j = random_acs(rng)
    X, Y = rng.standard_normal((2, 4))
    assert symspace.curvature_commutation_residual(space, j, X, Y) == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_commutation_sphere_identity(seed):
    # on the round sphere the identity R(jX, jY) = j R(X, Y) j^-1 is exact
    rng = np.random.default_rng(seed)
    space = symspace.sphere4(1.0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    J4 = Q @ symspace.standard_kahler_structure() @ Q.T
    j = np.zeros((5, 5))
    j[:4, :4] = J4  # a structure on the tangent space at the pole
    X = np.concatenate([rng.standard_normal(4), [0.0]])
    Y = np.concatenate([rng.standard_normal(4), [0.0]])
    # restrict the check to the tangent 4-plane where j is defined
    op = lambda A, B: symspace.curvature_operator(space, A, B)
    assert symspace.curvature_commutation_residual(space, j, X, Y, operator=op) <= 1e-12


def test_commutation_broken_double():
    # an injected non-equivariant "curvature" must show a positive residual
    space = symspace.euclidean4()
    E = np.eye(4)

    def bad_op(X, Y):
        return np.outer(E[0], E[1]) * float(X @ E[0]) * float(Y @ E[1])

    j = symspace.standard_kahler_structure()
    r = symspace.curvature_commutation_residual(space, j, E[0], E[1], operator=bad_op)
    assert r > 0.5


# ------------------------------------------------------------ order-4 from j

def test_lift_standard_block_matches_fixture():
    fx = load_algebra_fixture("so5_s4")
    j = symspace.standard_kahler_structure()
    aut = symspace.four_symmetric_from_j(fx, j)
    assert np.max(np.abs(aut.tau - fx.aut.tau)) <= 1e-12


def test_lift_on_affine_fixture():
    fx = load_algebra_fixture("se4_r4")
    rng = np.random.default_rng(4)
    j = random_acs(rng)
    aut = symspace.four_symmetric_from_j(fx, j)
    d = fx.algebra.dim
    assert np.max(np.abs(np.linalg.matrix_power(aut.tau, 4) - np.eye(d))) <= 1e-10
    sigma = aut.tau @ aut.tau
    assert np.max(np.abs(sigma - fx.aut.tau @ fx.aut.tau)) <= 1e-10


def test_lift_round_trip_tau_p():
    fx = load_algebra_fixture("so5_s4")
    tau_p4 = fx.J[:4, :4]  # the fixture's own restriction to p
    aut = symspace.four_symmetric_from_j(fx, tau_p4)
    assert np.max(np.abs(aut.tau - fx.aut.tau)) <= 1e-12


def test_lift_rejects_non_structure():
    fx = load_algebra_fixture("so5_s4")
    with pytest.raises(symspace.NotLiftable):
        symspace.four_symmetric_from_j(fx, np.eye(4))


def test_model_space_registry():
    assert symspace.model_space("sphere4", r=2.0).curvature_constant == 0.25
    assert symspace.model_space("complex2").kahler is not None
    with pytest.raises(KeyError):
        symspace.model_space("hyperbolic4")
    with pytest.raises(KeyError):
        _ = symspace.euclidean8().frame_fixture
