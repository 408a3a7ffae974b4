"""Model spaces (flat R^4, round S^4, flat Kahler C^2) and their curvature.

Only spaces where the curvature-commutation identity R(jX, jY) = j R(X, Y) j^-1
holds identically are shipped; the residual is still computed so that test
doubles with broken curvature can demonstrate failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fixtures, liealg


# model space -> algebra fixture of its frame group; none is shipped for euclidean8
FRAME_GROUPS = {"sphere4": "so5_s4", "euclidean4": "se4_r4", "complex2": "se4_r4"}


class DimensionMismatch(Exception):
    pass


class NotLiftable(Exception):
    pass


def standard_kahler_structure():
    """J^N (x1, y1, x2, y2) = (-y1, x1, -y2, x2)."""
    J = np.zeros((4, 4))
    J[0, 1] = -1.0
    J[1, 0] = 1.0
    J[2, 3] = -1.0
    J[3, 2] = 1.0
    return J


@dataclass(frozen=True)
class ModelSpace:
    kind: str                 # euclidean4 | sphere4 | complex2
    ambient_dim: int
    curvature_constant: float
    radius: float = 0.0
    kahler: Optional[np.ndarray] = None

    @property
    def frame_fixture(self) -> str:
        """The algebra fixture of the frame group; KeyError where none is shipped."""
        return FRAME_GROUPS[self.kind]

    def algebra_fixture(self) -> fixtures.AlgebraFixture:
        return fixtures.load_algebra_fixture(self.frame_fixture)


def euclidean4() -> ModelSpace:
    return ModelSpace(kind="euclidean4", ambient_dim=4, curvature_constant=0.0)


def sphere4(r: float = 1.0) -> ModelSpace:
    if not 0 < r < np.inf:
        raise ValueError(f"sphere radius must be positive and finite, not {r!r}")
    return ModelSpace(kind="sphere4", ambient_dim=5, curvature_constant=1.0 / r ** 2, radius=r)


def complex2() -> ModelSpace:
    J = standard_kahler_structure()
    assert np.max(np.abs(J @ J + np.eye(4))) <= 1e-12
    return ModelSpace(kind="complex2", ambient_dim=4, curvature_constant=0.0, kahler=J)


def euclidean8() -> ModelSpace:
    """Flat R^8 for the octonion lift; no frame group is shipped for it."""
    return ModelSpace(kind="euclidean8", ambient_dim=8, curvature_constant=0.0)


MODEL_SPACES = {"euclidean4": euclidean4, "sphere4": sphere4, "complex2": complex2,
                "euclidean8": euclidean8}


def model_space(kind: str, **params) -> ModelSpace:
    """KeyError for an unknown kind, TypeError for a param its constructor does not take."""
    return MODEL_SPACES[kind](**params)


def curvature_operator(space: ModelSpace, X, Y):
    """R(X, Y) as an ambient matrix: c (X Y^t - Y X^t); zero for flat targets.

    For sphere4 the inputs must be tangent (orthogonal to the position),
    in which case the operator preserves the tangent space.  Supports
    leading grid axes on X and Y.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.shape[-1] != space.ambient_dim:
        raise DimensionMismatch(f"tangent vectors of dim {space.ambient_dim} expected")
    c = space.curvature_constant
    if c == 0.0:
        return np.zeros(X.shape + (space.ambient_dim,))
    return c * (X[..., :, None] * Y[..., None, :] - Y[..., :, None] * X[..., None, :])


def lie_curvature_operator(fixture: fixtures.AlgebraFixture, X, Y):
    """-ad([X^, Y^])|p on the so(5) fixture, returned as the induced map on R^4.

    Oracle path for the sphere of radius 1: must agree with the constant
    curvature formula under the tangent identification.
    """
    Mx = fixture.tangent_matrix(np.asarray(X, dtype=float))
    My = fixture.tangent_matrix(np.asarray(Y, dtype=float))
    C = Mx @ My - My @ Mx

    def apply(Z):
        Mz = fixture.tangent_matrix(np.asarray(Z, dtype=float))
        out = -(C @ Mz - Mz @ C)
        return out[..., :4, 4]

    return apply


def twistor_membership(j) -> float:
    """max(|j^2 + I|, |j^t + j|): distance from the orthogonal complex structures."""
    j = np.asarray(j, dtype=float)
    n = j.shape[-1]
    square = liealg._frobenius(j @ j + np.eye(n))
    skew = liealg._frobenius(np.swapaxes(j, -1, -2) + j)
    return float(np.max(np.maximum(square, skew)))


def curvature_commutation_residual(space: ModelSpace, j, X, Y,
                                   operator: Optional[Callable] = None) -> float:
    """Operator norm of R(jX, jY) - j R(X, Y) j^-1.

    `operator(X, Y)` overrides the model curvature so broken test doubles
    can be exercised; j^-1 = -j since j is an orthogonal complex structure.
    """
    j = np.asarray(j, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    op = operator if operator is not None else (lambda A, B: curvature_operator(space, A, B))
    jX = np.einsum("...ij,...j->...i", j, X)
    jY = np.einsum("...ij,...j->...i", j, Y)
    R1 = op(jX, jY)
    R0 = op(X, Y)
    diff = R1 - j @ R0 @ (-j)
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(-2, -1))))


def four_symmetric_from_j(fixture: fixtures.AlgebraFixture, j_on_p) -> liealg.GradedAutomorphism:
    """Lift an orthogonal complex structure on p to an order-4 automorphism.

    The shipped fixtures realise j as the group element diag(j, 1); the
    resulting tau satisfies tau|p = j and tau^2 = sigma.  NotLiftable when
    j fails the membership invariants or conjugation does not close.
    """
    j_on_p = np.asarray(j_on_p, dtype=float)
    if twistor_membership(j_on_p) > 1e-8:
        raise NotLiftable("j is not an orthogonal complex structure")
    J = fixture.embed_j(j_on_p)
    try:
        aut = liealg.automorphism_from_group_element(fixture.algebra, J)
    except (liealg.DoesNotPreserveAlgebra, liealg.NotOrderFour) as exc:
        raise NotLiftable(str(exc)) from exc
    # confirm the restriction: conjugating the tangent matrix of each basis vector e_i gives j e_i
    out = J @ fixture.tangent_matrix(np.eye(4)) @ J.T
    if np.max(np.abs(out[:, :4, 4] - j_on_p.T)) > 1e-10:
        raise NotLiftable("embedded element does not restrict to j on p")
    return aut
