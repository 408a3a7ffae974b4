"""Shipped algebra fixtures and their geometric wiring.

A fixture bundles the JSON algebra data with the derived order-4 structure
and, for the two frame groups (SO(5) for the round 4-sphere, SE(4) in
homogeneous 5x5 form for flat targets), the identification of the model
tangent space with p.  Both shipped frame groups place the base point in
the last matrix column and act on the first four coordinates, with the
reference complex structure the standard block rotation diag(R, R).
The group is read from the basis: affine if every basis matrix has a zero
last row (its linear block skew), else orthogonal (the basis skew).  The
stabiliser H of tau = Ad(J) is the centraliser of J in that group.

Every inverse the program takes is a transpose.  g^T = g^-1 in SO(5), and
on H in either group, since an element of H fixes the base point.  On an
affine frame, g^T dg and g^-1 dg have the same coordinates: they differ only
in the last row, where every basis matrix, and so `pinv`, is exactly zero.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import liealg

ALGEBRA_FIXTURES = ("se4_r4", "so5_s4", "su2_order4")


@dataclass
class AlgebraFixture:
    name: str
    algebra: liealg.LieAlgebraRep
    J: np.ndarray
    aut: liealg.GradedAutomorphism
    split: liealg.SymmetricSplit
    h_basis: np.ndarray
    affine: bool             # homogeneous affine group, else orthogonal

    def embed_j(self, j4):
        """Embed an orthogonal complex structure on R^4 as a group element.

        Both frame groups are realised in 5x5 matrices acting on the first
        four coordinates, so the lift is block-diagonal.
        """
        j4 = np.asarray(j4, dtype=float)
        if j4.shape != (4, 4):
            raise ValueError("expected a 4x4 matrix")
        J = np.eye(self.algebra.ambient_dim)
        J[:4, :4] = j4
        return J

    @functools.cached_property
    def _connection_terms(self):
        """(rows, terms) of `ellsys.frame_to_connection`'s alpha_k = sum_(a, b) pinv[k, a, b]
        (g^T dg)[a, b] over pinv's nonzeros, column by column: terms is {b: {a: [(k,
        pinv[k, a, b]), ...]}}, and (g^T dg)[a, b] sums over the first `rows` rows of g;
        an affine frame's last row is constant, so rows leaves it out."""
        alg = self.algebra
        n = alg.ambient_dim
        pinv = alg.pinv.reshape(alg.dim, n, n)
        terms = {}
        for k, a, b in zip(*np.nonzero(pinv)):
            weights = terms.setdefault(int(b), {}).setdefault(int(a), [])
            weights.append((int(k), pinv[k, a, b].item()))
        return (n - 1 if self.affine else n), terms

    def tangent_matrix(self, v):
        """Tangent vector(s) at the base point -> p-element as ambient matrix."""
        v = np.asarray(v, dtype=float)
        n = self.algebra.ambient_dim
        M = np.zeros(v.shape[:-1] + (n, n))
        M[..., :4, 4] = v[..., :4]
        if not self.affine:
            M[..., 4, :4] = -v[..., :4]
        return M


def fixture_data(name: str) -> dict:
    """Shipped fixture by name, or any JSON file with the same schema by path."""
    if name in ALGEBRA_FIXTURES:
        text = resources.files("twistorsys.data").joinpath(f"{name}.json").read_text()
    elif str(name).endswith(".json"):
        with open(name) as fh:
            text = fh.read()
    else:
        raise KeyError(f"unknown algebra fixture {name!r}; shipped: {ALGEBRA_FIXTURES}")
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def load_algebra_fixture(name: str) -> AlgebraFixture:
    data = fixture_data(name)
    n = data["ambient_dim"]
    basis = np.array([np.array(row, dtype=float).reshape(n, n) for row in data["basis"]])
    J = np.array(data["J"], dtype=float).reshape(n, n)
    affine = not np.any(basis[:, -1])
    linear = basis[:, :-1, :-1] if affine else basis
    if np.max(np.abs(linear + np.swapaxes(linear, -1, -2))) > 1e-12:
        raise ValueError(f"algebra {data['name']!r} is neither orthogonal nor affine orthogonal")
    algebra = liealg.build_algebra(basis, name=data["name"])
    aut = liealg.automorphism_from_group_element(algebra, J)
    split = liealg.symmetric_split(aut)
    h_basis = liealg.stabilizer_subalgebra(split, aut)
    return AlgebraFixture(name=data["name"], algebra=algebra, J=J, aut=aut,
                          split=split, h_basis=h_basis, affine=affine)
