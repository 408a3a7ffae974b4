"""Octonion algebra and the 6-sphere valued lift."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorsys import immersion as im
from twistorsys import octo

E = [octo.basis_unit(i) for i in range(8)]


# ------------------------------------------------------------------- the table

def test_unit_is_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(8)
    assert np.allclose(octo.multiply(E[0], a), a)
    assert np.allclose(octo.multiply(a, E[0]), a)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert np.allclose(octo.multiply(E[i], E[i]), -E[0], atol=1e-15)


def test_table_relations():
    # quaternionic triple survives the doubling: e1 e2 = e3
    assert np.allclose(octo.multiply(E[1], E[2]), E[3], atol=1e-15)
    # doubling unit: e1 e4 = e5
    assert np.allclose(octo.multiply(E[1], E[4]), E[5], atol=1e-15)


def test_non_associativity_witness():
    lhs = octo.multiply(octo.multiply(E[1], E[2]), E[4])
    rhs = octo.multiply(E[1], octo.multiply(E[2], E[4]))
    assert np.linalg.norm(lhs - rhs) > 1.9  # they differ by a sign: 2 units apart


def test_conjugate():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(8)
    c = octo.conjugate(a)
    assert c[0] == a[0]
    assert np.allclose(c[1:], -a[1:])
    assert abs(octo.multiply(a, c)[0] - octo.norm(a) ** 2) <= 1e-12
    assert np.max(np.abs(octo.multiply(a, c)[1:])) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 8))
    lhs = octo.norm(octo.multiply(a, b))
    rhs = octo.norm(a) * octo.norm(b)
    assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


# ------------------------------------------------------- left multiplication

def test_left_mult_basis_unit():
    L = octo.left_mult_structure(E[1])
    assert np.max(np.abs(L @ L + np.eye(8))) <= 1e-15
    assert np.max(np.abs(L.T @ L - np.eye(8))) <= 1e-15
    assert np.allclose(L @ E[0], E[1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_left_mult_random_unit_imaginary(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(8)
    q[0] = 0.0
    q /= octo.norm(q)
    L = octo.left_mult_structure(q)
    assert np.max(np.abs(L @ L + np.eye(8))) <= 1e-12
    assert np.max(np.abs(L.T @ L - np.eye(8))) <= 1e-12


def test_left_mult_rejects_non_imaginary():
    with pytest.raises(octo.NotUnitImaginary):
        octo.left_mult_structure(E[0])
    with pytest.raises(octo.NotUnitImaginary):
        octo.left_mult_structure(2.0 * E[1])


def test_left_mult_takes_stacks():
    # an (8, 3, 4) field of unit imaginary q gives (8, 8, 3, 4), point by point
    rng = np.random.default_rng(5)
    q = rng.standard_normal((8, 3, 4))
    q[0] = 0.0
    q /= octo.norm(q)
    L = octo.left_mult_structure(q)
    assert L.shape == (8, 8, 3, 4)
    for i in np.ndindex(q.shape[1:]):
        assert np.array_equal(L[(...,) + i], octo.left_mult_structure(q[(...,) + i]))
    # one bad entry rejects the whole field
    for bad in (E[0], 2.0 * E[1]):
        q_bad = q.copy()
        q_bad[:, 2, 1] = bad
        with pytest.raises(octo.NotUnitImaginary):
            octo.left_mult_structure(q_bad)


# --------------------------------------------------------------- canonical lift

def test_lift_of_quaternion_line():
    # plane spanned by (1, e1): q = e1 * conj(1) = e1, and left multiplication
    # by e1 rotates 1 to e1 as the lift property demands
    fld = im.build_immersion("octonion_plane", {"axes": (0, 1)}, n=16)
    q, tw = octo.canonical_lift(fld)
    assert q.shape == (8, 16, 16)
    assert np.max(np.abs(q - E[1][:, None, None])) <= 1e-12


def test_lift_of_imaginary_plane():
    # plane spanned by (e2, e3): q = e3 * conj(e2) = -e3 e2 = e1 by the table
    fld = im.build_immersion("octonion_plane", {"axes": (2, 3)}, n=16)
    q, tw = octo.canonical_lift(fld)
    oracle = octo.multiply(E[3], octo.conjugate(E[2]))
    assert np.max(np.abs(q - oracle[:, None, None])) <= 1e-12
    assert abs(octo.norm(oracle) - 1.0) <= 1e-15 and abs(oracle[0]) <= 1e-15


def test_lift_property_and_sphere_valued():
    fld = im.build_immersion("octonion_graph", n=24)
    q, tw = octo.canonical_lift(fld)
    assert np.max(np.abs(octo.norm(q) - 1.0)) <= 1e-10
    assert np.max(np.abs(q[0])) <= 1e-10
    j = tw.j_ambient
    dphi_u, dphi_v = map(im._pointwise, fld.dphi_planes)
    resid = np.einsum("uvij,uvj->uvi", j, dphi_u) - dphi_v
    assert np.max(np.linalg.norm(resid, axis=-1)) <= 1e-8


def sampled_drift(fld, q):
    """Largest component-wise change of q = e2 * conj(e1) over 100 frame rotations."""
    rng = np.random.default_rng(3)
    e1, e2 = fld.frame_planes[:2]
    drift = 0.0
    for _ in range(100):
        th = rng.uniform(0.0, 2.0 * np.pi)
        q1 = np.cos(th) * e1 + np.sin(th) * e2
        q2 = -np.sin(th) * e1 + np.cos(th) * e2
        q_alt = octo.multiply(q2, octo.conjugate(q1))
        drift = max(drift, float(np.max(np.abs(q_alt - q))))
    return drift


def test_lift_reframing_invariance():
    # q is well defined on oriented orthonormal tangent frames
    fld = im.build_immersion("octonion_graph", n=16)
    q, _ = octo.canonical_lift(fld)
    assert sampled_drift(fld, q) <= 1e-10


def test_closed_form_drift_at_exact_frames():
    fld = im.build_immersion("octonion_graph", n=16)
    q, _ = octo.canonical_lift(fld)
    assert octo.lift_residual(fld, q).meta["reframing_drift"] <= 1e-15


@pytest.mark.parametrize("perturb, order", [(lambda e1, e2, d: (1.0 + d) * e2, 1.0),
                                            (lambda e1, e2, d: e2 + d * e1, 2.0)])
def test_closed_form_drift_bounds_the_sampled_drift(perturb, order):
    # frames off orthonormal by delta: q moves by -s^2 A + s c B, whose largest
    # component over the angles is delta (|B| = 2 delta) or 2 delta (|A| = 2 delta)
    delta = 1e-6
    fld = im.build_immersion("octonion_graph", n=16)
    F = fld.frame_planes.copy()
    F[1] = perturb(F[0], F[1], delta)
    fld = dataclasses.replace(fld, frame_planes=F)
    e1, e2 = F[:2]
    q = octo.multiply(e2, octo.conjugate(e1))
    drift = octo.lift_residual(fld, q).meta["reframing_drift"]
    assert drift >= sampled_drift(fld, q)
    assert abs(drift - order * delta) <= 1e-3 * delta


def test_lift_residual_l2_is_the_rms_of_its_pointwise_field():
    fld = im.build_immersion("octonion_graph", n=16)
    q, _ = octo.canonical_lift(fld)
    e1, e2 = fld.frame_planes[:2]
    A = octo.multiply(e2, octo.conjugate(e1)) + octo.multiply(e1, octo.conjugate(e2))
    B = octo.multiply(e2, octo.conjugate(e2)) - octo.multiply(e1, octo.conjugate(e1))
    parts = {"reframing_drift": octo.norm(A) + 0.5 * octo.norm(B),
             "unit_norm": np.abs(octo.norm(q) - 1.0), "real_part": np.abs(q[0])}
    pw = np.maximum.reduce(list(parts.values()))
    rep = octo.lift_residual(fld, q)
    assert rep.final_sup == np.max(pw) == np.max(parts[rep.meta["sup_component"]])
    assert abs(rep.entries[-1].l2 - np.sqrt(np.mean(pw ** 2))) <= 1e-12 * np.max(pw)


def test_flat_plane_lift_vertically_harmonic():
    fld = im.build_immersion("octonion_plane", n=16)
    _, tw = octo.canonical_lift(fld)
    assert im.vertical_harmonicity_residual(fld, tw).final_sup <= 1e-12


def test_codimension_six_split_consistent():
    # the rank-generic Hom splitting applies unchanged with q = 6
    fld = im.build_immersion("octonion_graph", n=16)
    _, tw = octo.canonical_lift(fld)
    II = im._pointwise(fld.II.planes)
    minus = im._pointwise(np.stack([tw.II_minus_slot(a) for a in range(2)]))
    j_T, j_N = im._pointwise(tw.j_T_planes), im._pointwise(tw.j_N_planes)
    plus = II - minus
    assert minus.shape[-2:] == (6, 2)
    assert np.max(np.abs(plus + minus - II)) <= 1e-12
    for X in (0, 1):
        M = minus[..., X, :, :]
        anti = j_N @ M + M @ j_T
        assert np.max(np.abs(anti)) <= 1e-10


def test_lift_needs_r8():
    fld = im.build_immersion("plane", n=16)
    with pytest.raises(ValueError):
        octo.canonical_lift(fld)
