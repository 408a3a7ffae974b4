"""Lagrangian chain: pullback test, circle-bundle membership, Maslov form."""
import dataclasses

import numpy as np
import pytest

from twistorsys import immersion as im
from twistorsys import lagrangian as lg
from twistorsys import symspace

C2 = symspace.complex2()


def build(kind, params=None, n=32):
    fld = im.build_immersion(kind, params or {}, n=n, space=C2)
    tw = im.twistor_lift(fld, +1)
    return fld, tw


# ------------------------------------------------------------------- pullback

def test_product_torus_lagrangian():
    # hand oracle: omega(du phi, dv phi) expands to zero identically
    fld, _ = build("product_torus")
    assert lg.lagrangian_residual(fld).final_sup <= 1e-12


def test_complex_line_maximally_non_lagrangian():
    fld, _ = build("complex_line")
    rep = lg.lagrangian_residual(fld)
    assert abs(rep.final_sup - 1.0) <= 1e-12


def test_coordinate_plane_lagrangian():
    fld, _ = build("lagrangian_plane")
    assert lg.lagrangian_residual(fld).final_sup == 0.0


def test_requires_kahler_structure():
    fld = im.build_immersion("plane", n=16)  # euclidean4: no ambient structure
    with pytest.raises(lg.NotKahler):
        lg.lagrangian_residual(fld)


# --------------------------------------------------------- membership pairing

def test_membership_pairing_positives():
    for kind, params in [("product_torus", {}), ("lagrangian_plane", {}),
                         ("lagrangian_graph", {"potential": "saddle"}),
                         ("lagrangian_graph", {"potential": "cubic"})]:
        fld, tw = build(kind, params)
        res = lg.lagrangian_twistor_residual(fld, tw)
        # both small: the sup is the larger of the two
        assert res.final_sup <= 1e-8, (kind, res.meta)


def test_membership_pairing_negative():
    # the holomorphic line: pullback 1, anticommutator |{J, J}| = |2 J^2| = 4
    fld, tw = build("complex_line")
    res = lg.lagrangian_twistor_residual(fld, tw)
    assert min(res.meta["anticommutator_sup"], res.meta["lagrangian_sup"]) >= 1e-3
    assert res.meta["consistent"]
    assert abs(res.meta["lagrangian_sup"] - 1.0) <= 1e-12
    assert abs(res.meta["anticommutator_sup"] - 4.0) <= 1e-12


@pytest.mark.parametrize("kind", ["product_torus", "complex_line", "round_sphere"])
def test_membership_pairing_l2_is_the_rms_of_its_pointwise_field(kind):
    fld, tw = build(kind)
    J = np.asarray(C2.kahler)
    anti = np.linalg.norm(tw.j_ambient @ J + J @ tw.j_ambient, axis=(-2, -1))
    dphi_u, dphi_v = map(im._pointwise, fld.dphi_planes)
    lag = np.abs(np.sum((dphi_u @ J.T) * dphi_v, axis=-1))
    pw = np.maximum(anti, lag)[fld.report_mask(0)]
    res = lg.lagrangian_twistor_residual(fld, tw)
    assert res.final_sup == np.max(pw)
    assert abs(res.entries[-1].l2 - np.sqrt(np.mean(pw ** 2))) <= 1e-14 * max(np.max(pw), 1.0)


# ----------------------------------------------------------------- Maslov form

def test_product_torus_maslov_constants():
    # differentiation oracle: beta_u = -1/(2 r1), beta_v = -1/(2 r2), constant
    r1, r2 = 1.0, 0.6
    fld, _ = build("product_torus", {"r1": r1, "r2": r2})
    bu, bv = lg.maslov_form(fld)
    h2 = fld.grid.h ** 2
    assert np.max(np.abs(bu + 1.0 / (2 * r1))) <= h2
    assert np.max(np.abs(bv + 1.0 / (2 * r2))) <= h2
    assert np.max(np.abs(bu - bu[0, 0])) <= 1e-13
    assert np.max(np.abs(bv - bv[0, 0])) <= 1e-13


def test_square_torus_symmetric_maslov():
    fld, _ = build("product_torus", {"r1": 0.8, "r2": 0.8})
    bu, bv = lg.maslov_form(fld)
    assert np.max(np.abs(bu - bv)) <= 1e-12


def test_minimal_plane_maslov_zero():
    fld, _ = build("lagrangian_plane")
    bu, bv = lg.maslov_form(fld)
    assert np.max(np.abs(bu)) == 0.0
    assert np.max(np.abs(bv)) == 0.0


def test_maslov_rejects_non_lagrangian():
    fld, _ = build("complex_line")
    with pytest.raises(lg.NotLagrangian):
        lg.maslov_form(fld)


def test_maslov_cross_check_raises_on_a_non_skew_structure():
    # beta(X) = omega(H, dphi X) equals -omega(dphi X, H) only for a skew omega: a
    # symmetric part of 1e-7 in J keeps the pullback far below the Lagrangian gate
    # but moves the two closed forms apart by more than 1e-10
    fld, _ = build("lagrangian_graph", {"potential": "cubic"})
    J = fld.space.kahler + 1e-7 * np.diag([1.0, -1.0, 0.0, 0.0])
    bent = dataclasses.replace(fld, space=dataclasses.replace(fld.space, kahler=J))
    assert lg.lagrangian_residual(bent).final_sup <= 1e-12
    with pytest.raises(lg.MaslovCrossCheckFailed):
        lg.maslov_form(bent)
    lg.maslov_form(fld)


# ---------------------------------------------------------- Maslov identity

def test_maslov_identity_unconditional():
    # the anticommuting part of II points along the restricted ambient
    # structure with coefficient -beta, stationary or not
    for kind, params in [("product_torus", {}), ("lagrangian_plane", {}),
                         ("lagrangian_graph", {"potential": "cubic"})]:
        fld, tw = build(kind, params)
        rep = lg.maslov_identity_residual(fld, tw)
        assert rep.final_sup <= 1e-10, kind


def test_maslov_identity_cubic_explicit_oracle():
    # cylinder over the parabola: II_minus on the profile slot is
    # (kappa / 2) I and beta(e1) = -kappa / 2 with J^N|T = +I in these frames
    fld, tw = build("lagrangian_graph", {"potential": "cubic"})
    bu, _ = lg.maslov_form(fld)
    M1 = im._pointwise(tw.II_minus_slot(0))
    mask = fld.report_mask(2)
    offdiag = np.abs(M1[..., 0, 1]) + np.abs(M1[..., 1, 0])
    assert np.max(offdiag[mask]) <= 1e-12
    assert np.max(np.abs(M1[..., 0, 0] + bu)[mask]) <= 1e-12
    assert np.max(np.abs(bu[mask])) > 0.1  # genuinely curved profile


# --------------------------------------------------- Hamiltonian stationarity

def test_product_torus_stationary():
    fld, _ = build("product_torus")
    assert lg.hamiltonian_stationary_residual(fld).final_sup <= 1e-12


def test_minimal_plane_stationary():
    fld, _ = build("lagrangian_plane")
    assert lg.hamiltonian_stationary_residual(fld).final_sup == 0.0


def test_cubic_graph_not_stationary():
    for n in (16, 32, 64):
        fld, _ = build("lagrangian_graph", {"potential": "cubic"}, n=n)
        assert lg.hamiltonian_stationary_residual(fld).final_sup >= 1e-2


def test_chain_with_vertical_harmonicity():
    # co-closedness of the Maslov form and vertical harmonicity of the lift
    # vanish together: both at roundoff on the stationary torus, both order
    # one on the cubic graph
    fld, tw = build("product_torus")
    assert lg.hamiltonian_stationary_residual(fld).final_sup <= 1e-12
    assert im.vertical_harmonicity_residual(fld, tw).final_sup <= 1e-12
    fld, tw = build("lagrangian_graph", {"potential": "cubic"})
    assert lg.hamiltonian_stationary_residual(fld).final_sup >= 1e-2
    assert im.vertical_harmonicity_residual(fld, tw).final_sup >= 1e-2
