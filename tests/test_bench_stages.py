"""scripts/bench_stages.py: the fitted exponent and the stage tables."""
import importlib.util
import pathlib

import pytest

from twistorsys import immersion as im
from twistorsys import lagrangian, symspace

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_stages.py"


@pytest.fixture(scope="module")
def bench_stages():
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_exponent_of_a_power_law(bench_stages):
    sizes = bench_stages.SIZES
    assert bench_stages.exponent(sizes, [3e-6 * n ** 2 for n in sizes]) == pytest.approx(2.0)
    assert bench_stages.exponent(sizes, [0.5 * n ** 1.5 for n in sizes]) == pytest.approx(1.5)


@pytest.mark.parametrize("kind, space, maslov", [("round_sphere", "euclidean4", False),
                                                 ("product_torus", "complex2", True)])
def test_every_stage_runs_where_it_applies(bench_stages, kind, space, maslov):
    fld = im.build_immersion(kind, n=16, space=symspace.model_space(space))
    tw = im.twistor_lift(fld, +1)
    calls = bench_stages.stages(im, lagrangian, fld, tw)
    assert ("maslov_identity_residual" in calls) == maslov
    assert len(calls) == 9 + maslov
    for call in calls.values():
        call()


def test_every_frame_stage_runs(bench_stages):
    calls = bench_stages.frame_stages(16)
    assert set(calls) == {"matrix_exp", "develop_frame", "plaquette_defects", "gauge_transform"}
    for call in calls.values():
        call()


def test_every_octonion_stage_runs(bench_stages):
    calls = bench_stages.octonion_stages(16)
    assert set(calls) == {"build_immersion", "_gram_schmidt_frames", "canonical_q",
                          "twistor_from_q", "lift_residual"}
    for call in calls.values():
        call()


def test_every_graded_stage_runs(bench_stages):
    calls = bench_stages.graded_stages(16)
    assert set(calls) == {"frame_to_connection", "connection_from_geometry", "_dz_coefficients",
                          "_laurent", "brackets", "zero_curvature_scan", "graded_checks"}
    for call in calls.values():
        call()
