"""Scenario runner: parsing, exit codes, reports, determinism."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import twistorsys
from twistorsys import cli, fixtures, immersion


def write_scenario(tmp_path, name="scen", **overrides):
    scen = {
        "fixture": {"kind": "clifford_torus", "params": {}},
        "model_space": {"kind": "euclidean4"},
        "grid_ladder": [16, 24, 32],
        "checks": ["holomorphicity", "flatness"],
        "expect": "converge",
    }
    scen.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scen))
    return path


def quiet(*args):
    pass


def test_listings_are_sorted_and_rich():
    fixtures = cli.list_fixtures()
    checks = cli.list_checks()
    assert fixtures == sorted(fixtures)
    assert checks == sorted(checks)
    assert len(fixtures) >= 8
    assert len(checks) >= 8
    assert "clifford_torus" in fixtures and "exp_frame" in fixtures


def test_run_converging_scenario(tmp_path):
    path = write_scenario(tmp_path)
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 0
    csv = (tmp_path / "rep" / "scen.csv").read_text().splitlines()
    assert csv[0] == "scenario,check,h,sup,l2,slope,verdict"
    assert len(csv) == 1 + 2 * 3  # two checks, three rungs
    payload = json.loads((tmp_path / "rep" / "scen.json").read_text())
    assert all(c["ok"] for c in payload["checks"])


def test_expectation_failure_exit_one(tmp_path):
    path = write_scenario(tmp_path, checks=["flatness"], expect="stay_large")
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 1


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.run(bad, out_dir=tmp_path / "rep", echo=quiet) == 2
    bad.write_text("[1, 2]")  # valid JSON, but not an object
    assert cli.run(bad, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_unknown_fixture_exit_two(tmp_path):
    path = write_scenario(tmp_path, fixture={"kind": "moebius", "params": {}})
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_unknown_check_exit_two(tmp_path):
    path = write_scenario(tmp_path, checks=["entropy"])
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_surface_check_on_exp_frame_exit_two(tmp_path):
    path = write_scenario(tmp_path, fixture={"kind": "exp_frame", "params": {}},
                          checks=["codazzi_identity"])
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_empty_checks_exit_two_without_report(tmp_path):
    path = write_scenario(tmp_path, checks=[])
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2
    assert not (tmp_path / "rep").exists()


def test_missing_field_exit_two(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"fixture": {"kind": "plane"}}))
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


MALFORMED = [
    {"lambda_samples": [{"re": 0.0}]},
    {"lambda_samples": [{"re": 0, "im": 0}]},
    {"lambda_samples": []},
    {"tolerance": {"slope_min": 1.5}},
    {"lambda_sample": [{"re": 0.0, "im": 1.0}]},
    {"tolerances": {"slope_min": "steep"}},
    {"grid_ladder": [4]},
    {"tolerances": {"final_sup_max": float("nan")}},
    {"grid_ladder": []},
    {"grid_ladder": [16, 24.0]},
    {"fixture": "plane"},
    {"model_space": "euclidean4"},
    {"model_space": {"kind": "hyperbolic4"}},
    {"fixture": {"kind": "clifford_torus", "params": [1.0]}},
    {"fixture": {"kind": "round_sphere", "params": {"radius": 2.0}}},
    {"fixture": {"kind": "exp_frame", "params": {"algebra": "so5_s4", "sead": 1}}},
    # checks the fixture and model space cannot serve
    {"fixture": {"kind": "exp_frame"}, "checks": ["codazzi_identity"]},
    {"fixture": {"kind": "plane"}, "checks": ["lagrangian"]},
    {"fixture": {"kind": "octonion_graph"}, "model_space": {"kind": "euclidean8"},
     "checks": ["holomorphicity"]},
    {"fixture": {"kind": "round_sphere"}, "checks": ["octonion_lift"]},
    # values the types cannot express
    {"lift_sign": 2},
    {"fixture": {"kind": "clifford_torus_s4"},
     "model_space": {"kind": "sphere4", "params": {"r": 0}}},
    {"fixture": {"kind": "octonion_plane", "params": {"axes": [0, 9]}},
     "model_space": {"kind": "euclidean8"}, "checks": ["octonion_lift"]},
    {"fixture": {"kind": "exp_frame", "params": {"algebra": "so7"}}},
    {"fixture": {"kind": "exp_frame", "params": {"xi": [1, 2]}}},
    {"lambda_samples": [{"re": float("nan"), "im": 1.0}]},
    # param values of the wrong type, model-space params and dimensions
    {"fixture": {"kind": "round_sphere", "params": {"r": "two"}}},
    {"fixture": {"kind": "round_sphere", "params": {"r": True}}},
    {"fixture": {"kind": "perturbed_torus", "params": {"eps": "0.1"}}},
    {"fixture": {"kind": "clifford_torus_s4"},
     "model_space": {"kind": "sphere4", "params": {"radius": 2}}},
    {"fixture": {"kind": "clifford_torus_s4"},
     "model_space": {"kind": "sphere4", "params": {"r": True}}},
    {"model_space": {"kind": "euclidean8"}, "checks": ["vertical_harmonicity"]},
    # fields of the wrong type, a misspelt fixture field, a chart the params break
    {"checks": [["flatness"]]},
    {"lift_sign": True},
    {"fixture": {"kind": "plane", "param": {}}},
    {"fixture": {"kind": "round_sphere", "params": {"r": 0}}},
    # no check, a check twice (every rung merged twice), a grid size twice (a slope
    # fitted to one h)
    {"checks": []},
    {"checks": ["flatness", "flatness"]},
    {"grid_ladder": [32, 32, 32]},
    # a lift_sign where the lift has no sign: exp_frame has no lift, and the octonion
    # lift of a surface in R^8 is the one lift
    {"fixture": {"kind": "exp_frame"}, "lift_sign": -1},
    {"fixture": {"kind": "octonion_graph"}, "model_space": {"kind": "euclidean8"},
     "checks": ["octonion_lift"], "lift_sign": -1},
]


def test_chart_off_its_model_sphere_exit_two(tmp_path):
    # clifford_torus_s4 lies on the unit sphere: in S^4(2) six of its eight checks
    # would read converged-exact on a surface that is not in the space
    checks = ["holomorphicity", "covariant_closure", "flatness", "zero_curvature_scan",
              "vertical_harmonicity", "holomorphic_H", "divergence_identity",
              "codazzi_identity"]
    on, off = ({"kind": "sphere4", "params": {"r": r}} for r in (1.0, 2.0))
    fixture = {"kind": "clifford_torus_s4", "params": {}}
    cli.load_scenario(write_scenario(tmp_path, fixture=fixture, model_space=on, checks=checks))
    path = write_scenario(tmp_path, fixture=fixture, model_space=off, checks=checks)
    with pytest.raises(cli.ScenarioError, match="off its sphere of radius 2.0"):
        cli.load_scenario(path)
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("overrides", MALFORMED)
def test_malformed_or_misspelt_field_exit_two(tmp_path, overrides):
    path = write_scenario(tmp_path, **{"checks": ["zero_curvature_scan"], **overrides})
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


@pytest.mark.parametrize("overrides", MALFORMED)
def test_malformed_rejected_before_any_rung(tmp_path, monkeypatch, overrides):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the scenario was rejected")
    monkeypatch.setattr(cli, "RungContext", no_rung)
    path = write_scenario(tmp_path, **{"checks": ["zero_curvature_scan"], **overrides})
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


@pytest.mark.parametrize("name", ["sub/x", "sub\\x", "", ".", ".."])
def test_name_not_a_plain_file_name_rejected_before_any_rung(tmp_path, monkeypatch, name):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the scenario was rejected")
    monkeypatch.setattr(cli, "RungContext", no_rung)
    path = write_scenario(tmp_path, name="scen")
    path.write_text(json.dumps({**json.loads(path.read_text()), "name": name}))
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2
    assert not (tmp_path / "rep").exists()


def test_exp_frame_algebra_path_rejected_before_any_rung(tmp_path, monkeypatch):
    # a byte-identical copy of a shipped algebra is still a file a scenario may not open
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the scenario was rejected")
    monkeypatch.setattr(cli, "RungContext", no_rung)
    copy = tmp_path / "so5_s4.json"
    copy.write_text(json.dumps(fixtures.fixture_data("so5_s4")))
    path = write_scenario(tmp_path, fixture={"kind": "exp_frame", "params": {"algebra": str(copy)}})
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2
    assert not (tmp_path / "rep").exists()


# geometry errors show only at the first rung
GEOMETRY_ERRORS = [
    ({"kind": "graph"}, "vertical_harmonicity"),          # NotConformal
    ({"kind": "complex_line"}, "maslov_identity"),        # NotLagrangian
    ({"kind": "branched_disk"}, "holomorphicity"),        # FrameDiscontinuity
]


@pytest.mark.parametrize("fixture, check", GEOMETRY_ERRORS)
def test_geometry_error_exit_two_without_report(tmp_path, fixture, check):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"fixture": fixture, "grid_ladder": [16], "checks": [check],
                                "expect": "converge"}))
    lines = []
    assert cli.run(path, out_dir=tmp_path / "rep", echo=lines.append) == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("params", [{"r1": -1.0}, {"r2": -0.6}])
def test_negative_torus_radius_exit_two_without_report(tmp_path, monkeypatch, params):
    # a negative radius gives the chart a negative grid spacing: rejected at load
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran before the scenario was rejected")
    monkeypatch.setattr(cli, "RungContext", no_rung)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"fixture": {"kind": "product_torus", "params": params},
                                "grid_ladder": [16], "checks": ["vertical_harmonicity"],
                                "expect": "converge"}))
    lines = []
    assert cli.run(path, out_dir=tmp_path / "rep", echo=lines.append) == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "rep").exists()


def test_every_accepted_combination_exits_cleanly(tmp_path):
    # every fixture x model space x check that load_scenario accepts, one rung
    # at n = 16: an exit code, never an exception
    accepted = 0
    for kind in cli.list_fixtures():
        for ms_kind in cli.symspace.MODEL_SPACES:
            for check in cli.list_checks():
                path = tmp_path / "combo.json"
                path.write_text(json.dumps({"fixture": {"kind": kind},
                                            "model_space": {"kind": ms_kind},
                                            "grid_ladder": [16], "checks": [check],
                                            "expect": "converge"}))
                try:
                    cli.load_scenario(path)
                except cli.ScenarioError:
                    continue
                accepted += 1
                rc = cli.run(path, out_dir=tmp_path / "rep", deterministic=True, echo=quiet)
                assert rc in (0, 1, 2), (kind, ms_kind, check)
    assert accepted > 0


@pytest.mark.parametrize("kind, check", [("clifford_torus_s4", "covariant_closure"),
                                         ("product_torus", "maslov_identity")])
def test_omitted_model_space_is_the_fixtures_own(tmp_path, kind, check):
    path = tmp_path / "own.json"
    path.write_text(json.dumps({"fixture": {"kind": kind}, "grid_ladder": [16, 24, 32],
                                "checks": [check], "expect": "converge"}))
    own = cli.immersion.FIXTURES[kind].space
    assert cli.load_scenario(path)["model_space"] == {"kind": own}
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 0


def test_vertical_harmonicity_runs_in_euclidean8(tmp_path):
    path = write_scenario(tmp_path, fixture={"kind": "octonion_graph"},
                          model_space={"kind": "euclidean8"}, grid_ladder=[16],
                          checks=["vertical_harmonicity"], expect="exact")
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 0


def test_unknown_expectation_rejected_before_any_rung(tmp_path, monkeypatch):
    def no_geometry(*args, **kwargs):
        raise AssertionError("a rung ran before the expectation was checked")
    monkeypatch.setattr(cli.immersion, "build_immersion", no_geometry)
    path = write_scenario(tmp_path, fixture={"kind": "round_sphere", "params": {}},
                          checks=["vertical_harmonicity"], expect="converg")
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_declared_fixture_params_load(tmp_path):
    # every fixture takes allow_nonconformal besides the params its builder reads,
    # and loads with its declared defaults in its own model space
    for kind in cli.immersion.list_fixture_kinds():
        params = cli.immersion.fixture_params(kind)
        assert "allow_nonconformal" in params
        cli.load_scenario(write_scenario(tmp_path, fixture={"kind": kind, "params": params},
                                         model_space={"kind": cli.immersion.FIXTURES[kind].space},
                                         checks=["vertical_harmonicity"]))
    params = {"algebra": "so5_s4", "seed": 2, "xi": [1.0] * 10, "eta": [1.0] * 10}
    cli.load_scenario(write_scenario(tmp_path, fixture={"kind": "exp_frame", "params": params}))


def test_deterministic_reports_byte_identical(tmp_path):
    path = write_scenario(tmp_path, grid_ladder=[16, 24])
    for sub in ("a", "b"):
        assert cli.run(path, out_dir=tmp_path / sub, deterministic=True, echo=quiet) == 0
    for suffix in (".csv", ".json"):
        a = (tmp_path / "a" / ("scen" + suffix)).read_bytes()
        b = (tmp_path / "b" / ("scen" + suffix)).read_bytes()
        assert a == b


def test_ladder_order_does_not_change_the_report(tmp_path):
    # the meta of a merged report is the finest rung's (the scan's laurent_sup_k at
    # n = 64), not that of the rung which ran last
    for sub, ladder in (("up", [16, 32, 64]), ("down", [64, 32, 16])):
        path = write_scenario(tmp_path, fixture={"kind": "round_sphere"}, grid_ladder=ladder,
                              checks=["zero_curvature_scan"])
        cli.run(path, out_dir=tmp_path / sub, deterministic=True, echo=quiet)
    for suffix in (".csv", ".json"):
        assert ((tmp_path / "up" / ("scen" + suffix)).read_bytes()
                == (tmp_path / "down" / ("scen" + suffix)).read_bytes())


def test_lift_sign_minus_one_loads_where_the_lift_has_a_sign(tmp_path):
    scen = cli.load_scenario(write_scenario(tmp_path, lift_sign=-1))
    assert scen["lift_sign"] == -1


def test_timestamp_toggle(tmp_path):
    path = write_scenario(tmp_path, grid_ladder=[16])
    cli.run(path, out_dir=tmp_path / "with", echo=quiet)
    cli.run(path, out_dir=tmp_path / "without", deterministic=True, echo=quiet)
    with_ts = json.loads((tmp_path / "with" / "scen.json").read_text())
    without = json.loads((tmp_path / "without" / "scen.json").read_text())
    assert "timestamp" in with_ts and "timestamp" not in without


def test_main_subcommands(tmp_path, capsys):
    assert cli.main(["list-fixtures"]) == 0
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "clifford_torus" in out and "flatness" in out
    assert cli.main([]) == 2  # no subcommand: usage, exit 2


def test_module_entry_point_imports_cli_once():
    # the package imports cli lazily, so running it as a module does not warn
    # that twistorsys.cli was already in sys.modules
    src = str(pathlib.Path(twistorsys.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "twistorsys.cli",
                          "list-checks"], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == cli.list_checks()


def test_main_run(tmp_path):
    path = write_scenario(tmp_path, grid_ladder=[16])
    assert cli.main(["run", str(path), "--out", str(tmp_path / "rep"),
                     "--deterministic"]) == 0


def test_tolerance_override(tmp_path):
    path = write_scenario(tmp_path, checks=["flatness"],
                          tolerances={"exact_floor": 1e-30, "final_sup_max": 1e-20,
                                      "slope_min": 0.0})
    # the exact floor is out of reach and the sup cap is impossible: fails
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 1
    path2 = write_scenario(tmp_path, name="scen2", checks=["flatness"],
                           tolerances={"bogus": 1.0})
    assert cli.run(path2, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_frame_only_rung_releases_its_field_and_lift():
    scen = {"fixture": {"kind": "clifford_torus_s4"}, "model_space": {"kind": "sphere4"},
            "checks": ["covariant_closure", "flatness"]}
    ctx = cli.RungContext(scen, 16)
    ctx.alpha
    assert "field" not in vars(ctx) and "tw" not in vars(ctx)
    ctx = cli.RungContext(dict(scen, checks=["covariant_closure", "divergence_identity"]), 16)
    ctx.alpha
    assert "field" in vars(ctx) and "tw" in vars(ctx)


def test_mixed_rung_builds_its_field_once(tmp_path, monkeypatch):
    # clifford_system's checks: frame checks first, then one that reads the field
    checks = ["holomorphicity", "covariant_closure", "flatness", "zero_curvature_scan",
              "divergence_identity"]
    scen = cli.load_scenario(write_scenario(tmp_path, checks=checks))
    calls = []
    build = immersion.build_immersion
    monkeypatch.setattr(immersion, "build_immersion",
                        lambda *args, **kwargs: calls.append(kwargs["n"]) or build(*args, **kwargs))
    cli.run_scenario(scen)
    assert calls == [16, 24, 32]
