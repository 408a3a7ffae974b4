"""Scenario runner: parsing, exit codes, reports, determinism."""
import json

import pytest

from twistorsys import cli


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


def test_empty_checks_empty_report(tmp_path):
    path = write_scenario(tmp_path, checks=[])
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 0
    csv = (tmp_path / "rep" / "scen.csv").read_text().splitlines()
    assert csv == ["scenario,check,h,sup,l2,slope,verdict"]


def test_missing_field_exit_two(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"fixture": {"kind": "plane"}}))
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


@pytest.mark.parametrize("overrides", [
    {"lambda_samples": [{"re": 0.0}]},
    {"lambda_samples": [{"re": 0, "im": 0}]},
    {"lambda_samples": []},
    {"tolerance": {"slope_min": 1.5}},
    {"lambda_sample": [{"re": 0.0, "im": 1.0}]},
])
def test_malformed_or_misspelt_field_exit_two(tmp_path, overrides):
    path = write_scenario(tmp_path, checks=["zero_curvature_scan"], **overrides)
    assert cli.run(path, out_dir=tmp_path / "rep", echo=quiet) == 2


def test_deterministic_reports_byte_identical(tmp_path):
    path = write_scenario(tmp_path, grid_ladder=[16, 24])
    for sub in ("a", "b"):
        assert cli.run(path, out_dir=tmp_path / sub, deterministic=True, echo=quiet) == 0
    for suffix in (".csv", ".json"):
        a = (tmp_path / "a" / ("scen" + suffix)).read_bytes()
        b = (tmp_path / "b" / ("scen" + suffix)).read_bytes()
        assert a == b


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
