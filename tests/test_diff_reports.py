"""scripts/diff_reports.py on report directories written by the scenario runner."""
import importlib.util
import json
import pathlib
import shutil

import pytest

from twistorsys import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "diff_reports.py"


@pytest.fixture(scope="module")
def diff_reports():
    spec = importlib.util.spec_from_file_location("diff_reports", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def reports(tmp_path):
    """Directory A of deterministic reports and an identical copy B."""
    scen = {"fixture": {"kind": "round_sphere", "params": {}}, "grid_ladder": [16, 24],
            "checks": ["holomorphic_H", "curvature_commutator"], "expect": "converge"}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    a, b = tmp_path / "a", tmp_path / "b"
    cli.run(path, out_dir=a, deterministic=True, echo=lambda *args: None)
    shutil.copytree(a, b)
    return a, b


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_identical_directories(diff_reports, reports, capsys):
    assert diff_reports.main([str(d) for d in reports]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["scen.csv: byte-identical", "scen.json: byte-identical"]


def test_roundoff_perturbation_is_measured(diff_reports, reports, capsys):
    a, b = reports

    def perturb(payload):
        entries = payload["checks"][0]["entries"]
        entries[0]["sup"] *= 1.0 + 1e-12     # holomorphic_H: above the floor
        payload["checks"][1]["entries"][0]["l2"] += 3e-16   # flat target, [R, j] = 0: at it
    edit_json(b / "scen.json", perturb)
    assert diff_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "scen.csv: byte-identical"
    assert out[1].startswith("scen.json: max relative change 1e-12 above 1e-10, "
                             "max absolute change 3e-16 at or below 1e-10")
    assert len(out) == 2


def test_verdict_change_or_missing_file_exits_one(diff_reports, reports, capsys):
    a, b = reports
    edit_json(b / "scen.json", lambda p: p["checks"][1].update(verdict="no-convergence", ok=False))
    assert diff_reports.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "VERDICT CHANGED checks[1].verdict: 'converged-exact' -> 'no-convergence'" in out
    assert "VERDICT CHANGED checks[1].ok: True -> False" in out
    (b / "scen.json").unlink()
    assert diff_reports.main([str(a), str(b)]) == 1
    assert "scen.json: missing in B" in capsys.readouterr().out
