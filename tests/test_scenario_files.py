"""The scenario loader accepts every shipped scenario file and every scenario
the benchmark runs.  The benchmark calls `cli.run_scenario` directly and never
goes through `load_scenario`, so this is what keeps the two in step."""
import importlib.util
import json
import pathlib
import sys

import pytest

from twistorsys import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenario_loads(path):
    scen = json.loads(path.read_text())
    loaded = cli.load_scenario(path)
    assert {k: loaded[k] for k in scen} == scen


def test_benchmark_scenarios_load(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    scens = [s for w in workloads.WORKLOADS.values() if hasattr(w, "scenarios")
             for s in w.scenarios(1)]
    assert scens
    for scen in scens:
        path = tmp_path / f"{scen['name']}.json"
        path.write_text(json.dumps(scen))
        assert cli.load_scenario(path) == scen
