"""The program runs on numpy alone: scipy is a test-only dependency."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# imports every twistorsys module, then runs an exp_frame scenario (matrix_exp)
# and a branched_disk one at odd n (the branch-mask dilation) through the CLI layer
SCRIPT = """
import importlib, json, pathlib, pkgutil, sys
import twistorsys, twistorsys.cli as cli
for mod in pkgutil.iter_modules(twistorsys.__path__):
    importlib.import_module("twistorsys." + mod.name)
scenarios = [
    {"fixture": {"kind": "exp_frame", "params": {"algebra": "so5_s4", "seed": 1}},
     "grid_ladder": [16], "checks": ["holomorphicity", "flatness"], "expect": "converge"},
    {"fixture": {"kind": "branched_disk", "params": {}},
     "grid_ladder": [17], "checks": ["vertical_harmonicity"], "expect": "converge"},
]
for i, scen in enumerate(scenarios):
    path = pathlib.Path(sys.argv[1]) / f"s{i}.json"
    path.write_text(json.dumps(scen))
    assert cli.run_scenario(cli.load_scenario(path))
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "lazy": [m for m in ("argparse", "numpy.ma") if m in sys.modules]}))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules of interest that the script above leaves loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("runtime"))],
                         env=env, capture_output=True, text=True, timeout=120, check=False)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_runtime_loads_no_scipy(loaded):
    assert loaded["scipy"] == []


def test_runtime_loads_no_argparse_or_masked_arrays(loaded):
    # argparse serves the command line alone, and a lift's orientation check
    # takes no np.unique, whose first call imports numpy.ma
    assert loaded["lazy"] == []
