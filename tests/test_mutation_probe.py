"""scripts/mutation_probe.py: every target names a function that exists."""
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mutation_probe.py"


@pytest.fixture(scope="module")
def mutation_probe():
    spec = importlib.util.spec_from_file_location("mutation_probe", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_target_resolves(mutation_probe):
    # what `--list` checks: `mutants` exits naming a deleted or renamed target
    for module in mutation_probe.TARGETS:
        assert list(mutation_probe.mutants(module)), module
