"""scripts/bench_pairs.py: the per-metric summary of alternating benchmark pairs."""
import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PARENT = [1.0, 1.2, 0.9, 1.1, 1.0]


def test_summary_of_a_lower_is_better_metric(bench_pairs):
    s = bench_pairs.summarize(PARENT, [0.8, 1.2, 1.0, 0.7, 0.9], "lower", 0.25)
    # sorted parent 0.9, 1.0, 1.0, 1.1, 1.2: inclusive quartiles 1.0 and 1.1
    assert s["parent_median"] == 1.0 and s["change_median"] == 0.9
    assert (s["parent_q1"], s["parent_q3"]) == (1.0, 1.1)
    assert s["parent_iqr"] == pytest.approx(0.1)
    assert s["wins"] == 3   # pair 2 is a tie, pair 3 a loss
    assert s["worse_beyond_bound"] == "no"


def test_worse_beyond_bound_is_a_share_of_the_parent_median(bench_pairs):
    assert bench_pairs.summarize(PARENT, [1.25] * 5, "lower", 0.25)["worse_beyond_bound"] == "no"
    assert bench_pairs.summarize(PARENT, [1.26] * 5, "lower", 0.25)["worse_beyond_bound"] == "yes"
    higher = bench_pairs.summarize(PARENT, [0.8, 0.85, 1.3, 0.8, 0.85], "higher", 0.1)
    assert higher["wins"] == 1 and higher["worse_beyond_bound"] == "yes"


@pytest.mark.parametrize("change, better, verdict", [
    ([1.02] * 5, "lower", "unresolved"),   # within the bound, but the IQR 0.1 exceeds it
    ([0.89] * 5, "lower", "no"),           # every change run beats every parent run
    ([1.06] * 5, "lower", "yes"),
    ([1.19] * 5, "higher", "unresolved"),  # a better median, yet below the parent's 1.2
    ([1.21] * 5, "higher", "no"),
])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs, change, better, verdict):
    # bound 0.05 of the parent median 1.0 is narrower than the parent's IQR 0.1
    assert bench_pairs.summarize(PARENT, change, better, 0.05)["worse_beyond_bound"] == verdict


def test_a_gain_holds_on_nine_of_ten_wins_and_a_median_drop_beyond_the_iqr(bench_pairs):
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    change = [0.9] * 9 + [1.0]   # the last pair is a tie, which counts for neither side
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 9 and s["parent_iqr"] == pytest.approx(0.015)
    assert s["gain_holds"] == "yes"
    # one more pair lost: 8 of 10 wins are too few, however far the median dropped
    assert bench_pairs.summarize(parent, change[:8] + [1.0, 1.1], "lower", 0.25)["gain_holds"] == "no"
    # the same pairs with higher-is-better: the change loses them
    assert bench_pairs.summarize(parent, change, "higher", 0.25)["gain_holds"] == "no"


def test_a_gain_does_not_hold_when_the_parent_spread_is_wider_than_the_drop(bench_pairs):
    parent = [1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 1.25, 0.85, 1.0, 1.15]
    change = [p - 0.1 for p in parent]   # every pair won, by less than the IQR
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 10 and s["parent_iqr"] == pytest.approx(0.2625)
    assert s["gain_holds"] == "no"
