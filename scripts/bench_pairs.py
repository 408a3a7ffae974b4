#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W
                                     [--pairs 10] [--seconds S]

PARENT and CHANGE are the roots of two checkouts.  Both are first compiled
with `python -m compileall -q src`, so that neither pays for writing its
`.pyc` files during set-up.  Pair i = 0, 1, ... then runs `perfbench/run.py
--workload W --seed (i + 1) --seconds S --trace 0` once in each checkout, one
process at a time, the parent first on even i and the change first on odd i.
`--seconds` defaults to `run_seconds` of CHANGE's `BENCHMARK.json`.

For each `end_to_end` metric of that file it prints the parent's and the
change's median, the parent's quartiles and their distance, the pairs the
change wins (ties count for neither side) and a verdict on "worse beyond
bound": yes when the change's median is worse than the parent's by more
than the metric's bound, a share of the parent's median; otherwise
unresolved when the parent's quartile distance is wider than that bound and
not every change run beats every parent run, the runs then being too spread
to tell; otherwise no.  It also prints whether a gain claim on the metric
holds: yes when the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the parent's quartile distance;
otherwise no.  Exits 1 when a run exits non-zero, its last line is not
a JSON object, or it reports `correct` false or `failed` > 0; 0 otherwise.
Standard library only.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def summarize(parent, change, better, bound):
    """Compare per-pair values of one metric; parent[i] and change[i] are pair i."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    sign = 1.0 if better == "lower" else -1.0
    # in "cost" terms, sign * value, lower is better for either kind of metric
    p_cost, c_cost = [sign * v for v in parent], [sign * v for v in change]
    margin = bound * abs(p_med)
    if sign * (c_med - p_med) > margin:
        worse = "yes"
    elif q3 - q1 > margin and max(c_cost) >= min(p_cost):
        worse = "unresolved"
    else:
        worse = "no"
    wins = sum(p > c for p, c in zip(p_cost, c_cost))
    gain = wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1
    return {"parent_median": p_med, "change_median": c_med, "parent_q1": q1,
            "parent_q3": q3, "parent_iqr": q3 - q1, "wins": wins,
            "worse_beyond_bound": worse, "gain_holds": "yes" if gain else "no"}


def run_once(checkout, workload, seed, seconds):
    """The metrics of one benchmark run, or an error message."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        return None, "the last line of output is not a JSON object"
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, f"correct {result.get('correct')}, failed {result.get('failed')}"
    return {k: v["value"] for k, v in result["metrics"].items()}, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)

    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = i + 1
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            metrics, error = run_once(sides[side], args.workload, seed, seconds)
            if error:
                print(f"pair {i + 1} seed {seed} {side}: {error}", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            print(f"pair {i + 1} seed {seed} {side}: "
                  + ", ".join(f"{m['name']} {metrics[m['name']]:.4g}" for m in bench["end_to_end"]),
                  flush=True)

    print(f"{args.workload}: {args.pairs} pairs, {seconds:g} s per run")
    for m in bench["end_to_end"]:
        name = m["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      m["better"], m["bound"])
        print(f"{name} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
              f"parent median {s['parent_median']:.4g}, change median {s['change_median']:.4g}, "
              f"parent quartiles {s['parent_q1']:.4g}-{s['parent_q3']:.4g} "
              f"(IQR {s['parent_iqr']:.4g}), change wins {s['wins']}/{args.pairs}, "
              f"worse beyond bound: {s['worse_beyond_bound']}, gain holds: {s['gain_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
