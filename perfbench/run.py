#!/usr/bin/env python3
"""twistorsys benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload zc_system --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/` next
to this directory.  The run measures set-up in fresh processes, warms up at
the smallest rung, then starts pass after pass until `--seconds` have gone
by, and at least MIN_PASSES of them; each pass starts when the previous
one has produced all its verdicts.
Every output is checked (see workloads.py).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`.  Span files go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

# numpy comes in only through import_program(), so that the set-up time
# measured in this process includes it, as it does in the probes.

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5   # fresh processes per run; setup_s is their median
MIN_PASSES = 2      # verdict_s is a median even when one pass outlasts --seconds
WORKLOAD_NAMES = ("zc_system", "geometry_ladder", "frame_development")

MODULES = ("liealg", "forms", "ellsys", "symspace", "immersion", "lagrangian",
           "octo", "cli", "fixtures")
BRACKET = "liealg.LieAlgebraRep.bracket_coords"
# functions each later change targets, as metric prefixes; the span name is
# the prefix itself except for the bracket method
SPAN = {"liealg.bracket_coords": BRACKET}
NAMED_S = ("liealg.bracket_coords", "liealg.matrix_exp", "ellsys.develop_frame",
           "ellsys.plaquette_defects", "ellsys.stabilizer_gauge_field",
           "forms.zero_curvature_scan", "forms.grade_decompose",
           "immersion.build_immersion", "cli.write_reports")
NAMED_CALLS = ("liealg.bracket_coords", "liealg.matrix_exp", "forms.curvature_residual",
               "immersion.second_fundamental_form", "immersion.frame_connection")
PER_RUNG = ("immersion.second_fundamental_form", "immersion.frame_connection",
            "forms.curvature_residual")


def import_program():
    """Import twistorsys from this checkout's src/, never from elsewhere."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import twistorsys
    except ImportError as exc:
        sys.exit(f"error: cannot import twistorsys from {SRC}: {exc}")
    if SRC.resolve() not in pathlib.Path(twistorsys.__file__).resolve().parents:
        sys.exit(f"error: twistorsys was imported from {twistorsys.__file__}, not {SRC}")
    import workloads
    return twistorsys, workloads


def setup(workload, seed):
    """Import, load the three algebra fixtures, one pass at the smallest rung."""
    t0 = time.perf_counter()
    tw, wl = import_program()
    for name in tw.fixtures.ALGEBRA_FIXTURES:
        tw.fixtures.load_algebra_fixture(name)
    w = wl.WORKLOADS[workload]
    inputs = w.inputs(seed)
    w.run_pass(tw, w.warmup_inputs(inputs), OUT / "reports" / workload)
    return time.perf_counter() - t0, tw, wl, w, inputs


def probe_setup(workload, seed):
    """set-up seconds of a fresh process running `--setup-probe`."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if res.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def peak_mem_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def check_outcomes(passes):
    """(correct, attempted, failed, problems) over the outcome lists of all passes."""
    attempted = sum(len(p) for p in passes)
    failed = sum(not o.ok for p in passes for o in p)
    problems = []
    for o in (o for p in passes for o in p):
        if not o.matches_reference:
            problems.append(f"{o.op}: {o.value:.6e} ({o.verdict}) is off its reference")
        elif not o.ok:
            problems.append(f"{o.op}: {o.value:.6e} ({o.verdict}) fails its expectation")
    first = {o.op: o.value for o in passes[0]}
    for p in passes[1:]:
        if {o.op: o.value for o in p} != first:
            problems.append("passes on the same inputs gave different residuals")
            break
    return not problems, attempted, failed, sorted(set(problems))


# --------------------------------------------------------------- trace 1

class BracketCounters:
    """Computed (not measured) work of each bracket_coords call, per pass."""

    def __init__(self):
        self.tracer = None
        self.by_pass = {}
        self._nnz = {}

    def __call__(self, args, kwargs):
        import numpy as np
        alg, xi, eta = args[0], np.asarray(args[1]), np.asarray(args[2])
        s = alg.structure
        if id(s) not in self._nnz:
            self._nnz[id(s)] = int(np.count_nonzero(s))
        points = int(np.prod(np.broadcast_shapes(xi.shape[:-1], eta.shape[:-1])))
        out_bytes = points * alg.dim * np.result_type(xi, eta, s).itemsize
        c = self.by_pass.setdefault(self.tracer.pass_id, [0, 0, 0, 0])
        c[0] += points
        c[1] += points * alg.dim ** 3
        c[2] += points * self._nnz[id(s)]
        c[3] += xi.nbytes + eta.nbytes + out_bytes + s.nbytes


def layer_metrics(tracer_mod, spans, pass_id, counters):
    stats = tracer_mod.self_times(spans, lambda r: r[4] == pass_id)
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v[0] for k, v in stats.items() if k.split(".")[0] == mod)
        m[f"{mod}.calls"] = sum(v[1] for k, v in stats.items() if k.split(".")[0] == mod)
    m["bench.self_s"] = stats["bench.pass"][0]
    for key in NAMED_S:
        m[f"{key}.s"] = stats.get(SPAN.get(key, key), (0.0, 0, 0.0))[2]
    for key in NAMED_CALLS:
        m[f"{key}.calls"] = stats.get(SPAN.get(key, key), (0.0, 0, 0.0))[1]
    for key in PER_RUNG:
        per = collections.Counter(r[5] for r in spans if r[4] == pass_id and r[0] == key)
        m[f"{key}.per_rung"] = max(per.values(), default=0)
    points, dense, useful, moved = counters.by_pass.get(pass_id, [0, 0, 0, 0])
    m["liealg.bracket_coords.computed.points"] = points
    m["liealg.bracket_coords.computed.dense_madds"] = dense
    m["liealg.bracket_coords.computed.useful_madds"] = useful
    m["liealg.bracket_coords.computed.useful_ratio"] = useful / dense if dense else 0.0
    m["liealg.bracket_coords.computed.bytes"] = moved
    m["trace.spans"] = sum(v[1] for v in stats.values())
    return m


def run_traced(workload, seed, seconds):
    """Alternate untraced and traced passes; per-layer medians of the traced ones."""
    tw, wl = import_program()
    import tracer as tracer_mod
    counters = BracketCounters()
    tracer = tracer_mod.Tracer([getattr(tw, m) for m in MODULES], hooks={BRACKET: counters},
                               rung_class=tw.cli.RungContext)
    counters.tracer = tracer
    w = wl.WORKLOADS[workload]
    out_dir = OUT / "reports" / workload
    reference = wl.load_reference()
    with tracer:
        tracer.pass_id = "setup"
        root = tracer.open_span("bench.setup")
        for name in tw.fixtures.ALGEBRA_FIXTURES:
            tw.fixtures.load_algebra_fixture(name)
        inputs = w.inputs(seed)
        w.run_pass(tw, w.warmup_inputs(inputs), out_dir, tracer=tracer)
        tracer.close_span(root)
    fixture_load = tracer_mod.self_times(tracer.spans, lambda r: r[4] == "setup").get(
        "fixtures.load_algebra_fixture", (0.0, 0, 0.0))[2]

    plain, traced, passes, t0 = [], [], [], time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        passes.append(w.run_pass(tw, inputs, out_dir, reference))
        plain.append(time.perf_counter() - start)
        with tracer:
            tracer.pass_id = len(traced)
            root = tracer.open_span("bench.pass")
            passes.append(w.run_pass(tw, inputs, out_dir, reference, tracer=tracer))
            tracer.close_span(root)
        traced.append(root[2] - root[1])
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")

    per_pass = [layer_metrics(tracer_mod, tracer.spans, i, counters) for i in range(len(traced))]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["fixtures.load_algebra_fixture.s"] = fixture_load
    metrics["trace.verdict_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = (f"{len(traced)} traced and {len(plain)} untraced passes; "
            f"untraced median {statistics.median(plain):.4f} s")
    return passes, metrics, info


# --------------------------------------------------------------- trace 0

def run_plain(workload, seed, seconds):
    setup_s, tw, wl, w, inputs = setup(workload, seed)
    setups = [setup_s] + [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    reference = wl.load_reference()
    out_dir = OUT / "reports" / workload
    times, passes, t0 = [], [], time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        passes.append(w.run_pass(tw, inputs, out_dir, reference))
        times.append(time.perf_counter() - start)
    metrics = {"verdict_s": statistics.median(times), "setup_s": statistics.median(setups),
               "peak_mem_mb": peak_mem_mb()}
    info = (f"verdict_s median of {len(times)} passes "
            f"(min {min(times):.4f}, max {max(times):.4f}); "
            f"setup_s median of {len(setups)} fresh processes")
    return passes, metrics, info


UNITS = {"verdict_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".useful_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".calls", ".per_rung", ".points", "_madds", ".spans")):
        return "count"
    return "s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0

    run = run_traced if args.trace else run_plain
    passes, metrics, info = run(args.workload, args.seed, args.seconds)
    correct, attempted, failed, problems = check_outcomes(passes)
    for line in problems:
        print(f"INCORRECT {line}", file=sys.stderr)
    for o in passes[-1]:
        if o.known_defect:
            print(f"KNOWN DEFECT {o.op}: sup {o.value:.3e} ({o.verdict}, as at the seed)")
        elif not o.ok:
            print(f"FAILED {o.op}: sup {o.value:.3e} ({o.verdict})")
    print(f"{args.workload} seed {args.seed}: {info}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    held = sum(o.known_defect for p in passes for o in p)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations; "
          f"{held} known-defect verdicts held at the seed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
