#!/usr/bin/env python3
"""Time the frame-calculus, frame-development and graded stages of a rung over a grid ladder.

Usage: python scripts/bench_stages.py [--src DIR] [--label TEXT] [--append FILE]

Imports `twistorsys` from DIR (default: the `src/` of this checkout), so the
same script can time another checkout.  Three tables, the first two over
n = 64, 128, 256 and 512:

- *stages*: for `round_sphere` and `product_torus` (the latter in
  `complex2`, which the Maslov identity needs) it builds the field and its
  canonical lift, reads once every cached quantity the stages consume (II,
  H, the connection, ∇⊥H, II₋ and its divergence), builds the adapted
  frame g of `ellsys.frame_from_geometry`, and then times each stage as a
  direct call:
  - `build_immersion`: sampling the fixture, its frames and the
    conformality check;
  - `twistor_lift`: the canonical lift with its orientation determinant;
  - `j_ambient`: the ambient (nu, nv, m, m) matrix of that lift from its
    frame components, as the uncached computation of `TwistorField.j_ambient`;
  - `second_fundamental_form`: II from the differenced derivatives;
  - `frame_connection`: the four skew connections from the frames, each
    stored as its upper-triangle planes;
  - `frame_to_connection`: α = g⁻¹dg from the adapted frame g;
  - `II_minus`: the j-anticommuting part of II, both slots formed one at a
    time by `TwistorField.II_minus_slot`, each dropped as the next is formed;
  - `_hom_covariant_divergence`: the Hom(T, N) divergence of II₋ as the
    uncached computation of the lift's `div_minus`, which forms the slots of
    II₋ it reads;
  - `divergence_identity_residual` and `maslov_identity_residual`: the
    residual and its report, with the cached inputs above already read;
  - `surface`: the streamed surface pass of a whole rung of the fixture's
    `geometry_ladder` checks (`cli.RungContext.surface`), which samples the
    fixture one row tile at a time and never forms the whole field above.
- *frame_stages*: on the `so5_s4` connection `exp_frame_form` of a seeded
  pair of unit directions over the open n x n unit grid, it times
  - `matrix_exp`: one call on the stack of every trapezoidal edge step
    h (A_i + A_(i+1)) / 2 along u and along v, the last edge of a line
    wrapping, which are the exponentials of a development and a plaquette pass
    (both passes form them one tile at a time);
  - `develop_frame`: the development of that connection to its frame g,
    its steps included;
  - `plaquette_defects`: the whole plaquette pass, steps included;
  - `gauge_transform`: the action on it of the stabiliser field
    h = exp(f Xi), f = 0.3 sin(2 pi u) cos(2 pi v), with its membership test.
- *octonion_stages*: for `octonion_graph` in R⁸, over n = 64, 128 and 256
  (at 512 the normal frame alone is 100 MB), it times
  - `build_immersion`: sampling, the Gram-Schmidt frames and the
    conformality check;
  - `_gram_schmidt_frames`: the tangent and normal frames alone;
  - `canonical_q`: the 6-sphere valued lift q and its two gates;
  - `twistor_from_q`: the lift j = L_q of that q in frames, j_T and j_N;
  - `lift_residual`: the `octonion_lift` check on that q;
  - `surface`: the streamed `octonion_lift` rung (`cli.RungContext.surface`),
    the tile runs that fix the Gram-Schmidt axes included.
- *graded_stages*: on the adapted frames g of `clifford_torus` and their
  α = g⁻¹dg (`ellsys.frame_from_geometry`), over n = 64, 128, 256 and 512, it
  times
  - `frame_to_connection`: α from g;
  - `rung_alpha`: the same α as a frame-only rung builds it (`cli.RungContext`
    at n with the flatness check alone), in one pass over the fixture's row
    tiles, each sampled with its lift and adapted frames, so no whole-grid
    field, lift or g exists;
  - `_dz_coefficients`: the graded dz coefficients P and Q of α that the
    scan reads, over the whole grid as one tile;
  - `_laurent`: the Laurent pass, all five coefficients F_k, each dropped
    as the next is formed, over the whole grid as one tile;
  - `brackets`: the nine block brackets of that pass on the dz
    coefficients of α;
  - `zero_curvature_scan`: the scan, with its default sup over each
    spectral circle;
  - `graded_checks`: the whole graded pass of a rung, holomorphicity,
    covariant closure and the scan, over its tiles of grid rows.

A stage's time is the minimum over 20 calls, in milliseconds, and p is the
least-squares slope of log time against log n (time ∝ n^p).  At n = 256
each stage runs once more under `tracemalloc`, in a separate pass, and its
transient peak (peak minus the allocation at its start) is recorded in MB.
The row (label, numpy and Python versions, CPU count and the four tables) is
printed as JSON and, with `--append`, appended to the `rows` list of FILE,
which is created when missing.  Standard library and numpy only.
"""
import argparse
import collections
import json
import math
import os
import pathlib
import platform
import sys
import time
import tracemalloc

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = {"round_sphere": None, "product_torus": "complex2"}
# the checks of each fixture's geometry_ladder scenario, which the streamed pass runs
RUNG_CHECKS = {"round_sphere": ["vertical_harmonicity", "holomorphic_H", "divergence_identity",
                                "codazzi_identity"],
               "product_torus": ["maslov_identity", "hamiltonian_stationary",
                                 "vertical_harmonicity", "divergence_identity"]}
SIZES = (64, 128, 256, 512)
REPEATS = 20
MEM_N = 256
FRAME_FIXTURE = "so5_s4"
OCTONION_FIXTURE = "octonion_graph"
OCTONION_SIZES = (64, 128, 256)
GRADED_FIXTURE = "clifford_torus"


def stages(im, lagrangian, fld, tw):
    """name -> zero-argument call, for the stages that apply to this field, whose
    cached geometry it reads once first."""
    from twistorsys import cli, ellsys
    fld.II, fld.H, fld.connection_planes, fld.grad_H, tw.div_minus
    frame = ellsys.frame_from_geometry(fld, tw)[0]
    kind, params, n = fld.meta["kind"], fld.meta["params"], fld.grid.nu
    rung = {"fixture": {"kind": kind, "params": params},
            "model_space": {"kind": fld.space.kind}, "checks": RUNG_CHECKS[kind]}
    out = {
        "build_immersion": lambda: im.build_immersion(kind, params, n=n, space=fld.space),
        "twistor_lift": lambda: im.twistor_lift(fld, +1),
        "j_ambient": lambda: im.TwistorField.j_ambient.func(tw),
        "second_fundamental_form": lambda: im.second_fundamental_form(fld),
        "frame_connection": lambda: im.frame_connection(fld),
        "frame_to_connection": lambda: ellsys.frame_to_connection(frame),
        "II_minus": lambda: collections.deque(map(tw.II_minus_slot, range(2)), maxlen=0),
        "_hom_covariant_divergence": lambda: im.TwistorField.div_minus.func(tw),
        "divergence_identity_residual": lambda: im.divergence_identity_residual(fld, tw),
        "surface": lambda: cli.RungContext(rung, n).surface,
    }
    if fld.space.kahler is not None:
        out["maslov_identity_residual"] = lambda: lagrangian.maslov_identity_residual(fld, tw)
    return out


def frame_stages(n):
    """name -> zero-argument call, for the frame-development stages at grid size n."""
    from twistorsys import ellsys, fixtures, forms, liealg
    fx = fixtures.load_algebra_fixture(FRAME_FIXTURE)
    rng = np.random.default_rng(0)
    xi, eta = (v / np.linalg.norm(v) for v in rng.standard_normal((2, fx.algebra.dim)))
    h = 1.0 / (n - 1)
    alpha = ellsys.exp_frame_form(forms.SurfaceGrid(nu=n, nv=n, hu=h, hv=h), fx, xi, eta)
    A_u, A_v = fx.algebra.matrix(alpha.a_u), fx.algebra.matrix(alpha.a_v)
    steps = np.stack([h * (0.5 * (A_u + np.roll(A_u, -1, axis=0))),
                      h * (0.5 * (A_v + np.roll(A_v, -1, axis=1)))])
    U, V = alpha.grid.mesh()
    gauge = ellsys.stabilizer_gauge_field(
        fx, alpha.grid, 0.3 * np.sin(2 * math.pi * U) * np.cos(2 * math.pi * V))
    return {"matrix_exp": lambda: liealg.matrix_exp(steps),
            "develop_frame": lambda: ellsys.develop_frame(alpha, fx),
            "plaquette_defects": lambda: ellsys.plaquette_defects(alpha, fx),
            "gauge_transform": lambda: ellsys.gauge_transform(alpha, gauge, fx)}


def octonion_stages(n):
    """name -> zero-argument call, for the R^8 lift stages at grid size n."""
    from twistorsys import cli, immersion as im, octo
    fld = im.build_immersion(OCTONION_FIXTURE, n=n)
    q = octo.canonical_q(fld)
    rung = {"fixture": {"kind": OCTONION_FIXTURE}, "model_space": {"kind": "euclidean8"},
            "checks": ["octonion_lift"]}
    return {"build_immersion": lambda: im.build_immersion(OCTONION_FIXTURE, n=n),
            "_gram_schmidt_frames": lambda: im._gram_schmidt_frames(fld.dphi_planes,
                                                                    fld.branch_mask),
            "canonical_q": lambda: octo.canonical_q(fld),
            "twistor_from_q": lambda: octo.twistor_from_q(fld, q),
            "lift_residual": lambda: octo.lift_residual(fld, q),
            "surface": lambda: cli.RungContext(rung, n).surface}


def graded_stages(n):
    """name -> zero-argument call, for the frame-route stages at grid size n."""
    from twistorsys import cli, ellsys, forms, immersion as im
    fld = im.build_immersion(GRADED_FIXTURE, n=n)
    tw = im.twistor_lift(fld)
    frame, alpha = ellsys.frame_from_geometry(fld, tw)
    aut = fld.space.algebra_fixture().aut
    gb, grid = aut.graded, alpha.grid
    rung = {"fixture": {"kind": GRADED_FIXTURE}, "model_space": {"kind": fld.space.kind},
            "checks": ["flatness"]}
    grades = forms.GRADED_CHECKS["zero_curvature_scan"]
    P, Q = forms._dz_coefficients(*forms._components(alpha), gb, *grades)
    a, b, e, d, P0, Q0 = P[2], P[1], Q[2], Q[-1], P[0], Q[0]
    pairs = [(0, 2, Q0, a), (2, -1, a, d), (1, 0, b, Q0), (0, 0, P0, Q0), (2, 2, a, e),
             (1, -1, b, d), (1, 2, b, e), (0, -1, P0, d), (0, 2, P0, e)]
    return {"frame_to_connection": lambda: ellsys.frame_to_connection(frame),
            "rung_alpha": lambda: cli.RungContext(rung, n).alpha,
            "_dz_coefficients": lambda: forms._dz_coefficients(*forms._components(alpha), gb,
                                                               *grades),
            # each coefficient dropped as the next is formed, as the scan takes them
            "_laurent": lambda: collections.deque(forms._laurent(grid, gb, P, Q),
                                                  maxlen=0),
            "brackets": lambda: [gb.bracket(*pair) for pair in pairs],
            "zero_curvature_scan": lambda: forms.zero_curvature_scan(alpha, aut),
            "graded_checks": lambda: forms.graded_checks(alpha, aut, list(forms.GRADED_CHECKS))}


def best_ms(call):
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def transient_peak_mb(call):
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (peak - start) / 2 ** 20


def exponent(sizes, times):
    """Least-squares slope of log(time) on log(n)."""
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def table(calls_at, sizes=SIZES):
    """Time the calls calls_at(n) gives at every n of sizes: name -> its entry."""
    times, peaks = {}, {}
    for n in sizes:
        for name, call in calls_at(n).items():
            call()   # first call outside the timing
            times.setdefault(name, []).append(best_ms(call))
            if n == MEM_N:
                peaks[name] = transient_peak_mb(call)
    return {name: {"n": list(sizes), "ms": [round(t, 3) for t in ts],
                   "p": round(exponent(sizes, ts), 2),
                   f"peak_mb_n{MEM_N}": round(peaks[name], 2)}
            for name, ts in times.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src")
    ap.add_argument("--label", default="")
    ap.add_argument("--append", type=pathlib.Path)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from twistorsys import immersion as im, lagrangian, symspace

    def geometry_stages(kind, space):
        def calls_at(n):
            fld = im.build_immersion(kind, n=n,
                                     space=None if space is None else symspace.model_space(space))
            tw = im.twistor_lift(fld, +1)
            return stages(im, lagrangian, fld, tw)
        return calls_at

    result = {kind: table(geometry_stages(kind, space)) for kind, space in FIXTURES.items()}
    frames = {FRAME_FIXTURE: table(frame_stages)}
    octonion = {OCTONION_FIXTURE: table(octonion_stages, OCTONION_SIZES)}
    graded = {GRADED_FIXTURE: table(graded_stages)}
    row = {"label": args.label, "numpy": np.__version__, "python": platform.python_version(),
           "cpus": os.cpu_count(), "repeats": REPEATS, "stages": result, "frame_stages": frames,
           "octonion_stages": octonion, "graded_stages": graded}
    print(json.dumps(row, indent=1))
    if args.append:
        doc = (json.loads(args.append.read_text()) if args.append.exists()
               else {"description": "per-stage minimum time (ms) over a grid ladder from "
                                    "scripts/bench_stages.py; p is the fitted exponent in "
                                    "time ∝ n^p", "rows": []})
        doc["rows"].append(row)
        args.append.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
