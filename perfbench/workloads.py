"""The three benchmark workloads: inputs from a seed, one pass, its checks.

A pass takes every scenario of a workload through every rung of its ladder
to a verdict, reports included, or runs the frame-development chain at
every grid size.  It returns one `Outcome` per operation: a (scenario,
check) verdict or a frame diagnostic.

An operation *fails* when its verdict differs from its expectation, a
diagnostic leaves its window, or it raises.  The two `KNOWN_DEFECTS` are
the exception: they do not fail while they keep the verdict they had when
the benchmark was introduced.  An operation *matches the reference*
when its finest-rung sup agrees with the value recorded in
`reference.json` at the commit that introduced the benchmark: relatively
(`REL_TOL`) above the roundoff floor, and absolutely (below
`ROUNDOFF_FLOOR`) at it.  Seed-dependent operations are checked by
observed order or against their own coarser rung instead.
"""
from __future__ import annotations

import json
import math
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

REL_TOL = 1e-8          # relative agreement with the reference above the floor
ROUNDOFF_FLOOR = 1e-10  # cli.Tolerances.exact_max: residuals below it are roundoff
ORDER_WINDOW = (1.8, 2.2)
LAMBDA_I = [{"re": 0.0, "im": 1.0}]

# ROADMAP item 4, the absolute exact floor: on [64, 128, 256] these checks
# reach sups of 1.3e-12 and 1.8e-12, above the 1e-12 floor, and end with
# the verdict below instead of their expected "converged".  Each is held at
# that verdict: it fails only if its verdict becomes anything else than
# this one or its expectation.
KNOWN_DEFECTS = {
    "geometry_ladder": {
        "product_torus/hamiltonian_stationary": "no-convergence",
        "product_torus/vertical_harmonicity": "no-convergence",
    },
}


@dataclass
class Outcome:
    op: str
    ok: bool            # verdict matches the expectation / diagnostic in window
    value: float        # finest-rung sup or diagnostic value
    verdict: str
    matches_reference: bool = True
    known_defect: bool = False  # a KNOWN_DEFECTS entry that still has its seed verdict
    seeded: bool = False  # depends on the seed, so has no recorded reference


def unit_directions(rng, d):
    xi = rng.standard_normal(d)
    eta = rng.standard_normal(d)
    return xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)


def observed_orders(hs, sups):
    return [math.log(a / b) / math.log(ha / hb)
            for ha, hb, a, b in zip(hs, hs[1:], sups, sups[1:])]


def load_reference():
    return json.loads(REFERENCE.read_text())


def compare(value, ref):
    if ref <= ROUNDOFF_FLOOR:
        return value <= ROUNDOFF_FLOOR
    return abs(value - ref) <= REL_TOL * ref


# --------------------------------------------------------------- scenarios

def _scenario(name, kind, space, ladder, checks, expect, params=None, **extra):
    scen = {"name": name, "fixture": {"kind": kind, "params": params or {}},
            "model_space": {"kind": space}, "grid_ladder": ladder,
            "checks": checks, "expect": expect}
    scen.update(extra)
    return scen


class ScenarioWorkload:
    """Scenario dicts run through `cli.run_scenario` and `cli.write_reports`."""

    name = ""

    def scenarios(self, seed):
        raise NotImplementedError

    def inputs(self, seed):
        scens = self.scenarios(seed)
        order = np.random.default_rng(seed).permutation(len(scens))
        return [scens[i] for i in order]

    def warmup_inputs(self, inputs):
        return [dict(s, grid_ladder=s["grid_ladder"][:1]) for s in inputs]

    def run_pass(self, tw, inputs, out_dir, reference=None, tracer=None):
        outcomes = []
        for scen in inputs:
            try:
                results = tw.cli.run_scenario(scen)
                tw.cli.write_reports(scen, results, out_dir, deterministic=True)
            except Exception as exc:  # a raising scenario fails all its checks
                outcomes += [Outcome(f"{scen['name']}/{c}", False, math.nan,
                                     f"raised {type(exc).__name__}: {exc}",
                                     matches_reference=False)
                             for c in scen["checks"]]
                continue
            for check, rep, verdict, ok in results:
                op = f"{scen['name']}/{check}"
                defect = not ok and verdict == KNOWN_DEFECTS.get(self.name, {}).get(op)
                out = Outcome(op, bool(ok) or defect, rep.final_sup, verdict,
                              known_defect=defect,
                              seeded=scen["fixture"]["kind"] == "exp_frame")
                if reference is not None:
                    self.check_reference(out, rep, reference)
                outcomes.append(out)
        return outcomes

    def check_reference(self, out, rep, reference):
        if out.seeded:
            out.matches_reference = self.check_seeded(rep)
            return
        out.matches_reference = compare(out.value, reference[self.name][out.op]["sup"])


class ZcSystem(ScenarioWorkload):
    name = "zc_system"
    CHECKS = ["holomorphicity", "covariant_closure", "flatness", "zero_curvature_scan"]

    def scenarios(self, seed):
        xi, eta = unit_directions(np.random.default_rng([seed, 1]), 10)
        return [
            _scenario("clifford_torus", "clifford_torus", "euclidean4", [32, 64, 128],
                      self.CHECKS, "converge"),
            _scenario("clifford_torus_s4", "clifford_torus_s4", "sphere4", [32, 64, 128],
                      self.CHECKS, "converge"),
            _scenario("exp_frame_scan", "exp_frame", "euclidean4", [32, 64],
                      ["zero_curvature_scan"], "stay_large",
                      {"algebra": "so5_s4", "xi": xi.tolist(), "eta": eta.tolist()},
                      lambda_samples=LAMBDA_I),
        ]

    def check_seeded(self, rep):
        # the lambda = i curvature of a generic flat frame tends to a nonzero
        # limit: both rungs agree to the stencil error
        coarse, fine = rep.entries[0].sup, rep.entries[-1].sup
        return math.isfinite(fine) and abs(fine - coarse) <= 0.05 * fine


class GeometryLadder(ScenarioWorkload):
    name = "geometry_ladder"
    LADDER = [64, 128, 256]

    def scenarios(self, seed):
        L = self.LADDER
        return [
            _scenario("round_sphere", "round_sphere", "euclidean4", L,
                      ["vertical_harmonicity", "holomorphic_H", "divergence_identity",
                       "codazzi_identity"], "converge", {"r": 1.0},
                      tolerances={"final_sup_max": 0.005}),
            _scenario("perturbed_torus", "perturbed_torus", "euclidean4", L,
                      ["vertical_harmonicity", "holomorphic_H"], "stay_large", {"eps": 0.1}),
            _scenario("product_torus", "product_torus", "complex2", L,
                      ["maslov_identity", "hamiltonian_stationary", "vertical_harmonicity",
                       "divergence_identity"], "converge", {"r1": 1.0, "r2": 0.6}),
            _scenario("lagrangian_graph_cubic", "lagrangian_graph", "complex2", L,
                      ["hamiltonian_stationary", "vertical_harmonicity"], "stay_large",
                      {"potential": "cubic"}),
            _scenario("octonion_graph", "octonion_graph", "euclidean8", [128],
                      ["octonion_lift"], "exact"),
        ]


# ------------------------------------------------------- frame development

class FrameDevelopment:
    """exp_frame_form -> develop_frame -> frame_to_connection -> plaquettes
    -> stabiliser gauge -> system residuals, at every grid size, then the
    holonomy of the developed clifford_torus_s4 frame."""

    name = "frame_development"
    SIZES = (32, 64, 96)
    TORUS_N = 64

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        xi, eta = unit_directions(rng, 10)
        return {"sizes": self.SIZES, "xi": xi, "eta": eta,
                "gauge_amp": float(rng.uniform(0.2, 0.4)),
                "gauge_phase": rng.uniform(0.0, 2.0 * math.pi, 2).tolist()}

    def warmup_inputs(self, inputs):
        return dict(inputs, sizes=inputs["sizes"][:1])

    def run_pass(self, tw, inputs, out_dir, reference=None, tracer=None):
        ops = ("roundtrip_order", "plaquette_roundoff", "gauge_holomorphicity_invariant",
               "flatness_order", "gauge_flatness_order", "torus_holonomy")
        try:
            return self._run(tw, inputs, reference, tracer)
        except Exception as exc:  # a raising chain fails every diagnostic
            return [Outcome(f"frame/{op}", False, math.nan,
                            f"raised {type(exc).__name__}: {exc}", matches_reference=False)
                    for op in ops]

    def _run(self, tw, inputs, reference, tracer):
        ellsys, forms = tw.ellsys, tw.forms
        fx = tw.fixtures.load_algebra_fixture("so5_s4")
        hs, roundtrip, plaquette, holo_shift, flat, gauge_flat = [], [], [], [], [], []
        a, (p, q) = inputs["gauge_amp"], inputs["gauge_phase"]
        for n in inputs["sizes"]:
            if tracer is not None:
                tracer.next_rung()
            h = 1.0 / (n - 1)
            grid = forms.SurfaceGrid(nu=n, nv=n, hu=h, hv=h)
            alpha = ellsys.exp_frame_form(grid, fx, inputs["xi"], inputs["eta"])
            dev = ellsys.develop_frame(alpha, fx)
            back = ellsys.frame_to_connection(dev)
            roundtrip.append(float(np.max((back - alpha).pointwise_norm())))
            plaquette.append(ellsys.plaquette_defects(alpha, fx))
            U, V = grid.mesh()
            gauge = ellsys.stabilizer_gauge_field(
                fx, grid, a * np.sin(2 * math.pi * U + p) * np.cos(2 * math.pi * V + q))
            beta = ellsys.gauge_transform(alpha, gauge, fx)
            res_a = ellsys.system_residuals(alpha, fx.aut)
            res_b = ellsys.system_residuals(beta, fx.aut)
            ha, hb = res_a["holomorphicity"].final_sup, res_b["holomorphicity"].final_sup
            holo_shift.append(abs(ha - hb) / max(ha, 1.0))
            flat.append(res_a["flatness"].final_sup)
            gauge_flat.append(res_b["flatness"].final_sup)
            hs.append(h)

        out = []
        if len(hs) > 1:
            for op, sups in (("roundtrip_order", roundtrip), ("flatness_order", flat),
                             ("gauge_flatness_order", gauge_flat)):
                orders = observed_orders(hs, sups)
                ok = all(ORDER_WINDOW[0] <= o <= ORDER_WINDOW[1] for o in orders)
                out.append(Outcome(f"frame/{op}", ok, sups[-1],
                                   "orders " + " ".join(f"{o:.3f}" for o in orders),
                                   matches_reference=ok, seeded=True))
        worst = max(plaquette)
        ok = worst <= ROUNDOFF_FLOOR
        out.append(Outcome("frame/plaquette_roundoff", ok, worst, f"max {worst:.2e}",
                           matches_reference=ok, seeded=True))
        worst = max(holo_shift)
        ok = worst <= ROUNDOFF_FLOOR
        out.append(Outcome("frame/gauge_holomorphicity_invariant", ok, worst,
                           f"max shift {worst:.2e}", matches_reference=ok, seeded=True))
        if len(hs) > 1:
            if tracer is not None:
                tracer.next_rung()
            out.append(self._torus_holonomy(tw, reference))
        return out

    def _torus_holonomy(self, tw, reference):
        space = tw.symspace.sphere4()
        field = tw.immersion.build_immersion("clifford_torus_s4", {}, n=self.TORUS_N,
                                             space=space)
        lift = tw.immersion.twistor_lift(field)
        frame, alpha = tw.ellsys.frame_from_geometry(field, lift, space)
        with warnings.catch_warnings():
            # the O(h^2) flatness residual of a sampled frame is expected here
            warnings.simplefilter("ignore")
            dev = tw.ellsys.develop_frame(alpha, space.algebra_fixture(), g0=frame.g[0, 0])
        hol = max(dev.meta["holonomy_u"], dev.meta["holonomy_v"])
        ok = hol <= 10.0 * field.grid.h ** 2
        out = Outcome("frame/torus_holonomy", ok, hol, f"holonomy {hol:.6e}")
        if reference is not None:
            out.matches_reference = compare(hol, reference[self.name][out.op]["sup"])
        return out


WORKLOADS = {w.name: w for w in (ZcSystem(), GeometryLadder(), FrameDevelopment())}
