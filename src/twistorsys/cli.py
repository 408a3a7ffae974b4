"""Scenario runner: named fixtures, check suites over refinement ladders,
CSV/JSON residual reports with a convergence classifier.

Scenario files are JSON:

    {
      "fixture": {"kind": "clifford_torus", "params": {}},
      "model_space": {"kind": "euclidean4"},
      "grid_ladder": [32, 64, 128],
      "checks": ["holomorphicity", "covariant_closure", "flatness"],
      "lambda_samples": [{"re": 0.0, "im": 1.0}],
      "expect": "converge",
      "tolerances": {"slope_min": 1.5}
    }

Classifier: a ladder converges when the log-log slope of the sup norms is
at least slope_min and the finest sup is below final_sup_max, or when the
finest sup sits at the roundoff floor (homogeneous fixtures discretise
exactly, leaving nothing to converge).  stay_large requires the finest
sup to stay above stay_large_min; exact requires it below exact_max.
"""
from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from . import ellsys, forms, immersion, lagrangian, octo, symspace
from .fixtures import load_algebra_fixture
from .forms import ResidualReport


class ScenarioError(Exception):
    """Raised for malformed scenarios, unknown fixtures or unusable checks."""


@dataclass
class Tolerances:
    slope_min: float = 1.5
    final_sup_max: float = 1e-3
    stay_large_min: float = 1e-2
    exact_floor: float = 1e-12
    exact_max: float = 1e-10

    @classmethod
    def from_dict(cls, d):
        t = cls()
        for k, v in (d or {}).items():
            if not hasattr(t, k):
                raise ScenarioError(f"unknown tolerance {k!r}")
            setattr(t, k, float(v))
        return t


def classify(report: ResidualReport, expect: str, tol: Tolerances):
    """Returns (verdict string, ok flag)."""
    if not report.meta.get("consistent", True):
        return "inconsistent-pair", False
    final = report.final_sup
    slope = report.estimated_order
    if expect == "converge":
        if final <= tol.exact_floor:
            return "converged-exact", True
        if slope is None:
            return ("converged" if final <= tol.final_sup_max else "too-large",
                    final <= tol.final_sup_max)
        ok = slope >= tol.slope_min and final <= tol.final_sup_max
        return (f"converged" if ok else "no-convergence", ok)
    if expect == "stay_large":
        ok = final >= tol.stay_large_min
        return ("stayed-large" if ok else "unexpectedly-small", ok)
    if expect == "exact":
        ok = final <= tol.exact_max
        return ("exact" if ok else "not-exact", ok)
    raise ScenarioError(f"unknown expectation {expect!r}")


class RungContext:
    """Everything the checks can ask for at a single ladder rung."""

    def __init__(self, scenario, n):
        self.scenario = scenario
        self.n = n

    @functools.cached_property
    def space(self):
        ms = self.scenario["model_space"]
        if isinstance(ms, str):
            ms = {"kind": ms}
        return symspace.model_space(ms["kind"], **ms.get("params", {}))

    @functools.cached_property
    def field(self):
        kind = self.scenario["fixture"]["kind"]
        if kind == "exp_frame":
            raise ScenarioError("this check needs a surface fixture, not exp_frame")
        params = self.scenario["fixture"].get("params", {})
        try:
            return immersion.build_immersion(kind, params, n=self.n, space=self.space)
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc

    @functools.cached_property
    def octonion_lift(self):
        """(q, TwistorField) from `octo.canonical_lift`."""
        return octo.canonical_lift(self.field)

    @functools.cached_property
    def tw(self):
        if self.field.ambient_dim == 8:
            return self.octonion_lift[1]
        return immersion.twistor_lift(self.field, self.scenario.get("lift_sign", +1))

    @functools.cached_property
    def frame_and_form(self):
        kind = self.scenario["fixture"]["kind"]
        if kind == "exp_frame":
            params = self.scenario["fixture"].get("params", {})
            fx = load_algebra_fixture(params.get("algebra", "so5_s4"))
            d = fx.algebra.dim
            rng = np.random.default_rng(int(params.get("seed", 1)))
            xi = np.asarray(params.get("xi", rng.standard_normal(d)), dtype=float)
            eta = np.asarray(params.get("eta", rng.standard_normal(d)), dtype=float)
            xi /= np.linalg.norm(xi)
            eta /= np.linalg.norm(eta)
            grid = forms.SurfaceGrid(nu=self.n, nv=self.n, hu=1.0 / (self.n - 1),
                                     hv=1.0 / (self.n - 1))
            alpha = ellsys.exp_frame_form(grid, fx, xi, eta)
            return None, alpha, fx.aut
        frame, alpha = ellsys.frame_from_geometry(self.field, self.tw, self.space)
        return frame, alpha, self.space.algebra_fixture().aut

    @property
    def alpha(self):
        return self.frame_and_form[1]

    @property
    def aut(self):
        return self.frame_and_form[2]

    def lambda_samples(self):
        raw = self.scenario.get("lambda_samples")
        if raw is None:
            return None
        return [complex(d["re"], d["im"]) for d in raw]


def _check_holomorphicity(ctx):
    return ellsys.holomorphicity_residual(ctx.alpha, ctx.aut)


def _check_covariant_closure(ctx):
    return ellsys.covariant_closure_residual(ctx.alpha, ctx.aut)


def _check_flatness(ctx):
    return ellsys.flatness_residual(ctx.alpha)


def _check_zero_curvature_scan(ctx):
    return forms.zero_curvature_scan(ctx.alpha, ctx.aut, ctx.lambda_samples())


def _check_vertical_harmonicity(ctx):
    return immersion.vertical_harmonicity_residual(ctx.field, ctx.tw)


def _check_holomorphic_H(ctx):
    return immersion.holomorphic_H_residual(ctx.field, ctx.tw)


def _check_divergence_identity(ctx):
    return immersion.divergence_identity_residual(ctx.field, ctx.tw)


def _check_codazzi(ctx):
    return immersion.codazzi_identity_residual(ctx.field, ctx.space)


def _check_curvature_commutator(ctx):
    return immersion.curvature_commutator_residual(ctx.field, ctx.tw, ctx.space)


def _check_lagrangian(ctx):
    return lagrangian.lagrangian_residual(ctx.field, ctx.space)


def _check_lagrangian_twistor(ctx):
    res = lagrangian.lagrangian_twistor_check(ctx.field, ctx.tw, ctx.space)
    rep = ResidualReport("lagrangian_twistor", meta={"consistent": res["consistent"]})
    sup = max(res["anticommutator_sup"], res["lagrangian_sup"])
    return rep.add(ctx.field.grid.h, sup, sup)


def _check_maslov_identity(ctx):
    return lagrangian.maslov_identity_residual(ctx.field, ctx.tw, ctx.space)


def _check_hamiltonian_stationary(ctx):
    return lagrangian.hamiltonian_stationary_residual(ctx.field, ctx.space)


def _check_octonion_lift(ctx):
    q = ctx.octonion_lift[0]
    drift = 0.0
    rng = np.random.default_rng(7)
    for _ in range(16):
        th = rng.uniform(0.0, 2.0 * np.pi)
        q1 = np.cos(th) * ctx.field.e1 + np.sin(th) * ctx.field.e2
        q2 = -np.sin(th) * ctx.field.e1 + np.cos(th) * ctx.field.e2
        drift = max(drift, float(np.max(np.abs(octo.multiply(q2, octo.conjugate(q1)) - q))))
    unit = float(np.max(np.abs(octo.norm(q) - 1.0)))
    imag = float(np.max(np.abs(q[..., 0])))
    sup = max(drift, unit, imag)
    rep = ResidualReport("octonion_lift", meta={"reframing_drift": drift})
    return rep.add(ctx.field.grid.h, sup, sup)


CHECKS = {
    "holomorphicity": _check_holomorphicity,
    "covariant_closure": _check_covariant_closure,
    "flatness": _check_flatness,
    "zero_curvature_scan": _check_zero_curvature_scan,
    "vertical_harmonicity": _check_vertical_harmonicity,
    "holomorphic_H": _check_holomorphic_H,
    "divergence_identity": _check_divergence_identity,
    "codazzi_identity": _check_codazzi,
    "curvature_commutator": _check_curvature_commutator,
    "lagrangian": _check_lagrangian,
    "lagrangian_twistor": _check_lagrangian_twistor,
    "maslov_identity": _check_maslov_identity,
    "hamiltonian_stationary": _check_hamiltonian_stationary,
    "octonion_lift": _check_octonion_lift,
}


def list_checks():
    return sorted(CHECKS)


def list_fixtures():
    return sorted(immersion.list_fixture_kinds() + ["exp_frame"])


SCENARIO_KEYS = {"name", "fixture", "model_space", "grid_ladder", "checks", "expect",
                 "tolerances", "lambda_samples", "lift_sign"}


def load_scenario(path):
    path = pathlib.Path(path)
    try:
        scen = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(scen, dict):
        raise ScenarioError(f"scenario {path} is not a JSON object")
    unknown = sorted(set(scen) - SCENARIO_KEYS)
    if unknown:
        raise ScenarioError(f"scenario {path} has unknown fields {unknown}")
    raw = scen.get("lambda_samples")
    if raw is not None and not (isinstance(raw, list) and raw):
        raise ScenarioError("lambda_samples must be a non-empty list")
    for d in raw or []:
        if not (isinstance(d, dict) and set(d) == {"re", "im"}
                and all(type(x) in (int, float) for x in d.values()) and (d["re"] or d["im"])):
            raise ScenarioError(f"lambda sample {d!r} is not a nonzero {{'re': x, 'im': y}}")
    scen.setdefault("name", path.stem)
    for key in ("fixture", "grid_ladder", "checks", "expect"):
        if key not in scen:
            raise ScenarioError(f"scenario {path} misses field {key!r}")
    scen.setdefault("model_space", {"kind": "euclidean4"})
    kind = scen["fixture"].get("kind")
    if kind != "exp_frame" and kind not in immersion.FIXTURE_BUILDERS:
        raise ScenarioError(f"unknown fixture {kind!r}")
    for c in scen["checks"]:
        if c not in CHECKS:
            raise ScenarioError(f"unknown check {c!r}")
    return scen


def run_scenario(scen):
    """Returns a list of (check name, merged report, verdict, ok)."""
    tol = Tolerances.from_dict(scen.get("tolerances"))
    results = []
    reports = {}
    for n in scen["grid_ladder"]:
        ctx = RungContext(scen, int(n))
        for name in scen["checks"]:
            rep = CHECKS[name](ctx)
            reports[name] = reports[name].merged(rep) if name in reports else rep
    for name in scen["checks"]:
        rep = reports[name]
        verdict, ok = classify(rep, scen["expect"], tol)
        results.append((name, rep, verdict, ok))
    return results


def _fmt(x):
    return f"{x:.17g}"


def write_reports(scen, results, out_dir, deterministic=False):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["scenario,check,h,sup,l2,slope,verdict"]
    payload = {"scenario": scen["name"], "expect": scen["expect"], "checks": []}
    if not deterministic:
        import datetime
        payload["timestamp"] = datetime.datetime.now().isoformat()
    for name, rep, verdict, ok in results:
        d = rep.as_dict()
        slope = d["estimated_order"]
        slope_str = "" if slope is None else _fmt(slope)
        for e in d["entries"]:
            lines.append(",".join([scen["name"], name, _fmt(e["h"]), _fmt(e["sup"]),
                                   _fmt(e["l2"]), slope_str, verdict]))
        payload["checks"].append({
            "name": name, "verdict": verdict, "ok": ok,
            "slope": slope,
            "entries": d["entries"],
            "meta": {k: v for k, v in rep.meta.items() if isinstance(v, (int, float, bool, str))},
        })
    csv_path = out_dir / f"{scen['name']}.csv"
    json_path = out_dir / f"{scen['name']}.json"
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return csv_path, json_path


def run(path, out_dir="reports", deterministic=False, echo=print):
    try:
        scen = load_scenario(path)
        results = run_scenario(scen)
    except ScenarioError as exc:
        echo(f"error: {exc}")
        return 2
    write_reports(scen, results, out_dir, deterministic)
    all_ok = True
    for name, rep, verdict, ok in results:
        slope = rep.estimated_order
        s = "" if slope is None else f" slope={slope:.2f}"
        echo(f"[{'ok' if ok else 'FAIL'}] {scen['name']}/{name}: sup={rep.final_sup:.3e}{s} ({verdict})")
        all_ok &= ok
    return 0 if all_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="twistorsys",
                                     description="scenario-driven residual checks")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="reports")
    p_run.add_argument("--deterministic", action="store_true",
                       help="omit time-dependent report content")
    sub.add_parser("list-fixtures", help="list fixture kinds")
    sub.add_parser("list-checks", help="list check names")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, out_dir=args.out, deterministic=args.deterministic)
    if args.command == "list-fixtures":
        print("\n".join(list_fixtures()))
        return 0
    if args.command == "list-checks":
        print("\n".join(list_checks()))
        return 0
    parser.print_usage()
    return 2


if __name__ == "__main__":
    sys.exit(main())
