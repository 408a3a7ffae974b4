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

An omitted model_space is the fixture's own.  `load_scenario` checks a scenario
against the declarations (`immersion.FIXTURES`, `EXP_FRAME_PARAMS`, the model-space
constructors' defaults, `CHECKS`) and raises ScenarioError (exit 2) before the first
rung for anything they rule out.  A geometry error (an `immersion.ImmersionError` or
`lagrangian.NotLagrangian`) shows only at the first rung; it also exits 2.

Classifier: a ladder converges when the log-log slope of the sup norms is
at least slope_min and the finest sup is below final_sup_max, or when the
finest sup sits at the roundoff floor (homogeneous fixtures discretise
exactly, leaving nothing to converge).  stay_large requires the finest
sup to stay above stay_large_min; exact requires it below exact_max.
"""
from __future__ import annotations

import collections
import functools
import inspect
import json
import math
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from . import ellsys, forms, immersion, lagrangian, octo, symspace
from .fixtures import ALGEBRA_FIXTURES, load_algebra_fixture


class ScenarioError(Exception):
    """Raised for malformed scenarios, unknown fixtures or unusable checks."""


def _number(x, types=(int, float)):
    """Whether x is a finite JSON number of one of `types`; booleans are not numbers."""
    return type(x) in types and math.isfinite(x)


def _has_type_of(value, default):
    """Whether a JSON value has the type of a declared default: a float takes any
    number, an int an integer, a tuple or None (drawn from a seed) a list of numbers."""
    if type(default) in (int, float):
        return _number(value, (int, type(default)))
    if default is None or type(default) is tuple:
        return type(value) is list and all(_number(x) for x in value)
    return type(value) is type(default)


def _check_params(what, params, declared):
    """Check a JSON object against declared defaults: its names, and each value's type."""
    if not isinstance(params, dict):
        raise ScenarioError(f"{what} must be an object, not {params!r}")
    unknown = sorted(set(params) - set(declared))
    if unknown:
        raise ScenarioError(f"{what} has unknown names {unknown}; it takes {sorted(declared)}")
    for name, value in params.items():
        if not _has_type_of(value, declared[name]):
            raise ScenarioError(f"{what}: {name} = {value!r} does not have the type of "
                                f"its default {declared[name]!r}")


@dataclass
class Tolerances:
    slope_min: float = 1.5
    final_sup_max: float = 1e-3
    stay_large_min: float = 1e-2
    exact_floor: float = 1e-12
    exact_max: float = 1e-10

    @classmethod
    def from_dict(cls, d):
        d = {} if d is None else d
        _check_params("tolerances", d, vars(cls()))
        return cls(**{k: float(v) for k, v in d.items()})


def classify(report: forms.ResidualReport, expect: str, tol: Tolerances):
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


class _Tile:
    """A row tile of a surface rung: its field, with the lift and the octonion lift
    that a check reads built when it first reads them."""

    def __init__(self, field, sign):
        self.field, self.sign = field, sign

    @functools.cached_property
    def octonion_lift(self):
        """The 6-sphere valued lift q of `octo.canonical_q`."""
        return octo.canonical_q(self.field)

    @functools.cached_property
    def tw(self):
        if self.field.ambient_dim == 8:
            return octo.twistor_from_q(self.field, self.octonion_lift)
        return immersion.twistor_lift(self.field, self.sign)


class RungContext:
    """Everything the checks can ask for at a single ladder rung."""

    def __init__(self, scenario, n):
        self.scenario = scenario
        self.n = n

    @functools.cached_property
    def space(self):
        ms = self.scenario["model_space"]
        return symspace.model_space(ms["kind"], **ms.get("params", {}))

    @functools.cached_property
    def _rung(self):
        """(alpha, the grading of its algebra, {name: report} of the surface checks):
        exp_frame's analytic alpha, or one pass over the row tiles of
        `immersion.surface_tiles`, in which each tile's field and lift give its planes of
        each surface check and, for frame checks, its adapted frames, from which
        `ellsys._connection` forms its rows of alpha = g^-1 dg; a tile does first what the
        scenario's first check needs.  The reports are taken under the whole grid's masks
        once the whole-grid gates that the tiles reduce pass, in the order first read."""
        fixture, checks = self.scenario["fixture"], self.scenario["checks"]
        if fixture["kind"] == "exp_frame":
            fx, xi, eta = exp_frame_inputs(fixture.get("params", {}))
            grid = forms.SurfaceGrid(nu=self.n, nv=self.n, hu=1.0 / (self.n - 1),
                                     hv=1.0 / (self.n - 1))
            return ellsys.exp_frame_form(grid, fx, xi, eta), fx.aut, {}
        sign = self.scenario.get("lift_sign", +1)
        names = [c for c in checks if c in SURFACE_CHECKS]
        framed = [c not in SURFACE_CHECKS for c in checks]
        gates, planes = {}, {}
        grid, fields = immersion.surface_tiles(fixture["kind"], fixture.get("params", {}), self.n,
                                               self.space, gates)
        branch = np.empty((grid.nu, grid.nv), bool)

        def stream():
            for field, keep, dest in fields:
                tile = _Tile(field, sign)
                G = ellsys._adapted_frame(field, tile.tw, self.space) if framed[0] else None
                for name in names:
                    plane = SURFACE_CHECKS[name][0](tile)
                    if name not in planes:
                        planes[name] = np.empty(plane.shape[:-2] + branch.shape)
                    planes[name][..., dest, :] = plane[..., keep, :]
                branch[dest] = field.branch_mask[keep]
                if G is None and any(framed):
                    G = ellsys._adapted_frame(field, tile.tw, self.space)
                del field, tile   # before the next tile is sampled
                yield G, keep, dest
                del G
        tiles, frame = stream(), self.space.algebra_fixture() if any(framed) else None
        alpha = frame and ellsys._connection(grid, frame, tiles)
        collections.deque(tiles, 0)   # the pass of a rung without frame checks
        for verdict, stats in gates.items():
            verdict(*stats)
        out = {}
        for name in names:
            _, margin, _, *report = SURFACE_CHECKS[name]
            out[name] = (report[0] if report else forms.masked_report)(
                name, grid.h, planes.pop(name), immersion._report_mask(grid, branch, margin))
        return alpha, frame and frame.aut, out

    @functools.cached_property
    def graded(self):
        """{name: report} of every graded check in the scenario, from one
        `forms.graded_checks` pass."""
        names = [c for c in self.scenario["checks"] if c in forms.GRADED_CHECKS]
        return forms.graded_checks(self.alpha, self.aut, names, self.lambda_samples())

    # the rung's alpha, the grading of its algebra and its surface reports
    alpha = property(lambda self: self._rung[0])
    aut = property(lambda self: self._rung[1])
    surface = property(lambda self: self._rung[2])

    def lambda_samples(self):
        raw = self.scenario.get("lambda_samples")
        return None if raw is None else [complex(d["re"], d["im"]) for d in raw]


# exp_frame's params with their defaults; None is a vector drawn from the seed
EXP_FRAME_PARAMS = {"algebra": "so5_s4", "seed": 1, "xi": None, "eta": None}


def exp_frame_inputs(params):
    """(algebra fixture, unit xi, unit eta) of exp_frame with `params` over EXP_FRAME_PARAMS;
    KeyError for an algebra other than a shipped one, ValueError for a bad seed or vector."""
    p = {**EXP_FRAME_PARAMS, **params}
    if p["algebra"] not in ALGEBRA_FIXTURES:
        raise KeyError(f"unknown algebra {p['algebra']!r}; shipped: {ALGEBRA_FIXTURES}")
    fx = load_algebra_fixture(p["algebra"])
    d = fx.algebra.dim
    rng = np.random.default_rng(p["seed"])
    drawn = {"xi": rng.standard_normal(d), "eta": rng.standard_normal(d)}
    xi, eta = (np.asarray(drawn[k] if p[k] is None else p[k], dtype=float) for k in drawn)
    if any(v.shape != (d,) or not np.linalg.norm(v) > 0 for v in (xi, eta)):
        raise ValueError(f"xi and eta must be nonzero vectors of length {d}")
    return fx, xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)


# What a check needs: the model spaces of the surface fixtures it serves, and
# "exp_frame" if it serves that fixture.  KAHLER: the spaces with a Kahler structure.
FRAME = {"exp_frame", *symspace.FRAME_GROUPS}
SURFACE = set(symspace.MODEL_SPACES)
KAHLER = {kind for kind, make in symspace.MODEL_SPACES.items() if make().kahler is not None}

# surface check -> (its pointwise plane or planes on a row tile t, the margin of its
# report mask, what it needs, and, when not `forms.masked_report`, its report from the
# whole-grid planes); each function is looked up when called
SURFACE_CHECKS = {
    "vertical_harmonicity": (
        lambda t: immersion.vertical_harmonicity_pointwise(t.field, t.tw), 2, SURFACE),
    "holomorphic_H": (lambda t: immersion.holomorphic_H_pointwise(t.field, t.tw), 2, SURFACE),
    "divergence_identity": (
        lambda t: immersion.divergence_identity_pointwise(t.field, t.tw), 2, SURFACE),
    "codazzi_identity": (lambda t: immersion.codazzi_identity_pointwise(t.field), 2, SURFACE),
    "curvature_commutator": (
        lambda t: immersion.curvature_commutator_pointwise(t.field, t.tw), 0, SURFACE),
    "lagrangian": (lambda t: lagrangian.lagrangian_pointwise(t.field), 0, KAHLER),
    "lagrangian_twistor": (lambda t: lagrangian.lagrangian_twistor_pointwise(t.field, t.tw), 0,
                           KAHLER, lambda *a: lagrangian.lagrangian_twistor_report(*a)),
    "maslov_identity": (lambda t: lagrangian.maslov_identity_pointwise(t.field, t.tw), 2, KAHLER),
    "hamiltonian_stationary": (
        lambda t: lagrangian.hamiltonian_stationary_pointwise(t.field), 2, KAHLER),
    "octonion_lift": (lambda t: octo.lift_pointwise(t.field, t.octonion_lift), 0, {"euclidean8"},
                      lambda *a: octo.lift_report(*a)),
}

# check name -> (check of a RungContext, what it needs)
CHECKS = {
    "holomorphicity": (lambda c: c.graded["holomorphicity"], FRAME),
    "covariant_closure": (lambda c: c.graded["covariant_closure"], FRAME),
    "flatness": (lambda c: forms.curvature_residual(c.alpha), FRAME),
    "zero_curvature_scan": (lambda c: c.graded["zero_curvature_scan"], FRAME),
    **{name: (lambda c, name=name: c.surface[name], needs)
       for name, (_, _, needs, *_) in SURFACE_CHECKS.items()},
}


def list_checks():
    return sorted(CHECKS)


def list_fixtures():
    return sorted(immersion.list_fixture_kinds() + ["exp_frame"])


# the fields of a scenario, with values of the JSON type each must have
SCENARIO_FIELDS = {"name": "", "fixture": {}, "model_space": {}, "grid_ladder": [], "checks": [],
                   "expect": "", "tolerances": {}, "lambda_samples": [], "lift_sign": 1}
EXPECTATIONS = ("converge", "stay_large", "exact")
KIND_AND_PARAMS = {"kind": "", "params": {}}   # the fields of fixture and model_space


def load_scenario(path):
    """Parse a scenario file and check it against the declarations of its fixture,
    model space and checks: ScenarioError here, before the first rung."""
    path = pathlib.Path(path)
    try:
        scen = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    _check_params(f"scenario {path}", scen, SCENARIO_FIELDS)
    raw = scen.get("lambda_samples")
    if raw == []:
        raise ScenarioError("lambda_samples must not be empty")
    for d in raw or []:
        if not (isinstance(d, dict) and set(d) == {"re", "im"}
                and all(_number(x) for x in d.values()) and (d["re"] or d["im"])):
            raise ScenarioError(f"lambda sample {d!r} is not a nonzero finite {{'re': x, 'im': y}}")
    scen.setdefault("name", path.stem)
    if scen["name"] in ("", ".", "..") or any(sep in scen["name"] for sep in "/\\"):
        raise ScenarioError(f"scenario name {scen['name']!r} is not a plain file name")
    for key in ("fixture", "grid_ladder", "checks", "expect"):
        if key not in scen:
            raise ScenarioError(f"scenario {path} misses field {key!r}")
    ladder = scen["grid_ladder"]
    if not (ladder and all(_number(n, (int,)) and n >= 8 for n in ladder)):
        raise ScenarioError(f"grid_ladder {ladder!r} is not a non-empty list of integers >= 8")
    if len(set(ladder)) != len(ladder):
        raise ScenarioError(f"grid_ladder {ladder!r} repeats a grid size")
    if scen["expect"] not in EXPECTATIONS:
        raise ScenarioError(f"unknown expectation {scen['expect']!r}, expected one of {EXPECTATIONS}")

    _check_params("fixture", scen["fixture"], KIND_AND_PARAMS)
    kind, params = scen["fixture"].get("kind"), scen["fixture"].get("params", {})
    surface = kind in immersion.FIXTURES
    if surface:
        declared, own = immersion.fixture_params(kind), immersion.FIXTURES[kind].space
    elif kind == "exp_frame":
        # exp_frame reads no model space; euclidean4 stands in for an omitted one
        declared, own = EXP_FRAME_PARAMS, "euclidean4"
    else:
        raise ScenarioError(f"unknown fixture {kind!r}")
    _check_params(f"fixture {kind!r} params", params, declared)
    try:
        sample = immersion.check_param_values(kind, params) if surface else exp_frame_inputs(params)
    except (LookupError, ValueError, ArithmeticError, OSError, forms.GridError) as exc:
        raise ScenarioError(f"fixture {kind!r} cannot take params {params!r}: {exc}") from exc

    ms = scen.setdefault("model_space", {"kind": own})
    _check_params("model_space", ms, KIND_AND_PARAMS)
    ms_kind = ms.get("kind")
    if ms_kind not in symspace.MODEL_SPACES:
        raise ScenarioError(f"unknown model_space {ms_kind!r}")
    _check_params(f"model_space {ms_kind!r} params", ms.get("params", {}),
                  {k: v.default for k, v in
                   inspect.signature(symspace.MODEL_SPACES[ms_kind]).parameters.items()})
    try:
        space = symspace.model_space(ms_kind, **ms.get("params", {}))
    except ValueError as exc:
        raise ScenarioError(f"unusable model_space {ms!r}: {exc}") from exc
    if surface and space.ambient_dim != symspace.model_space(own).ambient_dim:
        raise ScenarioError(f"fixture {kind!r} lives in {own!r}, not in the "
                            f"{space.ambient_dim}-dimensional {ms_kind!r}")
    off = abs(np.linalg.norm(sample) - space.radius) if surface and space.radius else 0.0
    if off > 8 * np.finfo(float).eps * space.radius:
        raise ScenarioError(f"fixture {kind!r} is {off:.3e} off its sphere of radius {space.radius}")
    # exp_frame has no lift, and the octonion lift of a surface in R^8 has no sign
    signs = (1, -1) if surface and space.ambient_dim != 8 else (1,)
    if scen.get("lift_sign", 1) not in signs:
        raise ScenarioError(f"lift_sign of fixture {kind!r} in {ms_kind!r} must be one of "
                            f"{signs}, not {scen['lift_sign']!r}")
    checks = scen["checks"]
    if not checks:
        raise ScenarioError("checks must not be empty")
    for c in checks:
        if type(c) is not str or c not in CHECKS:
            raise ScenarioError(f"unknown check {c!r}")
        where = ms_kind if surface else kind
        if where not in CHECKS[c][1]:
            raise ScenarioError(f"check {c!r} runs on {sorted(CHECKS[c][1])}, not on "
                                f"fixture {kind!r} in {ms_kind!r}")
    if len(set(checks)) != len(checks):
        raise ScenarioError(f"checks {checks!r} name a check twice")
    return scen


def run_scenario(scen):
    """Returns a list of (check name, merged report, verdict, ok)."""
    tol = Tolerances.from_dict(scen.get("tolerances"))
    results = []
    reports = {}
    for n in scen["grid_ladder"]:
        ctx = RungContext(scen, int(n))
        for name in scen["checks"]:
            rep = CHECKS[name][0](ctx)
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
    """Run a scenario file and write its reports; returns the exit code: 0 when
    every check meets the expectation, 1 when one does not, 2 for a scenario that
    `load_scenario` rejects or whose geometry fails at a rung (no report then)."""
    try:
        scen = load_scenario(path)
        results = run_scenario(scen)
    except (ScenarioError, immersion.ImmersionError, lagrangian.NotLagrangian) as exc:
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
    import argparse   # here, its one user, so that importing the module does not load it

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
