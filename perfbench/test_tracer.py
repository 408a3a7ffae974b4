"""Self-test of the benchmark's tracer and known-defect rule: python3 -m pytest perfbench -q"""
import math

import pytest

import run
import tracer as tracer_mod

TW, WL = run.import_program()
SMALL_FRAME = {"sizes": (16, 24, 32)}


def make_tracer():
    counters = run.BracketCounters()
    tr = tracer_mod.Tracer([getattr(TW, m) for m in run.MODULES], hooks={run.BRACKET: counters},
                           rung_class=TW.cli.RungContext)
    counters.tracer = tr
    return tr, counters


def small_inputs(name, seed=3):
    w = WL.WORKLOADS[name]
    inputs = w.inputs(seed)
    if name == "frame_development":
        return w, dict(inputs, **SMALL_FRAME)
    return w, [dict(s, grid_ladder=[16, 24, 32][:len(s["grid_ladder"])]) for s in inputs]


def traced_pass(tr, w, inputs, out_dir):
    with tr:
        tr.pass_id = 0
        root = tr.open_span("bench.pass")
        outcomes = w.run_pass(TW, inputs, out_dir, tracer=tr)
        tr.close_span(root)
    return outcomes, root


@pytest.mark.parametrize("name", ["zc_system", "frame_development"])
def test_traced_and_untraced_passes_agree(name, tmp_path):
    w, inputs = small_inputs(name)
    plain = w.run_pass(TW, inputs, tmp_path)
    tr, _ = make_tracer()
    traced, _ = traced_pass(tr, w, inputs, tmp_path)
    assert [(o.op, o.verdict, o.ok) for o in plain] == [(o.op, o.verdict, o.ok) for o in traced]
    for a, b in zip(plain, traced):
        assert a.value == b.value or (math.isnan(a.value) and math.isnan(b.value)), a.op


def test_layer_self_times_sum_to_pass_wall(tmp_path):
    w, inputs = small_inputs("zc_system")
    tr, counters = make_tracer()
    _, root = traced_pass(tr, w, inputs, tmp_path)
    m = run.layer_metrics(tracer_mod, tr.spans, 0, counters)
    total = sum(m[f"{mod}.self_s"] for mod in run.MODULES + ("bench",))
    assert total == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-9)
    assert m["liealg.bracket_coords.calls"] > 0
    assert m["liealg.bracket_coords.computed.useful_madds"] < m[
        "liealg.bracket_coords.computed.dense_madds"]
    # one flatness check plus 24 loop-family samples per rung of a surface scenario
    assert m["forms.curvature_residual.per_rung"] == 25


def test_install_covers_imported_names_and_methods_only():
    tr, _ = make_tracer()
    orig_partial_u = TW.forms.partial_u
    orig_bracket = TW.liealg.LieAlgebraRep.bracket_coords
    orig_avg = TW.ellsys._avg
    with tr:
        # `immersion` and `lagrangian` bind forms.partial_u by `from ... import`
        assert TW.immersion.partial_u is TW.forms.partial_u is TW.lagrangian.partial_u
        assert TW.forms.partial_u.__wrapped__ is orig_partial_u
        assert TW.liealg.LieAlgebraRep.bracket_coords.__wrapped__ is orig_bracket
        assert TW.ellsys._avg is orig_avg  # private helpers stay unwrapped
        field = TW.immersion.build_immersion("round_sphere", {}, n=16)
        TW.immersion.second_fundamental_form(field)
    names = {r[0] for r in tr.spans}
    assert "forms.partial_u" in names
    assert not any(".__" in n or "._" in n for n in names)
    sff = [i for i, r in enumerate(tr.spans) if r[0] == "immersion.second_fundamental_form"]
    assert any(r[3] == sff[0] and r[0] == "forms.partial_u" for r in tr.spans)
    assert TW.forms.partial_u is orig_partial_u
    assert TW.immersion.partial_u is orig_partial_u
    assert TW.liealg.LieAlgebraRep.bracket_coords is orig_bracket


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, 0, 0], ["b", 1.0, 4.0, 0, 0, 0], ["b", 5.0, 6.0, 0, 0, 0],
             ["c", 2.0, 3.0, 1, 0, 0]]
    out = tracer_mod.self_times(spans, lambda r: True)
    assert out["a"] == (6.0, 1, 10.0)
    assert out["b"] == (3.0, 2, 4.0)
    assert out["c"] == (1.0, 1, 1.0)


def test_known_defects_are_held_at_their_seed_verdict(tmp_path, monkeypatch):
    w = WL.WORKLOADS["geometry_ladder"]
    product = [s for s in w.inputs(3) if s["name"] == "product_torus"]
    outcomes = {o.op: o for o in w.run_pass(TW, product, tmp_path, WL.load_reference())}
    defects = WL.KNOWN_DEFECTS["geometry_ladder"]
    for op, verdict in defects.items():
        assert outcomes[op].known_defect and outcomes[op].ok and outcomes[op].verdict == verdict
    assert all(o.ok and o.matches_reference for o in outcomes.values())
    # a verdict other than the seed verdict or the expectation fails
    monkeypatch.setitem(WL.KNOWN_DEFECTS, "geometry_ladder",
                        {op: "stayed-large" for op in defects})
    outcomes = {o.op: o for o in w.run_pass(TW, product, tmp_path)}
    assert not any(outcomes[op].ok or outcomes[op].known_defect for op in defects)
