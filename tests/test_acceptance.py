"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints a pass/fail line through the conftest summary hook.
Ladders refine by factor 2; "converges" means log-log slope of the sup
norms at least the stated bound with the finest sup under the cap, or a
finest sup at the roundoff floor (homogeneous fixtures discretise
exactly, so there is nothing left to converge).
"""
import pathlib
import time

import numpy as np

from twistorsys import cli, ellsys, forms, immersion as im
from twistorsys import lagrangian as lg
from twistorsys import liealg, octo, symspace
from twistorsys.fixtures import load_algebra_fixture

from conftest import record_acceptance

LADDER = (32, 64, 128)
EXACT_FLOOR = 1e-12

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def geometry(kind, n, params=None, sign=+1):
    fld = im.build_immersion(kind, params or {}, n=n)
    tw = im.twistor_lift(fld, sign)
    frame, alpha = ellsys.frame_from_geometry(fld, tw)
    return fld, tw, alpha, fld.space.algebra_fixture()


def ladder(fn, ns=LADDER):
    rep = None
    for n in ns:
        r = fn(n)
        rep = r if rep is None else rep.merged(r)
    return rep


def converges(rep, slope_min=1.5, sup_max=1e-3):
    if rep.final_sup <= EXACT_FLOOR:
        return True
    slope = rep.estimated_order
    return slope is not None and slope >= slope_min and rep.final_sup <= sup_max


def describe(rep):
    slope = rep.estimated_order
    s = "exact" if rep.final_sup <= EXACT_FLOOR else (
        f"slope={slope:.2f}" if slope is not None else "single rung")
    return f"sup={rep.final_sup:.2e} {s}"


def test_algebraic_suite_runs_clean_and_fast():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("su2_order4", "so5_s4"):
        fx = load_algebra_fixture(name)
        a, aut, sp = fx.algebra, fx.aut, fx.split
        d = a.dim
        eye = np.eye(d)
        P = aut.projectors
        worst = 0.0
        worst = max(worst, float(np.max(np.abs(sum(P[k] for k in liealg.GRADES) - eye))))
        for k in liealg.GRADES:
            worst = max(worst, float(np.max(np.abs(P[k] @ P[k] - P[k]))))
            worst = max(worst, float(np.max(np.abs(aut.tau @ P[k] - (1j) ** k * P[k]))))
        for ga in liealg.GRADES:
            for gb in liealg.GRADES:
                gc = ((ga + gb + 1) % 4) - 1
                for i in range(d):
                    for j in range(d):
                        br = a.bracket_coords(P[ga] @ eye[i], P[gb] @ eye[j])
                        worst = max(worst, float(np.max(np.abs(P[gc] @ br - br))))
        r0 = liealg.check_g0_characterization(sp, aut)
        r2 = liealg.check_g2_characterization(sp, aut)
        ok &= worst <= 1e-10 and r0.residual <= 1e-10 and r2.residual <= 1e-10
        ok &= r0.converse_ok and r2.converse_ok
        h = fx.h_basis
        span = h.T @ h
        for x in h:
            for y in h:
                br = a.bracket_coords(x, y)
                worst = max(worst, float(np.max(np.abs(span @ br - br))))
        ok &= worst <= 1e-10
        details.append(f"{name}: residual {worst:.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    record_acceptance("algebraic suite at 1e-10 in under 1 s", ok,
                      "; ".join(details) + f"; {elapsed:.2f} s")


def test_frame_flatness_convergence():
    t0 = time.perf_counter()
    fx = load_algebra_fixture("so5_s4")
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(10)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(10)
    eta /= np.linalg.norm(eta)

    def rung(n):
        grid = forms.SurfaceGrid(nu=n, nv=n, hu=1.0 / (n - 1), hv=1.0 / (n - 1))
        return forms.curvature_residual(ellsys.exp_frame_form(grid, fx, xi, eta))

    rep = ladder(rung)
    elapsed = time.perf_counter() - t0
    ok = rep.estimated_order >= 1.9 and elapsed < 5.0
    record_acceptance("frame flatness slope >= 1.9 in under 5 s", ok,
                      f"{describe(rep)}; {elapsed:.2f} s")


def test_solution_system_convergence():
    t0 = time.perf_counter()
    reports = {}
    for n in LADDER:
        _, _, alpha, fx = geometry("clifford_torus", n)
        rung = ellsys.system_residuals(alpha, fx.aut)
        rung["zero_curvature_scan"] = forms.zero_curvature_scan(alpha, fx.aut)
        for name, rep in rung.items():
            reports[name] = reports[name].merged(rep) if name in reports else rep
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    details = []
    for name, rep in reports.items():
        ok &= converges(rep, slope_min=1.5, sup_max=1e-3)
        details.append(f"{name} {rep.final_sup:.1e}")
    record_acceptance("adapted-frame system residuals converge on the flat torus",
                      ok, "; ".join(details) + f"; {elapsed:.1f} s")


def test_nonsolution_stays_large():
    closure = ladder(lambda n: ellsys.covariant_closure_residual(
        geometry("perturbed_torus", n, params={"eps": 0.1})[2],
        load_algebra_fixture("se4_r4").aut))
    holo = ladder(lambda n: ellsys.holomorphicity_residual(
        geometry("perturbed_torus", n, params={"eps": 0.1})[2],
        load_algebra_fixture("se4_r4").aut))
    fld = im.build_immersion("perturbed_torus", {"eps": 0.1}, n=64)
    tw = im.twistor_lift(fld, +1)
    antiholo_H = im.holomorphic_H_residual(fld, tw).final_sup
    ok = (all(e.sup >= 1e-2 for e in closure.entries)
          and converges(holo, slope_min=1.5, sup_max=1e-2)
          and antiholo_H >= 0.1)
    record_acceptance("perturbed torus: closure residual stays >= 1e-2, "
                      "holomorphicity still converges", ok,
                      f"closure {closure.final_sup:.2e}; holo {describe(holo)}; "
                      f"|pi_-(grad H)| {antiholo_H:.2f}")


DIVERGENCE_FIXTURES = [("plane", {}), ("round_sphere", {}), ("clifford_torus", {}),
                       ("clifford_torus_s4", {}), ("product_torus", {}),
                       ("helicoid", {}), ("perturbed_torus", {}),
                       ("lagrangian_graph", {"potential": "saddle"}),
                       ("lagrangian_graph", {"potential": "cubic"})]


def test_divergence_identity_all_fixtures():
    ok = True
    details = []
    for kind, params in DIVERGENCE_FIXTURES:
        def rung(n):
            fld = im.build_immersion(kind, params, n=n)
            tw = im.twistor_lift(fld, +1)
            return im.divergence_identity_residual(fld, tw)
        rep = ladder(rung, ns=(16, 32, 64))
        good = converges(rep, slope_min=1.0, sup_max=1.0)
        ok &= good
        label = kind + (":" + params["potential"] if "potential" in params else "")
        details.append(f"{label} {'ok' if good else describe(rep)}")
    record_acceptance("traced-divergence identity holds on every fixture "
                      "(order >= 1)", ok, "; ".join(details))


def test_codazzi_identity_convergence():
    ok = True
    details = []
    for kind in ("plane", "round_sphere", "clifford_torus"):
        rep = ladder(lambda n: im.codazzi_identity_residual(
            im.build_immersion(kind, n=n)), ns=(16, 32, 64))
        good = converges(rep, slope_min=1.0, sup_max=1.0)
        ok &= good
        details.append(f"{kind} {describe(rep)}")
    record_acceptance("Codazzi identity residual converges (order >= 1)", ok,
                      "; ".join(details))


def test_lagrangian_chain():
    fld = im.build_immersion("product_torus", n=64)
    tw = im.twistor_lift(fld, +1)
    lag = lg.lagrangian_residual(fld).final_sup
    pair = lg.lagrangian_twistor_residual(fld, tw).final_sup
    maslov = ladder(lambda n: lg.maslov_identity_residual(
        *(lambda f: (f, im.twistor_lift(f, +1)))(im.build_immersion("product_torus", n=n))))
    stationary = ladder(lambda n: lg.hamiltonian_stationary_residual(
        im.build_immersion("product_torus", n=n)))
    cubic = ladder(lambda n: lg.hamiltonian_stationary_residual(
        im.build_immersion("lagrangian_graph", {"potential": "cubic"}, n=n)),
        ns=(16, 32, 64))
    ok = (lag <= 1e-10 and pair <= 1e-8
          and converges(maslov, slope_min=1.5, sup_max=1e-3)
          and converges(stationary, slope_min=1.5, sup_max=1e-3)
          and all(e.sup >= 1e-2 for e in cubic.entries))
    record_acceptance("Lagrangian chain on the product torus, cubic graph "
                      "negative control", ok,
                      f"pullback {lag:.1e}; pair {pair:.1e}; "
                      f"identity {describe(maslov)}; coclosed {describe(stationary)}; "
                      f"cubic {cubic.final_sup:.2f}")


def test_curvature_commutation():
    rng = np.random.default_rng(0)
    worst = 0.0
    space = symspace.sphere4(1.0)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        j = np.zeros((5, 5))
        j[:4, :4] = Q @ symspace.standard_kahler_structure() @ Q.T
        X = np.concatenate([rng.standard_normal(4), [0.0]])
        Y = np.concatenate([rng.standard_normal(4), [0.0]])
        worst = max(worst, symspace.curvature_commutation_residual(space, j, X, Y))
    for kind in ("plane", "clifford_torus", "round_sphere", "clifford_torus_s4"):
        fld = im.build_immersion(kind, n=32)
        tw = im.twistor_lift(fld, +1)
        worst = max(worst, im.curvature_commutator_residual(fld, tw).final_sup)
    ok = worst <= 1e-10
    record_acceptance("curvature commutation and [R, j] = 0 at 1e-10 "
                      "on space forms", ok, f"worst {worst:.2e}")


def test_octonion_suite():
    rng = np.random.default_rng(42)
    # 10 000 octonions each, component-first
    a = rng.standard_normal((10_000, 8)).T
    b = rng.standard_normal((10_000, 8)).T
    norm_defect = float(np.max(np.abs(octo.norm(octo.multiply(a, b))
                                      - octo.norm(a) * octo.norm(b))))
    L_defect = 0.0
    for _ in range(50):
        q = rng.standard_normal(8)
        q[0] = 0.0
        q /= octo.norm(q)
        L = octo.left_mult_structure(q)
        L_defect = max(L_defect,
                       float(np.max(np.abs(L @ L + np.eye(8)))),
                       float(np.max(np.abs(L.T @ L - np.eye(8)))))
    fld = im.build_immersion("octonion_graph", n=16)
    q_field, _ = octo.canonical_lift(fld)
    e1, e2 = fld.frame_planes[:2]
    drift = 0.0
    for _ in range(100):
        th = rng.uniform(0.0, 2.0 * np.pi)
        q1 = np.cos(th) * e1 + np.sin(th) * e2
        q2 = -np.sin(th) * e1 + np.cos(th) * e2
        drift = max(drift, float(np.max(np.abs(
            octo.multiply(q2, octo.conjugate(q1)) - q_field))))
    ok = norm_defect <= 1e-12 and L_defect <= 1e-12 and drift <= 1e-10
    record_acceptance("octonion suite: norm multiplicativity, structure "
                      "invariants, lift reframing drift", ok,
                      f"norm {norm_defect:.1e}; L {L_defect:.1e}; drift {drift:.1e}")


def test_gauge_invariance():
    sups = {"holomorphicity": [], "covariant_closure": [], "flatness": []}
    origs = {k: [] for k in sups}
    hs = []
    for n in LADDER:
        fld, tw, alpha, fx = geometry("clifford_torus", n)
        U, V = fld.grid.mesh()
        h = ellsys.stabilizer_gauge_field(fx, fld.grid, 0.3 * np.sin(U) * np.cos(V))
        beta = ellsys.gauge_transform(alpha, h, fx)
        res_a = ellsys.system_residuals(alpha, fx.aut)
        res_b = ellsys.system_residuals(beta, fx.aut)
        for k in sups:
            sups[k].append(res_b[k].final_sup)
            origs[k].append(res_a[k].final_sup)
        hs.append(fld.grid.h)
    graded_invariant = all(abs(a - b) <= 1e-10
                           for k in ("holomorphicity", "covariant_closure")
                           for a, b in zip(sups[k], origs[k]))
    coeffs = [s / hh ** 2 for s, hh in zip(sups["flatness"], hs)]
    floor_like = max(coeffs) <= 2.0 * min(coeffs) and sups["flatness"][-1] <= 1e-3
    ok = graded_invariant and floor_like
    record_acceptance("residual triple invariant under a smooth stabiliser "
                      "gauge up to the stencil floor", ok,
                      f"graded exact: {graded_invariant}; flatness floor "
                      f"{sups['flatness'][-1]:.1e} (h^2 coeff spread "
                      f"{max(coeffs)/min(coeffs):.2f}x)")


def test_deterministic_reports(tmp_path):
    scenarios = sorted(SCENARIO_DIR.glob("*.json"))
    assert scenarios, "shipped scenarios missing"
    outs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        for scen in scenarios:
            rc = cli.run(scen, out_dir=out, deterministic=True, echo=lambda *a: None)
            assert rc == 0, scen.name
        outs.append(out)
    identical = True
    for scen in scenarios:
        for suffix in (".csv", ".json"):
            fa = (outs[0] / (scen.stem + suffix)).read_bytes()
            fb = (outs[1] / (scen.stem + suffix)).read_bytes()
            identical &= fa == fb
    record_acceptance("two deterministic runs produce byte-identical reports",
                      identical, f"{len(scenarios)} scenarios compared")
