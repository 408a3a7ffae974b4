#!/usr/bin/env python3
"""Flip each `+`/`-` in the residual code, scale each residual by 2, and see
whether tier-1 notices.

Usage: python scripts/mutation_probe.py [--list]

The targets are the residual functions of `immersion`, `lagrangian` and
`ellsys`, the helpers that hold their equations (in `immersion` also the
plane and connection products, the second fundamental form, the mean
curvature, the frame connection, the j-anticommuting projection, the
orientation determinant, the Gram-Schmidt frames with their jump test and the
ambient j of a lift from its frame components),
the 6-sphere lift of `octo` and its residual, the centred stencil, the
component-plane norm and the graded pass of `forms` (its tiles of grid
rows, the dz coefficients, the dz derivatives, the Laurent coefficients, the
per-tile planes, the scan and the pass's own reports), the frame's g^-1 dg
(the tiled driver, its door from a sampled frame, and a field's adapted
frames with their jump and branch gates) with its term list in `fixtures`, the
trapezoidal steps, the development, the plaquette pass and the gauge
action of `ellsys`, the 1-norms and Taylor polynomial
of `liealg.matrix_exp`, and the sparse bilinear kernel of `liealg` behind
every bracket and plane product, with its one grid-last door `bracket_coords`
and the graded block bracket, and the streamed rung: the sampler, the
tile stream with its Gram-Schmidt axes and build gates, each surface check's
pointwise function and the one pass of a rung, `cli.RungContext._rung` (a
method is named `Class.method`).  Two operators make the
mutants: *flip* turns each binary `+` or `-` and each `+=` or `-=` there into
one mutant with that single operator flipped, and *scale* multiplies by 2 the
pointwise argument of each `masked_report` call there, and the plane that each
surface check's `*_pointwise` function returns, which both the public residual
and the streamed pass read: one mutant per check (`forms.curvature_residual` is
a target for its call alone).  The probe
copies what the suite reads (`src/`, `tests/`, `scenarios/`, `scripts/`,
`perfbench/`) to a temporary directory, writes one mutant at a time into the
copy, and runs the tier-1 suite there (`pytest -x`), so the checkout is never
touched.  It prints `killed` or `survived` per mutant and the counts per
operator at the end; `--list` prints the mutants without running anything.  A mutant is killed when the suite fails or times out.
Bytecode caching is off, so two mutants of the same size written within one
second cannot share a stale `.pyc`.  It takes about ten minutes on two
cores.
"""
import argparse
import ast
import io
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src") / "twistorsys"
COPIED = ("src", "tests", "scenarios", "scripts", "perfbench", "pyproject.toml")
TARGETS = {
    "immersion": ("_sample", "surface_tiles", "_normal_axes", "_conformality", "_build_gates",
                  "_gram_schmidt_frames", "_max_neighbor_jump", "_plane_product",
                  "_connection_product", "second_fundamental_form",
                  "mean_curvature", "_column_det", "frame_connection", "_anticommuting",
                  "normal_connection_derivative", "_hom_covariant_divergence", "_grad_H_hom",
                  "vertical_harmonicity_pointwise", "holomorphic_H_pointwise",
                  "divergence_identity_pointwise", "codazzi_identity_pointwise",
                  "curvature_commutator_pointwise", "TwistorField.j_ambient"),
    "cli": ("RungContext._rung",),
    "lagrangian": ("lagrangian_pointwise", "lagrangian_twistor_pointwise", "maslov_form",
                   "maslov_identity_pointwise", "hamiltonian_stationary_pointwise"),
    "forms": ("_centred", "_tiles", "_dz_coefficients", "_sq_norm", "_dz_derivative",
              "_laurent", "_tile_planes", "_scan", "graded_checks", "curvature_residual"),
    "ellsys": ("_connection", "frame_to_connection", "_adapted_frame", "_framing", "_avg",
               "develop_frame", "plaquette_defects", "gauge_transform"),
    "fixtures": ("AlgebraFixture._connection_terms",),
    "liealg": ("matrix_exp", "_taylor", "_sparse_product", "LieAlgebraRep.bracket_coords",
               "GradedBasis.bracket"),
    "octo": ("canonical_q", "twistor_from_q", "lift_pointwise"),
}
FLIP = {"+": "-", "-": "+"}
SCALED = "masked_report"   # the call whose pointwise argument (the third) the scale operator doubles
POINTWISE = "_pointwise"   # a surface check's pointwise function, whose returned plane it doubles
TIMEOUT_S = 900


def _char_col(line, byte_col):
    return len(line.encode()[:byte_col].decode())


def _operator_tokens(source):
    """(row, col) of every `+`/`-`/`+=`/`-=` operator token, so comments and
    strings never match."""
    toks = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start for t in toks
            if t.type == tokenize.OP and t.string in ("+", "-", "+=", "-=")}


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def mutants(module):
    """(operator, function, line, marked line, mutated source) for each flippable
    operator and each scaled `masked_report` argument, the change shown in brackets."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text()
    lines = source.splitlines(keepends=True)
    ops = _operator_tokens(source)
    tree = ast.parse(source).body
    funcs = {f.name: f for f in tree if isinstance(f, ast.FunctionDef)}
    funcs.update({f"{c.name}.{f.name}": f for c in tree if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)})
    missing = set(TARGETS[module]) - set(funcs)
    if missing:
        raise SystemExit(f"{module}: no function(s) {sorted(missing)}")
    for name in TARGETS[module]:
        found, scaled = [], []
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Call) and _callee(node) == SCALED:
                scaled.append(node.args[2])
                continue
            if isinstance(node, ast.Return) and name.endswith(POINTWISE):
                scaled.append(node.value)
            if isinstance(node, ast.BinOp):
                left, right = node.left, node.right
            elif isinstance(node, ast.AugAssign):
                left, right = node.target, node.value
            else:
                continue
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            lo = (left.end_lineno, _char_col(lines[left.end_lineno - 1], left.end_col_offset))
            hi = (right.lineno, _char_col(lines[right.lineno - 1], right.col_offset))
            found.append(min(pos for pos in ops if lo <= pos <= hi))
        for row, col in sorted(found):
            line = lines[row - 1]
            mutated = lines[:row - 1] + [line[:col] + FLIP[line[col]] + line[col + 1:]] + lines[row:]
            marked = f"{line[:col]}[{line[col]}]{line[col + 1:]}".strip()
            yield "flip", name, row, marked, "".join(mutated)
        for arg in scaled:
            # the argument's start and end as offsets into the source
            a, b = (sum(map(len, lines[:row - 1])) + _char_col(lines[row - 1], col)
                    for row, col in ((arg.lineno, arg.col_offset),
                                     (arg.end_lineno, arg.end_col_offset)))
            line = lines[arg.lineno - 1]
            col = _char_col(line, arg.col_offset)
            marked = f"{line[:col]}[2 *] {line[col:]}".strip()
            yield "scale", name, arg.lineno, marked, f"{source[:a]}2 * ({source[a:b]}){source[b:]}"


def run_suite(copy):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = ap.parse_args()
    todo = [(module, *m) for module in TARGETS for m in mutants(module)]
    if args.list:
        for module, op, name, row, marked, _ in todo:
            print(f"{op:5s}  {module}.{name}:{row}  {marked}")
        for op in ("flip", "scale"):
            print(f"{sum(t[1] == op for t in todo)} {op} mutants")
        return 0
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        copy = pathlib.Path(tmp)
        for entry in COPIED:
            src = ROOT / entry
            if src.is_dir():
                shutil.copytree(src, copy / entry,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, copy / entry)
        if not run_suite(copy):
            print("the unmutated suite fails; nothing to probe")
            return 2
        survivors = {"flip": 0, "scale": 0}
        for module, op, name, row, marked, mutated in todo:
            target = copy / PACKAGE / f"{module}.py"
            original = target.read_text()
            target.write_text(mutated)
            try:
                killed = not run_suite(copy)
            finally:
                target.write_text(original)
            survivors[op] += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'}  {op:5s}  {module}.{name}:{row}  {marked}",
                  flush=True)
    for op, left in survivors.items():
        total = sum(t[1] == op for t in todo)
        print(f"{op}: {total} mutants, {total - left} killed, {left} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
