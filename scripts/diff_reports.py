#!/usr/bin/env python3
"""Compare two directories of `--deterministic` scenario reports.

Usage: python scripts/diff_reports.py A B

For each report file it prints one line: `byte-identical`, or the largest
relative change among numbers above the roundoff floor (1e-10, the
`exact_max` tolerance), the largest absolute change among numbers at or
below it, and the largest absolute change of a fitted slope, which is kept
apart because a slope fitted to sups at the floor moves with their
roundoff.  Changed verdicts, other changed fields and fields present on one
side only follow on lines of their own.  Exits 1 when a verdict (`verdict`
or `ok`) changed or a file exists on one side only, 0 otherwise.
"""
import argparse
import csv
import io
import json
import math
import pathlib
import sys

FLOOR = 1e-10
VERDICT_FIELDS = {"verdict", "ok"}
SLOPE_FIELD = "slope"


def _flatten(obj, path, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{path}.{k}" if path else k, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out[path] = obj
    return out


def _number(x):
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def leaves(path):
    """{field path: value} of a JSON or CSV report; CSV cells become numbers where they parse."""
    text = path.read_text()
    if path.suffix == ".json":
        return _flatten(json.loads(text), "", {})
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    out = {}
    for i, row in enumerate(rows[1:], start=1):
        for col, cell in zip(header, row):
            num = None if col in VERDICT_FIELDS else _number(cell)
            out[f"row{i}.{col}"] = cell if num is None else num
    return out


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a_path, b_path):
    """(summary line, detail lines, verdict changed) for one pair of report files."""
    if a_path.read_bytes() == b_path.read_bytes():
        return "byte-identical", [], False
    a, b = leaves(a_path), leaves(b_path)
    rel = absolute = slope = 0.0
    details, verdict_changed = [], False
    for key in sorted(set(a) | set(b)):
        if key not in b or key not in a:
            details.append(f"  only in {'A' if key in a else 'B'}: {key}")
            continue
        x, y = a[key], b[key]
        field = key.rsplit(".", 1)[-1]
        if _is_num(x) and _is_num(y):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            scale = max(abs(x), abs(y))
            if field == SLOPE_FIELD:
                slope = max(slope, abs(x - y))
            elif scale > FLOOR:
                rel = max(rel, abs(x - y) / scale)
            else:
                absolute = max(absolute, abs(x - y))
        elif x != y:
            if field in VERDICT_FIELDS:
                verdict_changed = True
                details.append(f"  VERDICT CHANGED {key}: {x!r} -> {y!r}")
            else:
                details.append(f"  changed {key}: {x!r} -> {y!r}")
    summary = (f"max relative change {rel:.2g} above {FLOOR:g}, "
               f"max absolute change {absolute:.2g} at or below {FLOOR:g}, "
               f"max slope change {slope:.2g}")
    return summary, details, verdict_changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=pathlib.Path)
    ap.add_argument("b", type=pathlib.Path)
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    names = sorted({p.name for d in (args.a, args.b) for p in d.iterdir() if p.is_file()})
    failed = False
    for name in names:
        a_path, b_path = args.a / name, args.b / name
        if not (a_path.is_file() and b_path.is_file()):
            print(f"{name}: missing in {'B' if a_path.is_file() else 'A'}")
            failed = True
            continue
        summary, details, verdict_changed = compare(a_path, b_path)
        print(f"{name}: {summary}")
        for line in details:
            print(line)
        failed |= verdict_changed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
