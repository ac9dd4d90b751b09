#!/usr/bin/env python3
"""Compare the CLI reports of this checkout with those of a git revision.

    python3 scripts/report_compare.py HEAD

Runs report_digest.py's job list on this checkout and on a `git archive`
export of REV, compares each command's exit code and stdout (its --out
directory written as `<out>`), then reads every report file of both runs
field by field:
JSON leaves by key path (list entries as `[]`), CSV cells by column name,
and the numbers inside text values as `<field>#<i>`.  It prints every
difference that is not a float (exit codes, text, integers, flags, missing
files and fields), then the largest relative move |a - b| / max(|a|, |b|)
of each float field that moved, largest first, a count of the files
whose bytes differ, and the line total of src/asipkit/*.py in each tree.
Exits 1 when there is a non-float difference.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from bench import _export
from report_digest import ROOT, run_jobs

# a number inside text; a float has a point, an exponent, or is inf or nan
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _leaves(value, key: str):
    """(field, value) pairs of one parsed value, numbers in text split out."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, f"{key}[]")
    elif isinstance(value, str):
        numbers = NUMBER.findall(value)
        yield key, NUMBER.sub("#", value)
        for i, tok in enumerate(numbers):
            is_float = any(c in tok for c in ".eEin")
            yield f"{key}#{i}", float(tok) if is_float else int(tok)
    else:
        yield key, value


def _fields(path: Path) -> list:
    if path.suffix == ".json":
        return list(_leaves(json.loads(path.read_text()), ""))
    header, *rows = csv.reader(path.read_text().splitlines())
    return [("columns", ",".join(header))] + [
        pair for row in rows for h, cell in zip(header, row) for pair in _leaves(cell, h)
    ]


def _move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: Path, new: Path, moves: dict, diffs: list) -> None:
    """Add the float moves of every report file under both trees to `moves`
    ((file, field) -> largest move) and every other difference to `diffs`."""
    files = sorted({p.relative_to(d).as_posix() for d in (old, new)
                    for p in d.rglob("*") if p.is_file()})
    for name in files:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{name}: only in {'REV' if a.is_file() else 'this checkout'}")
            continue
        fa, fb = _fields(a), _fields(b)
        if [k for k, _ in fa] != [k for k, _ in fb]:
            diffs.append(f"{name}: the fields differ ({len(fa)} -> {len(fb)})")
            continue
        for (key, x), (_, y) in zip(fa, fb):
            if type(x) is float and type(y) is float:
                moves[name, key] = max(moves.get((name, key), 0.0), _move(x, y))
            elif type(x) is not type(y) or x != y:
                diffs.append(f"{name}: {key}: {x!r} -> {y!r}")


def _src_lines(root: Path) -> int:
    """Lines of the package's modules, src/asipkit/*.py, under `root`."""
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "asipkit").glob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = _export(args.rev, tmp)
        runs = {}
        for label, root in (("REV", tree), ("checkout", ROOT)):
            print(f"running the reports of {label} ...", file=sys.stderr)
            runs[label] = run_jobs(root, str(tmp / label))
        moves, diffs = {}, []
        for (argv, rc_old, _, out_old), (_, rc_new, _, out_new) in zip(
            runs["REV"], runs["checkout"]
        ):
            if rc_old != rc_new:
                diffs.append(f"exit {rc_old} -> {rc_new}: asipkit {' '.join(argv[:-2])}")
            if out_old != out_new:
                diffs.append(f"stdout differs: asipkit {' '.join(argv[:-2])}")
        compare(tmp / "REV", tmp / "checkout", moves, diffs)
        files = sorted(p.relative_to(tmp / "REV") for p in (tmp / "REV").rglob("*") if p.is_file())
        changed = [f for f in files if not (tmp / "checkout" / f).is_file()
                   or (tmp / "REV" / f).read_bytes() != (tmp / "checkout" / f).read_bytes()]
        lines = _src_lines(tree), _src_lines(ROOT)
    same_out = sum(a[3] == b[3] for a, b in zip(runs["REV"], runs["checkout"]))
    print(f"{args.rev} -> this checkout: {len(runs['REV'])} commands, "
          f"{same_out} with identical stdout, "
          f"{len(changed)} of {len(files)} report files differ in bytes")
    print(f"src/asipkit/*.py lines: {lines[0]:,} at {args.rev}, {lines[1]:,} in this checkout")
    print(f"non-float differences: {len(diffs)}")
    for line in diffs:
        print(f"  {line}")
    moved = sorted(((m, k) for k, m in moves.items() if m > 0), reverse=True)
    print(f"float fields moved: {len(moved)} of {len(moves)}")
    for m, (name, key) in moved:
        print(f"  {m:.2e}  {name}: {key}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
