#!/usr/bin/env python3
"""Run perfbench/run.py over the workloads and write one bench file.

    python3 scripts/bench.py --out BENCH.json --base HEAD~1

For this checkout, and with --base for a git revision exported by
`git archive` into a temporary directory, runs `perfbench/run.py` once per
workload with --trace 1 (layer rows) and ten times with --trace 0
(end-to-end rows: wall_s, setup_s, peak_rss_mb), each run for
BENCHMARK.json's run_seconds.  Trace-0 runs of the two trees alternate, and
which tree runs first alternates from pair to pair, so the ten pairs are the
ones a claimed gain is judged on.
Each tree is timed by its own perfbench/, which a change that claims a gain
leaves as it is.

The file holds the box facts, and for each tree and workload every run's
rows (with units), the operation counts, and the median and quartiles of
each end-to-end row.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("exact-long", "exact-wide", "schedule", "sample")
# a row line of run.py's trace-1 report: name, value, unit[, what it measures]
ROW = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)")
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, into: Path) -> Path:
    """The files of `rev`, unpacked under `into`."""
    archive = into / "tree.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    tree = into / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the tree's perfbench/run.py: its JSON line, plus the box
    facts and every printed row of a trace-1 run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    box = next((ln[len("box: "):] for ln in lines if ln.startswith("box: ")), "")
    result["box"] = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", box))
    if trace:
        rows = {}
        for line in lines:
            m = ROW.match(line)
            if m:
                try:
                    rows[m[1]] = {"value": float(m[2]), "unit": m[3]}
                except ValueError:
                    pass
        result["rows"] = rows
    return result


def _summary(runs: list) -> dict:
    """Median and quartiles of each end-to-end row over trace-0 runs."""
    out = {}
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        out[name] = {"median": statistics.median(xs), "q1": q[0], "q3": q[2],
                     "unit": runs[0]["metrics"][name]["unit"], "runs": xs}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--base", help="git revision to measure beside this checkout")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT}
        revs = {"change": _git("rev-parse", "HEAD") + (" + uncommitted changes"
                                                       if _git("status", "--porcelain") else "")}
        if args.base:
            trees = {"base": _export(args.base, Path(tmp)), **trees}
            revs["base"] = _git("rev-parse", args.base)
        results = {side: {} for side in trees}
        box = {}
        for workload in WORKLOADS:
            plain = {side: [] for side in trees}
            for i in range(PAIRS):
                order = list(trees) if i % 2 == 0 else list(trees)[::-1]
                for side in order:
                    r = _run(trees[side], workload, args.seed, seconds, 0)
                    box = r.pop("box") or box
                    plain[side].append(r)
                    print(f"{workload} {side} trace 0: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), file=sys.stderr)
            for side in trees:
                traced = _run(trees[side], workload, args.seed, seconds, 1)
                traced.pop("box")
                results[side][workload] = {
                    "end_to_end": _summary(plain[side]),
                    "layers": traced["rows"],
                    "runs": [{k: r[k] for k in ("correct", "attempted", "failed")}
                             for r in plain[side] + [traced]],
                }
                print(f"{workload} {side} trace 1: {len(traced['rows'])} rows", file=sys.stderr)
    doc = {
        "command": " ".join(["python3", "scripts/bench.py", *(argv or sys.argv[1:])]),
        "harness": "perfbench/run.py",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "box": box,
        "revisions": revs,
        "results": results,
        "elapsed_s": round(time.perf_counter() - t_start, 1),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out} in {doc['elapsed_s']} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
