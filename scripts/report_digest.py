#!/usr/bin/env python3
"""Digest the CLI reports for every chain in chains/.

Runs `asipkit verify` once, and `asipkit simulate --paths 2000 --seed 7`,
`asipkit blocks`, `asipkit mixing` and `asipkit moments` on each
chains/*.json, into a temporary directory, two commands at a time, and
prints one `<sha256>  <dir>/<file>` line per report file
(`verify/verify_report.json` for the battery).  Exit codes and wall times go
to stderr.  A refactor that claims byte-identical
reports is checked by diffing this output before and after it:

    python3 scripts/report_digest.py > after.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (
    ["simulate", "--paths", "2000", "--seed", "7"], ["blocks"], ["mixing"], ["moments"],
)


def run_jobs(root: Path, out: str) -> list[tuple[list, int, float]]:
    """Run the job list with the tree at `root`, its reports written under
    `out`, two commands at a time: (argv, exit code, seconds) per job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    chains = sorted((root / "chains").glob("*.json"))
    jobs = [["verify", "--out", os.path.join(out, "verify")]] + [
        [*cmd, "--chain", f"chains/{c.name}", "--out", os.path.join(out, c.stem)]
        for c in chains for cmd in COMMANDS
    ]

    def run(args: list) -> tuple[list, int, float]:
        t0 = time.perf_counter()
        rc = subprocess.run(
            [sys.executable, "-m", "asipkit.cli", *args], cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        return args, rc, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, jobs))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for args, rc, seconds in run_jobs(ROOT, tmp):
            print(f"exit {rc} in {seconds:.1f} s: asipkit {' '.join(args)}", file=sys.stderr)
        for f in sorted(Path(tmp).rglob("*")):
            if f.is_file():
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {f.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
