#!/usr/bin/env python3
"""Digest the CLI reports for every chain in chains/.

Runs `asipkit verify` once, and `asipkit simulate --paths 2000 --seed 7`,
`asipkit blocks`, `asipkit mixing` and `asipkit moments` on each
chains/*.json, into a temporary directory, two commands at a time.  Three
partition overrides run on each chain too, each into `<chain>-<label>`:
`blocks --amplitude 30 --horizon 512`, `blocks --separation 2` and
`simulate --paths 500 --seed 7 --amplitude 30 --separation 2`; and one
`blocks --json` on chains/sym2.json into `json`.  It prints one
`<sha256>  <dir>/<file>` line per report file (`verify/verify_report.json`
for the battery), then one `<sha256>  stdout: asipkit <args>` line per
command, its stdout read with its --out directory written as `<out>`.  Exit
codes and wall times go to stderr.  A refactor that claims byte-identical
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
# partition overrides, each into its own directory <chain>-<label>
OVERRIDES = {
    "a30": ["blocks", "--amplitude", "30", "--horizon", "512"],
    "r2": ["blocks", "--separation", "2"],
    "simulate": ["simulate", "--paths", "500", "--seed", "7", "--amplitude", "30",
                 "--separation", "2"],
}


def run_jobs(root: Path, out: str) -> list[tuple[list, int, float, str]]:
    """Run the job list with the tree at `root`, its reports written under
    `out`, two commands at a time: (argv, exit code, seconds, stdout) per
    job, the job's --out directory written as `<out>` in its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    chains = sorted((root / "chains").glob("*.json"))
    jobs = [["verify", "--out", os.path.join(out, "verify")]] + [
        [*cmd, "--chain", f"chains/{c.name}", "--out", os.path.join(out, c.stem)]
        for c in chains for cmd in COMMANDS
    ] + [
        [*cmd, "--chain", f"chains/{c.name}", "--out", os.path.join(out, f"{c.stem}-{label}")]
        for c in chains for label, cmd in OVERRIDES.items()
    ] + [["blocks", "--json", "--chain", "chains/sym2.json", "--out", os.path.join(out, "json")]]

    def run(args: list) -> tuple[list, int, float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "asipkit.cli", *args], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        stdout = proc.stdout.replace(args[-1], "<out>")
        return args, proc.returncode, time.perf_counter() - t0, stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, jobs))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        jobs = run_jobs(ROOT, tmp)
        for args, rc, seconds, _ in jobs:
            print(f"exit {rc} in {seconds:.1f} s: asipkit {' '.join(args)}", file=sys.stderr)
        for f in sorted(Path(tmp).rglob("*")):
            if f.is_file():
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {f.relative_to(tmp).as_posix()}")
        for args, _, _, stdout in jobs:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            print(f"{digest}  stdout: asipkit {' '.join(args[:-2])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
