#!/usr/bin/env python3
"""Count the moment scans and mixing reports of one warm benchmark pass, and
check every one.

    python3 scripts/scan_counts.py [--workload exact-long] [--seed 5]

For each workload of perfbench/workloads.py (imported, not changed), runs one
pass of its operations to warm up and then one counted pass, and prints the
scans served from a kept curve (no stride walked), the scans computed, the
scan rows computed and the kept curves evicted to stay within the engine's
byte bound.  Every scan of the counted pass is checked against the scan
of the same window by a fresh engine on a chain freshly built from the same
document, which shares no table or period array with the chain scanned: the
rows it yielded, bit for bit, and each chunk's time, which must be the start
plus or minus the rows before it.  It also prints the mixing reports asked for and computed; every
report returned again is checked field by field against the report of a
chain freshly built from the same document.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys

# one thread and one sampling worker, as the benchmark runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ASIPKIT_WORKERS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

import asipkit  # noqa: E402
from asipkit import blocks, chain, cli, mixing, verify  # noqa: E402
from asipkit.moments import MomentEngine  # noqa: E402

# `asipkit.battery` names the battery() function, not the module
battery = importlib.import_module("asipkit.battery")


class ScanCounter:
    """Wraps MomentEngine.scan, _walk and _keep; counts and checks while
    `on`, against chains from `rebuild` (chain -> a fresh chain of its
    document)."""

    def __init__(self, rebuild):
        self.rebuild = rebuild
        self.on = False
        self.served = self.computed = self.rows = self.evicted = self.mismatches = 0
        self.walked: set = set()  # (engine id, start, stop) of walks begun

    def install(self) -> None:
        scan, walk, keep = MomentEngine.scan, MomentEngine._walk, MomentEngine._keep
        counter = self

        def counted_keep(eng, key, chunks):
            held = list(eng._curves)
            keep(eng, key, chunks)
            if counter.on:
                counter.evicted += sum(k not in eng._curves for k in held)

        def counted_walk(eng, start, stop, *args):
            counter.walked.add((id(eng), start, stop))
            return counter._rows(walk(eng, start, stop, *args))

        def checked_scan(eng, start, stop, directions, inside=None):
            if not counter.on:
                yield from scan(eng, start, stop, directions, inside)
                return
            mark = (id(eng), start, stop)
            counter.walked.discard(mark)
            got = []
            try:
                for t, v in scan(eng, start, stop, directions, inside):
                    got.append((t, v))
                    yield t, v
            finally:
                if mark in counter.walked:
                    counter.computed += 1
                else:
                    counter.served += 1
                counter.on = False
                try:
                    fresh = scan(MomentEngine(counter.rebuild(eng.chain)), start, stop,
                                 directions, inside)
                    counter._check(start, stop, got, fresh)
                finally:
                    counter.on = True

        MomentEngine._walk = counted_walk
        MomentEngine._keep = counted_keep
        MomentEngine.scan = checked_scan

    def _rows(self, chunks):
        for t, v in chunks:
            if self.on:
                self.rows += len(v)
            yield t, v

    def _check(self, start, stop, got, fresh) -> None:
        sign = -1 if stop < start else 1
        n = 0
        for t, v in got:
            self.mismatches += t != start + sign * n
            n += len(v)
        if not n:
            return
        want, m = [], 0
        for _, v in fresh:
            want.append(v)
            m += len(v)
            if m >= n:
                break
        fresh.close()
        rows = np.concatenate([v for _, v in got])
        self.mismatches += m < n or rows.tobytes() != np.concatenate(want)[:n].tobytes()


class ReportCounter:
    """Wraps build_chain and mixing_report where their callers look them up;
    counts the reports asked for and computed, and checks the repeated ones,
    while `on`."""

    def __init__(self):
        self.on = False
        self.asked = self.computed = self.mismatches = 0
        # both held so that ids stay unique
        self.docs: dict = {}  # id(chain) -> (chain, document)
        self.reports: dict = {}  # id(report) -> report
        self.build = chain.build_chain
        self.report = mixing.mixing_report
        self.rebuilt: dict = {}  # id(chain) -> a chain freshly built from its document

    def rebuild(self, ch):
        """A chain built from the document of `ch`, once per chain."""
        if id(ch) not in self.rebuilt:
            self.rebuilt[id(ch)] = self.build(self.docs[id(ch)][1])
        return self.rebuilt[id(ch)]

    def install(self) -> None:
        counter = self

        def built(doc):
            out = counter.build(doc)
            counter.docs[id(out)] = (out, doc)
            return out

        def counted(ch, *args, **kwargs):
            rep = counter.report(ch, *args, **kwargs)
            if counter.on:
                counter.asked += 1
                if id(rep) in counter.reports:
                    fresh = counter.report(counter.build(counter.docs[id(ch)][1]), *args, **kwargs)
                    counter.mismatches += any(
                        repr(getattr(rep, f.name)) != repr(getattr(fresh, f.name))
                        for f in dataclasses.fields(rep))
                else:
                    counter.computed += 1
            counter.reports[id(rep)] = rep
            return rep

        for mod in (chain, asipkit, cli, battery):
            mod.build_chain = built
        for mod in (mixing, asipkit, blocks, cli, verify):
            mod.mixing_report = counted


def count_pass(name: str, seed: int, counter: ScanCounter, reports: ReportCounter) -> None:
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.WORKLOADS[name](seed, Path(work))
        wl.write_docs()
        wl.prepare()
        ops = wl.ops()
        for counted in (False, True):
            ctx = workloads.PassContext(wl.docs)
            counter.on = reports.on = counted
            for op in ops:
                ctx.out[op.label] = op.run(ctx)
            counter.on = reports.on = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="a workload to count (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    reports = ReportCounter()
    reports.install()
    counter = ScanCounter(reports.rebuild)
    counter.install()
    bad = 0
    for name in args.workload or list(workloads.WORKLOADS):
        counter.served = counter.computed = counter.rows = counter.evicted = counter.mismatches = 0
        reports.asked = reports.computed = reports.mismatches = 0
        count_pass(name, args.seed, counter, reports)
        total = counter.served + counter.computed
        print(f"{name}: {counter.served} of {total} scans served, {counter.computed} computed, "
              f"{counter.rows} scan rows computed, {counter.evicted} curves evicted, "
              f"{counter.mismatches} mismatches; "
              f"{reports.asked} mixing reports asked, {reports.computed} computed, "
              f"{reports.mismatches} mismatches")
        bad += counter.mismatches + reports.mismatches
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
