"""Benchmark for asipkit: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload exact-long --seed 1 --seconds 18 --trace 0

One process issues one operation at a time.  A pass runs every operation of
the workload once, on chains built fresh (untimed) from the seeded
documents; passes repeat until --seconds have elapsed, after one untimed
warm-up pass.  Every output is checked (see workloads.py), and the run counts
the operations attempted and failed.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median of fresh interpreters importing asipkit and building every
document), peak_rss_mb (peak resident memory of this process up to the end
of the timed passes).

--trace 1 alternates untraced and traced passes, then measures the direct
per-layer rows (layers.py).  It reports per-layer self times and counters per
traced pass, the tracing overhead (traced minus untraced median pass time)
and writes the spans to .perfbench_work/spans-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: BLAS pools start at import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
FOUND_ENV = {k: os.environ.get(k) for k in THREAD_VARS + ("ASIPKIT_WORKERS",)}
for _var in THREAD_VARS + ("ASIPKIT_WORKERS",):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("exact-long", "exact-wide", "schedule", "sample")
SETUP_SAMPLES = 7
PEAK_PASSES = 3  # peak_rss_mb is read after this many passes, warm-up included

# What one CLI invocation pays before it computes anything; the child then
# probes its own speed, after the timed part.
SETUP_CODE = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import asipkit
for path in sys.argv[3:]:
    asipkit.build_chain(path)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import speed_probe
print(repr(elapsed), repr(statistics.median(speed_probe() for _ in range(3))))
"""

# Host speed probe.  On a shared host the speed of this process drifts by up
# to 2x within seconds as neighbours load the cores, so each pass is rescaled
# by the speed measured between its operations: wall_s reads seconds at the
# reference speed, at which one probe takes PROBE_REF_S (about the speed of a
# quiet 2-core x86_64 box).  The probe is a fixed slice of the exact sweep
# arithmetic in numpy alone; it never calls asipkit, so a change to the
# program cannot move it.
PROBE_STEPS = 300
PROBE_REF_S = 3e-3
_PROBE_K = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
_PROBE_F = np.array([[1.0], [0.0], [-1.0]])


def speed_probe() -> float:
    """Seconds for PROBE_STEPS steps of the scalar variance recursion."""
    p, phi, psi = np.full(3, 1.0 / 3.0), np.zeros((3, 1)), np.zeros((3, 1))
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        pt = _PROBE_K.T @ p
        phi_t = _PROBE_K.T @ phi
        psi = _PROBE_K.T @ psi + 2.0 * _PROBE_F * phi_t + _PROBE_F * _PROBE_F * pt[:, None]
        phi = phi_t + _PROBE_F * pt[:, None]
        p = pt
    return time.perf_counter() - t0


def at_reference(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)


TRACED_SELF = ("chain", "moments", "mixing", "blocks")
TRACED_COUNTS = ("moments.sweep_steps", "chain.kernel_products", "mixing.pair_laws",
                 "blocks.build_calls", "blocks.planned_horizon")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_program():
    """Import asipkit from this checkout's src/ and nowhere else."""
    pkg = SRC / "asipkit"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no asipkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import asipkit

    if Path(asipkit.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported asipkit from {asipkit.__file__}, not {pkg}")
    return asipkit


def box_facts() -> dict:
    import scipy

    threads = {k: f"{os.environ[k]} (found {FOUND_ENV[k] or 'unset'})"
               for k in THREAD_VARS + ("ASIPKIT_WORKERS",)}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **threads,
    }


def measure_setup(paths) -> list:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters, at reference speed."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent),
            *map(str, paths)]
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed, probe = map(float, done.stdout.split())
        times.append(at_reference(elapsed, probe, probe))
    return times


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, workload, context_cls):
        self.wl = workload
        self.ops = workload.ops()
        self.context_cls = context_cls
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._keys: dict = {}
        self._passes = 0

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """(seconds in the operations, the same at reference speed).

        Each operation is rescaled by the mean of the speed probes run just
        before and just after it."""
        ctx = self.context_cls(self.wl.docs)
        gc.collect()
        self._passes += 1
        results = []
        if tracer is not None:
            tracer.install()
            tracer.active = True
        times, probes = [], []
        for op in self.ops:
            if tracer is not None:
                tracer.op = f"{self._passes}:{op.label}"
            probes.append(speed_probe())
            t0 = time.perf_counter()
            try:
                ctx.out[op.label] = op.run(ctx)
                results.append((op, ctx.out[op.label], None))
            except Exception as exc:  # a failed operation is a result, not a crash
                results.append((op, None, exc))
            times.append(time.perf_counter() - t0)
        probes.append(speed_probe())
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
            tracer.end_pass()
        self._record(results)
        return sum(times), sum(map(at_reference, times, probes, probes[1:]))

    def run_final(self) -> None:
        results = []
        for op in self.wl.final_ops():
            try:
                results.append((op, op.run(None), None))
            except Exception as exc:
                results.append((op, None, exc))
        self._record(results)

    def _record(self, results) -> None:
        for op, out, exc in results:
            self.attempted += 1
            if exc is not None:
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                try:
                    reason = op.check(out)
                except Exception as cexc:
                    reason = f"output check raised {type(cexc).__name__}: {cexc}"
                if reason is None and op.key is not None:
                    key = op.key(out)
                    if self._keys.setdefault(op.label, key) != key:
                        reason = "output differs from the first pass"
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{op.label}: {reason}")


def measure_passes(runner, seconds: float, tracer=None) -> tuple[list, list, float]:
    """One untimed warm-up pass, then passes until `seconds` have elapsed and
    at least PEAK_PASSES passes have run.

    With a tracer, untraced and traced passes alternate.  Returns the
    (seconds, reference seconds) of each untraced and traced pass, and the peak
    RSS in MiB after PEAK_PASSES passes.  A fixed pass count keeps the peak
    comparable between runs, and memory a pass leaves behind still shows."""
    runner.run_pass()
    plain, traced = [], []
    peak_mib = None
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if tracer is not None:
            traced.append(runner.run_pass(tracer))
        if peak_mib is None and 1 + len(plain) + len(traced) >= PEAK_PASSES:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if peak_mib is not None and time.perf_counter() - start >= seconds:
            return plain, traced, peak_mib


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n/a (needs >= 11 passes, have {n})"
    i = n - 11
    return f"p{100.0 * i / (n - 1):.0f} {sorted(samples)[i]:.4f} s"


def traced_rows(tracer, wl, plain: list, traced: list) -> tuple[dict, dict]:
    """(per-layer metrics reported in the JSON, workload-specific rows that
    are zero on workloads where the layer does not run)."""
    n = len(traced)
    self_s = tracer.self_seconds()
    c = tracer.counters
    metrics = {f"{layer}.self_s": (self_s[layer] / n, "s") for layer in TRACED_SELF}
    for key in TRACED_COUNTS:
        metrics[key] = (c.get(key, 0) / n, "count")
    made = c.get("blocks.plans_made", 0)
    metrics["blocks.plan_used_ratio"] = (c.get("blocks.plans_used", 0) / made if made else 0.0, "ratio")
    metrics["blocks.plan_s"] = (tracer.top_level_seconds({"blocks.plan_partition"}) / n, "s")
    # at reference speed, like wall_s; may read below 0 when noise exceeds the cost
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    sim_names = {s[1] for s in tracer.spans if s[2] == "simulate"}
    extra = {
        "simulate.self_s": (self_s["simulate"] / n, "s"),
        "simulate.sample_s": (tracer.top_level_seconds({"simulate.sample_paths"}) / n, "s"),
        "simulate.diag_s": (tracer.top_level_seconds(sim_names - {"simulate.sample_paths"}) / n, "s"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "verify.self_s": (self_s["verify"] / n, "s"),
        "blocks.verify_s": (tracer.top_level_seconds({"blocks.verify_partition"}) / n, "s"),
        "moments.dp_overflows": (c.get("moments.dp_overflows", 0) / n, "count"),
    }
    extra.update(wl.layer_rows)
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    import tracing
    import workloads

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    doc_paths = wl.write_docs()
    facts = box_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("box: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    setup = measure_setup(doc_paths) if args.trace == 0 else []
    wl.prepare()
    runner = Runner(wl, workloads.PassContext)

    if args.trace == 0:
        passes, _, peak_mib = measure_passes(runner, args.seconds)
        runner.run_final()
        plain = [ref for _, ref in passes]
        wall = statistics.median(plain)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
        }
        print(f"wall_s       {wall:.4f} s  median of {len(plain)} passes at reference speed; "
              f"tail {tail(plain)}; measured median {statistics.median(p[0] for p in passes):.4f} s")
        print(f"setup_s      {metrics['setup_s'][0]:.4f} s  median of {len(setup)} fresh "
              f"interpreters at reference speed (import asipkit + build_chain on "
              f"{len(doc_paths)} documents)")
        print(f"peak_rss_mb  {peak_mib:.1f} MiB")
    else:
        tracer = tracing.Tracer()
        passes, traced_passes, _ = measure_passes(runner, args.seconds, tracer)
        runner.run_final()
        plain = [ref for _, ref in passes]
        traced = [ref for _, ref in traced_passes]
        metrics, extra = traced_rows(tracer, wl, plain, traced)
        print(f"passes at reference speed: {len(plain)} untraced (median "
              f"{statistics.median(plain):.4f} s), {len(traced)} traced (median "
              f"{statistics.median(traced):.4f} s); span times below are measured seconds")
        for name, (value, unit) in list(metrics.items()) + list(extra.items()):
            print(f"  {name:36s} {value:14.6g} {unit}")
        for name, value, unit, what in layers.measure(list(wl.docs.values())):
            metrics[name] = (value, unit)
            print(f"  {name:36s} {value:14.6g} {unit:6s} {what}")
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "traced_passes": len(traced), "box": facts})
        print(f"wrote {len(tracer.spans)} spans to {spans.relative_to(ROOT)}")

    rate = runner.failed / runner.attempted
    print(f"error_rate   {rate:.6g} ratio  {runner.failed} failed of {runner.attempted} attempted")
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
