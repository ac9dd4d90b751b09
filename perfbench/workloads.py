"""The benchmark's workloads: seeded chain documents, the timed operations on
them, and the check every operation's output must pass.

A workload is a list of operations run back to back (one pass).  Every pass
builds fresh ``ChainSpec`` objects from the documents, untimed, so no pass
reuses another's memoized marginals or engines: each pass pays what one CLI
invocation pays after set-up.

Generated documents use the schemas the parser accepts: an explicit schedule
is a bare list of kernels, and a mixture is ``{"mixture": {"base": [K0, K1],
"weights": {...}}}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import asipkit
from asipkit import cli

# The closed form and the pairwise oracle agree with the recursions to
# float rounding; 1e-10 relative leaves four orders of magnitude of slack.
RTOL = 1e-10
# Window of the pairwise covariance oracle (quadratic cost, so short).
ORACLE_WINDOW = 40
# Sampling agreement: |empirical - exact| Var(S_n) within this many
# standard errors of the sample variance.
VAR_Z_MAX = 5.0


@dataclass
class Op:
    """One timed operation.  `run` takes the pass context; `check` returns a
    failure reason or None; `key`, when given, must read the same on every
    pass (the program is deterministic for fixed inputs)."""

    label: str
    run: Callable
    check: Callable
    key: Callable | None = None


class PassContext:
    def __init__(self, docs: dict):
        self.chains = {name: asipkit.build_chain(doc) for name, doc in docs.items()}
        self.out: dict = {}


# ---------------------------------------------------------------------------
# documents


def sym2_kernel(pi: float) -> list:
    s = (1.0 + pi) / 2.0
    return [[s, 1.0 - s], [1.0 - s, s]]


def lazy_kernel(stay: float, target) -> list:
    """stay * I + (1 - stay) * 1 target^T: contraction coefficient `stay`."""
    k = stay * np.eye(len(target)) + (1.0 - stay) * np.asarray(target)[None, :]
    return k.tolist()


def leaky3_kernel(stay: float) -> list:
    off = (1.0 - stay) / 2.0
    return [[stay, off, off], [off, stay, off], [off, off, stay]]


# Kernels are fixed; the seed draws observables and sampling seeds.  Seeding
# the kernels exposes a rounding defect in fit_envelope: on about one generic
# chain in ten, alpha(k) exceeds the fitted envelope c * delta^k by one ulp and
# MixingReport.check_identities() fails (see CHANGES.md).
KERNEL_SEED = 20261017
_K3_FAST = [[0.45, 0.33, 0.22], [0.33, 0.34, 0.33], [0.22, 0.33, 0.45]]


def _fixed_lazy3(count: int, stay: float) -> list:
    """`count` lazy 3-state kernels with pseudo-random targets from a fixed stream."""
    g = np.random.Generator(np.random.PCG64(KERNEL_SEED))
    return [lazy_kernel(stay, t) for t in g.dirichlet([16.0, 16.0, 16.0], size=count)]


def _table3(rng) -> np.ndarray:
    """Three seeded observable values near (1, 0, -1), bounded by 1."""
    return np.round([rng.uniform(0.8, 1.0), rng.uniform(-0.1, 0.1), rng.uniform(-1.0, -0.8)], 9)


def sym2_closed_var(n: int, pi: float, scale: float) -> float:
    """Var(S_n) of the stationary symmetric two-state chain with +-scale values."""
    return scale * scale * (
        n * (1.0 + pi) / (1.0 - pi) - 2.0 * pi * (1.0 - pi**n) / (1.0 - pi) ** 2
    )


def _doc(kernels, initial, observable, big_l, d=None) -> dict:
    doc = {"kernels": kernels, "initial": list(initial), "observable": observable, "L": big_l}
    if d is not None:
        doc["d"] = d
    return doc


# ---------------------------------------------------------------------------
# checks


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_mixing(rep) -> str | None:
    try:
        rep.check_identities()
    except AssertionError as exc:
        return f"mixing identity violated: {exc}"
    if rep.n0 is None:
        return "n0 not localized"
    return None


def check_verification(ver) -> str | None:
    """The partition postconditions `asipkit verify` holds every chain to."""
    if not ver.structural_ok:
        return "partition structure (separation/coverage) violated"
    if not ver.norms_ok:
        return "block norm outside [sqrt(A), sqrt(A) + L]"
    if ver.sandwich_gated and not ver.sandwich_pass:
        return f"variance sandwich [{ver.sandwich_min}, {ver.sandwich_max}] outside [1/2, 3/2]"
    if ver.ratio_hypotheses and ver.ratio_pass is False:
        return f"block/cover ratio deviation {ver.ratio_max_dev} above {ver.ratio_bound}"
    return None


def check_sym2_blocks(blocks, r, norms, theta_var, pi, scale) -> str | None:
    for (a, b), nrm, tv in zip(blocks, norms, theta_var):
        for n, got in ((b - a + 1, float(nrm) ** 2), (b + r - a + 1, float(tv))):
            want = sym2_closed_var(n, pi, scale)
            if _rel_err(got, want) > RTOL:
                return f"Var(S_{n}) = {got!r}, closed form {want!r}"
    return None


def _doc_key(x) -> str:
    return json.dumps(x, sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    salt = 0  # keeps the streams of different workloads apart for one seed

    def __init__(self, seed: int, work_dir: Path):
        self.work = work_dir
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, self.salt])))
        self.docs = self.make_docs()
        self.layer_rows: dict = {}  # name -> (value, unit), filled by the checks

    def make_docs(self) -> dict:
        raise NotImplementedError

    def write_docs(self) -> list:
        """Documents as files, the form a CLI user hands them over in."""
        ddir = self.work / "docs"
        ddir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, doc in self.docs.items():
            p = ddir / f"{name}.json"
            p.write_text(json.dumps(doc))
            paths.append(p)
        return paths

    def prepare(self) -> None:
        """Untimed reference values, computed once per run."""

    def ops(self) -> list:
        raise NotImplementedError

    def final_ops(self) -> list:
        """Checks run once after the timed passes."""
        return []


class _Exact(Workload):
    """Plan, verify and the `asipkit verify` checks on periodic chains."""

    horizons: dict = {}  # chain name -> horizon handed to plan_partition
    battery_name = ""  # a battery chain run through verify_chain, if any

    def prepare(self) -> None:
        self.oracle = {}
        for name, doc in self.docs.items():
            eng = asipkit.MomentEngine(asipkit.build_chain(doc))
            self.oracle[name], _ = eng.cov_partial_sum_pairwise(1, ORACLE_WINDOW, truncate=None)

    def _closed_form(self, name: str):
        return None  # (pi, scale) for stationary sym2 documents

    def ops(self) -> list:
        out = [op for name in self.docs for op in self._chain_ops(name)]
        if self.battery_name:
            out.append(Op(
                f"verify_chain:{self.battery_name}",
                lambda ctx: asipkit.verify_chain(self.battery_name),
                self._check_verify_chain,
                key=lambda res: _doc_key([c.to_doc() for c in res]),
            ))
        return out

    def _check_verify_chain(self, res) -> str | None:
        bad = [c for c in res if not c.passed]
        self.layer_rows["verify.checks"] = (len(res), "count")
        self.layer_rows["verify.failed_checks"] = (len(bad), "count")
        return None if not bad else f"{bad[0].check}: {bad[0].detail}"

    def _chain_ops(self, name: str, j_probe=None) -> list:
        """mixing, plan, verify and the covariance oracle on one chain, plus the
        covariance inequality when the mixing report uses its default probe."""
        horizon = self.horizons[name]
        oracle = self.oracle[name]
        closed = self._closed_form(name)

        def plan(ctx):
            return asipkit.plan_partition(ctx.chains[name], horizon=horizon)

        def check_plan(res):
            part, _ = res
            if part.count < 3:
                return f"only {part.count} blocks"
            if closed is not None:
                return check_sym2_blocks(
                    part.blocks, part.r, part.norms, part.theta_var(), *closed
                )
            return None

        def check_cov(v):
            err = float(np.max(np.abs(v - oracle))) / max(1.0, float(np.max(np.abs(oracle))))
            return None if err <= RTOL else f"cov_partial_sum off the pairwise oracle by {err:.3g}"

        def check_civ(civ):
            if not (civ.passes and civ.exact):
                return f"|cov| {civ.cov_abs} vs bound {civ.bound} (exact={civ.exact})"
            return None

        ops = [
            Op(f"mixing:{name}",
               lambda ctx: asipkit.mixing_report(ctx.chains[name], j_probe=j_probe),
               check_mixing, key=lambda rep: _doc_key([rep.alpha, rep.phi, rep.n0])),
            Op(f"plan:{name}", plan, check_plan,
               key=lambda res: _doc_key([res[0].to_doc(), res[1].to_doc()])),
            Op(f"verify:{name}",
               lambda ctx: asipkit.verify_partition(ctx.chains[name], ctx.out[f"plan:{name}"][0]),
               check_verification, key=lambda ver: _doc_key(ver.to_doc())),
            Op(f"cov:{name}",
               lambda ctx: asipkit.cov_partial_sum(ctx.chains[name], 1, ORACLE_WINDOW),
               check_cov),
        ]
        if j_probe is None:
            ops.append(Op(
                f"covineq:{name}",
                lambda ctx: asipkit.covariance_inequality_check(
                    ctx.chains[name], [(1, 12)], [(18, 29)]),
                check_civ))
        return ops


class ExactLong(_Exact):
    """Long d=1 sweeps: the planner's greedy scan and the prefix/suffix
    verification sweeps run over the whole horizon with one direction."""

    name = "exact-long"
    salt = 1
    horizons = dict.fromkeys(("sym2", "leaky3", "leaky3_delta", "random3"), 2560)
    battery_name = "sym2_p02"
    sym2_pi = 0.15

    def make_docs(self) -> dict:
        u = self.rng.uniform
        self.scale = u(0.9, 1.1)

        def table():
            return _table3(self.rng)[:, None].tolist()

        return {
            "sym2": _doc({"periodic": [sym2_kernel(self.sym2_pi)]}, [0.5, 0.5],
                         {"constant": [[self.scale], [-self.scale]]}, self.scale),
            "leaky3": _doc({"periodic": [leaky3_kernel(0.45)]}, [1 / 3] * 3,
                           {"constant": table()}, 1.0),
            "leaky3_delta": _doc({"periodic": [leaky3_kernel(0.45)]}, [1.0, 0.0, 0.0],
                                 {"constant": table()}, 1.0),
            "random3": _doc({"periodic": _fixed_lazy3(2, 0.15)}, [1 / 3] * 3,
                            {"constant": table()}, 1.0),
        }

    def _closed_form(self, name: str):
        return (self.sym2_pi, self.scale) if name == "sym2" else None


class ExactWide(_Exact):
    """d=2 chains verified over the 66-direction grid: wide, short sweeps and
    d x d covariances; one chain has a non-lattice periodic observable, so the
    exact L4 distribution DP keys many atoms on the float grid."""

    name = "exact-wide"
    salt = 2
    horizons = dict.fromkeys(("kron4_d2", "chain3_d2", "corr_d2", "nonlattice3_d2"), 1536)

    def make_docs(self) -> dict:
        u = self.rng.uniform
        a, b, c, e, f = u(0.85, 1.0, size=5)
        nonlattice = np.stack([
            np.stack([np.array([1.8, 0.0, -1.8]) + u(-0.2, 0.2, size=3), u(-1.0, 1.0, size=3)],
                     axis=1)
            for _ in range(3)
        ])
        return {
            "kron4_d2": _doc(
                {"periodic": [np.kron(sym2_kernel(0.15), sym2_kernel(0.1)).tolist()]}, [0.25] * 4,
                {"constant": [[a, b], [a, -b], [-a, b], [-a, -b]]}, 1.0, d=2),
            "chain3_d2": _doc({"periodic": [_K3_FAST]}, [1 / 3] * 3,
                              {"constant": [[2 * c, 0.0], [0.0, e], [-2 * c, -e]]}, 2.0, d=2),
            "corr_d2": _doc(
                {"periodic": [sym2_kernel(0.15)]}, [0.5, 0.5],
                {"periodic": [[[f, f], [-f, -f]], [[f, -f], [-f, f]]]}, 1.0, d=2),
            "nonlattice3_d2": _doc({"periodic": [_K3_FAST]}, [1 / 3] * 3,
                                   {"periodic": np.round(nonlattice, 9).tolist()}, 2.0, d=2),
        }


class Schedule(_Exact):
    """Per-step kernels where nothing repeats: an explicit list of
    pseudo-random 3-state kernels and a two-kernel mixture ramp.  Each gets a
    mixing report over many start times (the full-horizon certificate), then
    plan and verify."""

    name = "schedule"
    salt = 3
    horizons = {"explicit3": 3072, "ramp2": 2048}
    mixing_starts = 256

    def make_docs(self) -> dict:
        self.scale = self.rng.uniform(0.9, 1.1)
        return {
            "explicit3": _doc(_fixed_lazy3(self.horizons["explicit3"], 0.15), [1 / 3] * 3,
                              {"constant": _table3(self.rng)[:, None].tolist()}, 1.0),
            "ramp2": _doc(
                {"mixture": {
                    "base": [sym2_kernel(0.05), sym2_kernel(0.2)],
                    "weights": {"kind": "linear", "start": 1.0, "end": 0.0, "length": 120},
                }},
                [0.5, 0.5], {"constant": [[self.scale], [-self.scale]]}, self.scale),
        }

    def ops(self) -> list:
        starts = list(range(1, self.mixing_starts + 1))
        return [op for name in self.docs for op in self._chain_ops(name, starts)]


class Sample(Workload):
    """`asipkit simulate` in-process through cli.main with the default
    horizon, on the two shipped sample chains (the planned partition does not
    fit in 2048 steps and is discarded), then sym2 at a horizon where the plan
    fits and every diagnostic runs, then one lil_diagnostic call."""

    name = "sample"
    salt = 4
    paths = 512
    long_horizon = 8192

    def make_docs(self) -> dict:
        s = [int(x) for x in self.rng.integers(0, 2**31, size=4)]
        self.seeds = {"sym2": s[0], "chain3_d2": s[1], "sym2_long": s[2], "lil": s[3]}
        return {
            "sym2": _doc({"periodic": [sym2_kernel(0.5)]}, [0.5, 0.5],
                         {"constant": [[1.0], [-1.0]]}, 1.0),
            "chain3_d2": _doc(
                {"periodic": [[[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]]]},
                [1 / 3] * 3, {"constant": [[2.0, 0.0], [0.0, 1.0], [-2.0, -1.0]]}, 2.0, d=2),
        }

    def prepare(self) -> None:
        self.first_bytes: dict = {}
        self.bytes_by_label: dict = {}

    def _argv(self, label: str, doc: str, seed: int, horizon: int | None) -> list:
        argv = ["simulate", "--chain", str(self.work / "docs" / f"{doc}.json"),
                "--paths", str(self.paths), "--seed", str(seed),
                "--out", str(self.work / "cli" / label)]
        return argv + (["--horizon", str(horizon)] if horizon else [])

    def _files(self, label: str) -> dict:
        out = self.work / "cli" / label
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def _simulate_op(self, label, doc, seed, horizon) -> Op:
        argv = self._argv(label, doc, seed, horizon)

        def run(ctx):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(rc):
            if rc != 0:
                return f"exit code {rc}"
            files = self._files(label)
            self.bytes_by_label[label] = sum(len(b) for b in files.values())
            self.layer_rows["cli.report_bytes"] = (sum(self.bytes_by_label.values()), "bytes")
            ref = self.first_bytes.setdefault(label, files)
            if files != ref:
                return "report bytes differ between passes with the same seed"
            rep = json.loads(files["simulate_report.json"])
            max_ks = rep["ks"]["max_ks"]
            if max_ks is None or not 0.0 < max_ks < 1.0:
                return f"max KS {max_ks} outside (0, 1)"
            part = rep["partition"]
            if part is None:
                # documented outcome: the plan did not fit, and the report says why
                return None if rep["partition_note"] else "no partition and no partition_note"
            if rep["variance_matching"] is None or rep["rate"] is None:
                return "partition fits but a diagnostic is missing"
            if part["cover_end"] > rep["config"]["horizon"]:
                return "partition cover end past the horizon"
            if doc == "sym2":
                return check_sym2_blocks(
                    part["blocks"], part["r"], part["block_l2_norms"],
                    part["theta_variance"], 0.5, 1.0)
            return None

        return Op(f"simulate:{label}", run, check)

    def ops(self) -> list:
        seeds = self.seeds

        def check_lil(rep):
            q = [rep.quantiles[k] for k in sorted(rep.quantiles)]
            if rep.n_included < 1 or not q or q != sorted(q) or q[0] <= 0.0:
                return f"LIL quantiles {q} with {rep.n_included} checkpoints"
            return None

        return [
            self._simulate_op("sym2", "sym2", seeds["sym2"], None),
            self._simulate_op("chain3_d2", "chain3_d2", seeds["chain3_d2"], None),
            self._simulate_op("sym2_long", "sym2", seeds["sym2_long"], self.long_horizon),
            Op("lil:sym2",
               lambda ctx: asipkit.lil_diagnostic(ctx.chains["sym2"], 2048, self.paths, seeds["lil"]),
               check_lil, key=lambda rep: _doc_key(rep.quantiles)),
        ]

    def final_ops(self) -> list:
        n, paths = 1024, 2048  # two sampling chunks, so two workers split the work

        sums: dict = {}

        def sums_at(workers: int):
            if workers not in sums:
                chain = asipkit.build_chain(self.docs["sym2"])
                with _workers(workers):
                    batch = asipkit.sample_paths(chain, n, paths, self.seeds["sym2"], [n])
                sums[workers] = batch.sums[:, 0, 0]
            return sums[workers]

        def check_workers(pair):
            return None if np.array_equal(*pair) else "sums differ between 1 and 2 workers"

        def check_variance(x):
            dev = (x - x.mean()) ** 2
            se = float(dev.std(ddof=1)) / math.sqrt(x.shape[0])
            want = sym2_closed_var(n, 0.5, 1.0)
            z = abs(float(dev.mean()) * x.shape[0] / (x.shape[0] - 1) - want) / se
            return None if z <= VAR_Z_MAX else f"empirical Var(S_{n}) {z:.2f} standard errors off"

        label = "sym2"
        argv = self._argv("sym2_workers2", "sym2", self.seeds[label], None)

        def simulate_two_workers(ctx):
            with _workers(2), contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            return self._files("sym2_workers2")

        def check_same_report(files):
            return None if files == self.first_bytes.get(label) else (
                "simulate report differs between 1 and 2 workers")

        return [
            Op("sample_paths:workers", lambda ctx: (sums_at(1), sums_at(2)), check_workers),
            Op("sample_paths:variance", lambda ctx: sums_at(1), check_variance),
            Op("simulate:sym2_workers2", simulate_two_workers, check_same_report),
        ]


@contextlib.contextmanager
def _workers(n: int):
    old = os.environ.get("ASIPKIT_WORKERS")
    os.environ["ASIPKIT_WORKERS"] = str(n)
    try:
        yield
    finally:
        os.environ["ASIPKIT_WORKERS"] = old if old is not None else "1"


WORKLOADS = {cls.name: cls for cls in (ExactLong, ExactWide, Schedule, Sample)}
