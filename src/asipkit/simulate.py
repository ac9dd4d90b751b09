"""Seeded Monte Carlo path sampling and distributional diagnostics.

Sampling is chunked: paths are grouped in fixed-size chunks, each chunk
drawing from its own PCG64 stream spawned as SeedSequence(seed, spawn_key=
(chunk,)), so the output is bit-identical for a fixed seed.  Every chunk's
paths are drawn by chain.walk (through _chunk_walks), whose next state is
#{cumulative probability <= u}.

The walk comes in blocks of times.  Each block gathers its centred values
at once from one padded (time, state, d) table (_centered_table).  Every sum
takes its terms in time order, as a per-time loop would.  sample_paths cuts
a block after each checkpoint and at cover edges and adds each segment's
rows with one reduce over the time axis, the carried sum added to the first
row first (_fold); the LIL diagnostic, which needs the running sum at every
time, adds the rows one time at a time.

The statistics need numpy and the standard library only: ks_statistic takes
Phi from math.erfc, and the rate curve compares the sampled sums with the
Gaussian surrogate's draws by two-sample W1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chain import ChainConfigError, ChainSpec, walk
from .moments import engine_for

CHUNK = 1024
PSD_TOL = -1e-10
# bootstrap resamples behind each rate-curve standard error
BOOTSTRAP_REPS = 16
# std of the Kolmogorov distribution, for the asymptotic KS standard error
_KOLMOGOROV_STD = 0.26


# ---------------------------------------------------------------------------
# path sampling


@dataclass
class PathBatch:
    """Streamed centered partial sums at checkpoints (paths, checkpoints, d),
    plus per-path cover-block sums (paths, blocks, d) when a partition was
    supplied.  The chain, the seed, the path count and the horizon
    determine every sample."""

    seed: int
    n_paths: int
    checkpoints: list
    sums: np.ndarray
    block_sums: np.ndarray | None = None

    def projected(self, u: np.ndarray) -> np.ndarray:
        """Checkpoint sums along a direction, shape (paths, checkpoints)."""
        return self.sums @ np.asarray(u, dtype=float)


def _fold(acc: np.ndarray, rows: np.ndarray) -> None:
    """acc + rows[0] + rows[1] + ..., added in that order, written to acc;
    rows[0] is overwritten.  A reduce over the first axis of a C-contiguous
    array adds whole rows in turn, but numpy sums a run of single numbers
    pairwise, so rows of one number are added in a loop."""
    np.add(acc, rows[0], out=rows[0])
    if acc.size > 1:
        np.add.reduce(rows, axis=0, out=acc)
        return
    acc[...] = rows[0]
    for r in rows[1:]:
        acc += r


def _stream(seed: int, chunk: int) -> np.random.Generator:
    """The PCG64 stream of one chunk of paths."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _chunk_walks(chain: ChainSpec, n_max: int, n_paths: int, seed: int):
    """(lo, hi, walk over times 1..n_max) for each fixed-size chunk of paths."""
    for c, lo in enumerate(range(0, n_paths, CHUNK)):
        hi = min(lo + CHUNK, n_paths)
        yield lo, hi, walk(chain, 1, n_max - 1, hi - lo, _stream(seed, c))


def _centered_table(chain: ChainSpec, n_max: int) -> np.ndarray:
    """f_t - E f_t for t = 1..n_max, shape (n_max, states, d): row t - 1 for
    time t, zeros past that time's state count, as in the marginal table."""
    pieces = chain.pieces(1, n_max)
    table = np.zeros((n_max, max(chain.state_size(lo) for lo, _ in pieces), chain.d))
    for lo, hi in pieces:
        c = chain.centered_stack(lo, hi)
        table[lo - 1 : hi, : c.shape[1]] = c
    return table


def _block_values(table: np.ndarray, paths):
    """Yield (t, values) per walk block of `paths`: the rows of the padded
    table at the block's states, shape (b, n, ...), row i for time t + i."""
    flat = table.reshape(-1, *table.shape[2:])
    offsets = np.arange(len(table))[:, None] * table.shape[1]  # row of (t, state 0)
    for t, states in paths:
        yield t, np.take(flat, states + offsets[t - 1 : t - 1 + len(states)], axis=0)


def sample_paths(
    chain: ChainSpec,
    n_max: int,
    n_paths: int,
    seed: int,
    checkpoints,
    partition=None,
) -> PathBatch:
    """N independent chain trajectories, streamed to centered partial sums at
    the requested checkpoints (and per-cover block sums when a partition is
    given).  Bit-reproducible for fixed (seed, n_paths, n_max).

    Per walk block, the running total is added up to each checkpoint and
    each cover sum over the block's times in that cover (the covers are in
    time order and disjoint), one segment of rows at a time.  A segment is
    one reduce over its rows after the carried sum has gone into the first
    row: whole rows are added in turn, the floats of a per-time loop.  Rows
    of one number (one path at d = 1) are added in a loop, since numpy sums
    those pairwise (_fold)."""
    if n_paths < 1:
        raise ChainConfigError(f"need at least one path, got {n_paths}")
    cps = sorted(set(int(t) for t in checkpoints))
    if cps and (cps[0] < 1 or cps[-1] > n_max):
        raise ChainConfigError(f"checkpoints must lie in [1, {n_max}]")
    covers = None
    if partition is not None:
        covers = partition.i_blocks
        if partition.cover_end > n_max:
            raise ChainConfigError(
                f"partition cover end {partition.cover_end} exceeds horizon {n_max}"
            )
    table = _centered_table(chain, n_max)
    d, k = chain.d, len(covers or [])
    sums = np.zeros((n_paths, len(cps), d))
    blocks = np.zeros((n_paths, k, d)) if covers is not None else None

    for lo, hi, paths in _chunk_walks(chain, n_max, n_paths, seed):
        cover = np.zeros((k, hi - lo, d))  # this chunk's cover sums
        total = np.zeros((hi - lo, d))
        i = j = 0  # the next checkpoint and the next cover
        for t0, vals in _block_values(table, paths):
            t, last = t0, t0 + len(vals) - 1
            while t <= last and i < len(cps):  # the total, up to each checkpoint
                end = min(cps[i], last)
                rows = vals[t - t0 : end - t0 + 1]
                head = rows[0].copy()
                _fold(total, rows)
                rows[0] = head  # the cover pass reads the block's values too
                if end == cps[i]:
                    sums[lo:hi, i] = total
                    i += 1
                t = end + 1
            while j < k and covers[j][0] <= last:  # the covers this block meets
                a, b = covers[j]
                _fold(cover[j], vals[max(a, t0) - t0 : min(b, last) - t0 + 1])
                if b > last:
                    break
                j += 1
        if blocks is not None:
            blocks[lo:hi] = cover.swapaxes(0, 1)
    return PathBatch(
        seed=int(seed), n_paths=int(n_paths), checkpoints=cps, sums=sums, block_sums=blocks,
    )


# ---------------------------------------------------------------------------
# Gaussian surrogate


@dataclass
class SurrogateBatch:
    """Independent Gaussians matched to the exact cover-sum covariances;
    cumulative sums along the block axis, shape (samples, blocks, d)."""

    cum_sums: np.ndarray
    clipped: int

    def projected(self, u: np.ndarray) -> np.ndarray:
        return self.cum_sums @ np.asarray(u, dtype=float)


def gaussian_surrogate(partition, n_samples: int, seed: int) -> SurrogateBatch:
    """Samples of the running sums of independent N(0, Cov(Theta_j)) vectors.

    Eigenvalues in [-1e-10, 0) are clipped to zero (counted); anything below
    that tolerance is treated as a moment-engine bug and raises.
    """
    covs = np.stack(partition.theta_cov)
    vals, vecs = np.linalg.eigh(covs)
    low = vals.min(axis=1)
    bad = np.flatnonzero(low < PSD_TOL)
    if bad.size:
        j = int(bad[0])
        raise ChainConfigError(f"cover covariance {j + 1} is not PSD: min eigenvalue {low[j]}")
    neg = vals < 0
    roots = vecs * np.sqrt(np.where(neg, 0.0, vals))[:, None, :]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    z = rng.standard_normal((n_samples, *vals.shape))
    samples = np.einsum("jdk,njk->njd", roots, z)
    return SurrogateBatch(cum_sums=np.cumsum(samples, axis=1), clipped=int(neg.sum()))


# ---------------------------------------------------------------------------
# scalar statistics


def ks_statistic(standardized: np.ndarray) -> float:
    """Exact Kolmogorov-Smirnov distance of a sample to the standard normal.

    Phi(x) = erfc(-x / sqrt 2) / 2 is evaluated once per distinct value: a
    run of ties x_(i) = ... = x_(j) meets the empirical CDF's largest gaps
    at its ends, j / n - Phi above and Phi - (i - 1) / n below."""
    x = np.sort(np.asarray(standardized, dtype=float))
    n = x.shape[0]
    first = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))  # each value's first index
    cdf = 0.5 * np.fromiter(map(math.erfc, (-x[first] / math.sqrt(2.0)).tolist()), float)
    upper = np.append(first[1:], n) / n - cdf
    lower = cdf - first / n
    return float(max(upper.max(), lower.max()))


def w1_two_sample(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact W1 distance between two empirical laws (integral of the CDF gap)."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    grid = np.concatenate([xs, ys])
    grid.sort(kind="mergesort")
    fx = np.searchsorted(xs, grid[:-1], side="right") / xs.shape[0]
    fy = np.searchsorted(ys, grid[:-1], side="right") / ys.shape[0]
    return float(np.sum(np.abs(fx - fy) * np.diff(grid)))


def _bootstrap_se(values: np.ndarray, stat, n_boot: int, seed: int) -> float:
    rng = _stream(seed, 0xB007)
    n = values.shape[0]
    reps = np.empty(n_boot)
    for i in range(n_boot):
        reps[i] = stat(values[rng.integers(0, n, n)])
    return float(reps.std(ddof=1))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class KsPoint:
    n: int
    direction: int
    ks: float
    stderr: float
    variance: float
    skipped: bool = False
    reason: str | None = None


@dataclass
class KsCurve:
    points: list
    n_paths: int
    seed: int

    @property
    def max_ks(self) -> float | None:
        live = [p.ks for p in self.points if not p.skipped]
        return max(live) if live else None


def clt_diagnostic(
    batch: PathBatch,
    chain: ChainSpec,
    directions: np.ndarray | None = None,
) -> KsCurve:
    """KS distance of exact-variance-standardized checkpoint sums to the
    standard normal, per checkpoint and direction.  Zero-variance checkpoints
    are reported as skipped.

    Each direction's variances come from one prefix scan to the last
    checkpoint, read at every checkpoint: the same floats as one var_window
    per checkpoint.  Directions are scanned one at a time, since a scan over
    several directions at once can round differently."""
    eng = engine_for(chain)
    if directions is None:
        directions = np.eye(chain.d)[:1]
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    se = _KOLMOGOROV_STD / math.sqrt(batch.n_paths)
    cps = batch.checkpoints
    curves = [eng.prefix_variances(1, cps[-1], u[None])[:, 0] for u in dirs] if cps else []
    points = []
    for i, n in enumerate(cps):
        for k, (u, curve) in enumerate(zip(dirs, curves)):
            var = float(curve[n - 1])
            if var <= 0.0:
                points.append(KsPoint(
                    n=n, direction=k, ks=math.nan, stderr=se, variance=var,
                    skipped=True, reason="zero variance: cannot standardize",
                ))
                continue
            z = (batch.sums[:, i] @ u) / math.sqrt(var)
            points.append(KsPoint(
                n=n, direction=k, ks=ks_statistic(z), stderr=se, variance=var,
            ))
    return KsCurve(points=points, n_paths=batch.n_paths, seed=batch.seed)


@dataclass
class VarianceMatchPoint:
    k: int
    n: int  # cover end b_k + r
    gap: float
    normalizer: float
    ratio: float


@dataclass
class VarianceMatchCurve:
    points: list
    c_max: float
    delta: float

    def to_rows(self) -> list:
        return [
            {"k": p.k, "n": p.n, "gap": p.gap, "normalizer": p.normalizer,
             "ratio": p.ratio}
            for p in self.points
        ]


def variance_matching_diagnostic(
    chain: ChainSpec,
    partition,
    delta: float = 0.1,
) -> VarianceMatchCurve:
    """Exact gap curve g(k) = ||V_n - sum_{j<=k} Cov(Theta_j)||_2 at the end
    n of cover k, against the normalizer s_n^(1/2+delta); no Monte Carlo
    involved.

    The spectral norm, the largest |eigenvalue|, is the largest gap
    |Var(S_n . u) - sum_j Var(Theta_j . u)| over every unit direction u, so
    the reported constant, the max ratio over k, holds in all directions.
    """
    eng = engine_for(chain)
    ends = partition.i_ends
    vn = eng.v_curve(int(ends[-1]))[ends - 1]  # (K, d, d)
    csum = np.cumsum(np.stack(partition.theta_cov), axis=0)
    gaps = np.abs(np.linalg.eigvalsh(vn - csum)).max(axis=1)
    s_ns = np.linalg.eigvalsh(vn)[:, 0]
    e = 0.5 + delta
    points = []
    c_max = 0.0
    for k, (n, gap, s_n) in enumerate(zip(ends, gaps.tolist(), s_ns.tolist()), start=1):
        norm = s_n**e if s_n > 0 else math.inf
        ratio = gap / norm if norm > 0 else math.inf
        c_max = max(c_max, ratio)
        points.append(VarianceMatchPoint(
            k=k, n=int(n), gap=gap, normalizer=float(norm), ratio=float(ratio),
        ))
    return VarianceMatchCurve(points=points, c_max=c_max, delta=delta)


@dataclass
class RatePoint:
    k: int
    n: int
    w1: float
    stderr: float
    normalizer: float
    ratio: float
    sigma: float


@dataclass
class RateCurve:
    """W1 proxy for the pathwise rate: the coupling statement is almost-sure
    and not directly testable; this compares laws at block checkpoints."""

    points: list
    delta: float
    proxy_note: str = (
        "distributional proxy: W1 between laws at cover checkpoints; the "
        "underlying statement is pathwise and not testable from samples"
    )

    def to_rows(self) -> list:
        return [
            {"k": p.k, "n": p.n, "w1": p.w1, "stderr": p.stderr,
             "normalizer": p.normalizer, "ratio": p.ratio, "sigma": p.sigma}
            for p in self.points
        ]

    @property
    def bounded(self) -> bool:
        if len(self.points) < 2:
            return True
        first = self.points[0].ratio
        return all(p.ratio <= max(first, 1e-12) * 4.0 + 1e-12 for p in self.points)


def rate_scaling_diagnostic(
    batch: PathBatch,
    chain: ChainSpec,
    partition,
    surrogate: SurrogateBatch,
    delta: float = 0.1,
    k_values=None,
) -> RateCurve:
    """W1(empirical law of S . u at cover end k, empirical law of the
    surrogate's Gaussian sum at the same cover) normalized by
    s_n^(1/4+delta), u the first coordinate direction; the two samples are
    compared by w1_two_sample.  Standard errors come from BOOTSTRAP_REPS
    bootstrap resamples of the paths.  k_values restricts to the given
    1-based block indices (default: every block)."""
    if batch.block_sums is None:
        raise ChainConfigError("batch was sampled without a partition")
    u = np.eye(chain.d)[0]
    proj = np.cumsum(batch.block_sums @ u, axis=1)  # (paths, K)
    tvar = partition.theta_var(u)
    cum_var = np.cumsum(tvar)
    e = 0.25 + delta
    points = []
    if k_values is None:
        k_iter = range(proj.shape[1])
    else:
        k_iter = sorted({int(k) - 1 for k in k_values})
        if k_iter and (k_iter[0] < 0 or k_iter[-1] >= proj.shape[1]):
            raise ChainConfigError(f"k_values outside 1..{proj.shape[1]}")
    if k_iter:  # s_n for every n up to the last cover end asked for
        s_curve = engine_for(chain).s_curve(int(partition.i_ends[k_iter[-1]]))
    ys = surrogate.projected(u)
    for k in k_iter:
        n = int(partition.i_ends[k])
        sigma = math.sqrt(max(cum_var[k], 0.0))
        xs = proj[:, k]
        if sigma <= 0:
            continue
        stat = partial(w1_two_sample, ys=ys[:, k])
        w1 = stat(xs)
        se = _bootstrap_se(xs, stat, BOOTSTRAP_REPS, batch.seed + k)
        s_n = float(s_curve[n - 1])
        norm = s_n**e if s_n > 0 else math.inf
        points.append(RatePoint(
            k=k + 1, n=n, w1=w1, stderr=se, normalizer=float(norm),
            ratio=float(w1 / norm), sigma=sigma,
        ))
    return RateCurve(points=points, delta=delta)


@dataclass
class LilReport:
    """Cross-path law of max_n |S_n . u| / sqrt(2 V_n log log V_n) over the
    checkpoints where V_n >= e^e."""

    quantiles: dict
    n_paths: int
    n_included: int
    first_n: int | None
    seed: int

    @property
    def median(self) -> float | None:
        return self.quantiles.get(0.5)


def lil_diagnostic(
    chain: ChainSpec,
    n_max: int,
    n_paths: int,
    seed: int,
) -> LilReport:
    """Per-path running maximum of the iterated-logarithm ratio along the
    first coordinate direction, streamed with the same chunked deterministic
    sampling as sample_paths."""
    eng = engine_for(chain)
    u = np.eye(chain.d)[0]
    v = eng.prefix_variances(1, n_max, u[None, :])[:, 0]
    gate = v >= math.exp(math.e)
    if not gate.any():
        return LilReport(
            quantiles={}, n_paths=n_paths, n_included=0, first_n=None, seed=seed,
        )
    norm = np.full(n_max, np.inf)
    lv = np.log(np.log(v, where=gate, out=np.ones_like(v)))
    norm[gate] = np.sqrt(2.0 * v[gate] * lv[gate])
    first_n = int(np.argmax(gate)) + 1

    table = _centered_table(chain, n_max) @ u
    best = np.zeros(n_paths)
    for lo, hi, paths in _chunk_walks(chain, n_max, n_paths, seed):
        acc, total = best[lo:hi], np.zeros(hi - lo)
        for t, vals in _block_values(table, paths):
            run = np.empty_like(vals)  # running sums, added in time order
            for v, s in zip(vals, run):
                total = np.add(total, v, out=s)
            gated = np.flatnonzero(gate[t - 1 : t - 1 + len(run)])
            if gated.size:  # a maximum reads its terms in any order
                ratio = np.abs(run[gated]) / norm[t - 1 + gated, None]
                np.maximum(acc, ratio.max(axis=0), out=acc)
    qs = (0.1, 0.25, 0.5, 0.75, 0.9)
    quantiles = {q: float(np.quantile(best, q)) for q in qs}
    return LilReport(
        quantiles=quantiles, n_paths=n_paths, n_included=int(gate.sum()),
        first_n=first_n, seed=seed,
    )
