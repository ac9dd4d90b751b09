"""Exact first and second moments of observable partial sums.

Everything here is computed from the chain's exact laws, not by simulation.
The workhorse is one moment scan (MomentEngine.scan), linear in the window
length, over (p, phi): forward the state law and E[T 1{x}] of the running
sum T; backward 1 and the conditional mean g1_t = v_t + K_t g1_{t+1}, on
forward kernels only.  E[T^2] is one number per direction, and each step
adds w . (v (2 phi - v p)) at the new (p, phi), with v the centered values
and w the weights of the time entered: ones forward, the marginal m_t
backward, where it reads suffix variances m_t . g2_t - (m_t . g1_t)^2.

The scan is run-aware.  From the time a chain's kernels and observable
repeat with a common period (periodic schedules and cosine mixtures of
integer period from the start, constant or linear mixtures from their flat
step), one step is a fixed affine map on (p, phi), given node values
shifted by one mean per phase, read from the marginal table at a late time
of that phase; the shift is deterministic, so every variance stays exact.  Every stride of the scan applies a stack of
prefix composites of step maps and reads its variances in one batched
reduction (a blocked linear-recurrence scan).
Inside a run a stride from the period's first phase takes up to B steps
from the run's kept span, composed once per scan direction; any other
stride reads the kernels of up to 2B times as one stack
(KernelSchedule.stack) and composes their maps by recursive pairing, about
2k compositions in 2 ceil(log2 k) stacked passes.  A stride ends where the
run begins, at the run's next first phase, at a mask edge and before a
kernel whose shape differs, so where the state count changes it holds one
map.

Two unmasked scans from the same start yield prefixes of one curve, bit for
bit.  And once the marginal table has found its float cycle (c, P), a scan
whose ends both lie at or past c0 = max(run t0, c) yields a prefix of the
curve of any longer scan whose start has the same phase mod
lcm(run period, P): every input of its steps repeats with that period.  An
engine keeps the longest curve scanned per (scan direction, direction rows,
phase) for such scans and per (scan direction, direction rows, start) for
any other unmasked scan, at most _CURVE_BYTES in all.  A scan yields the
held curve of its key first and walks only past its end.

A pairwise-covariance accumulation path is kept alongside as an
independent cross-check and for callers that want per-pair terms.

Even moments E[S^p] (lp_norm) come from a forward recursion over
E[T^k 1{x}], k = 0..p, linear in the window like the scan;
window_distribution builds the exact law itself, atom by atom.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainConfigError, ChainSpec, pair_joint
from .util import dobrushin

TRUNCATION_DEFAULT = 1e-14
ATOM_CAP_DEFAULT = 100_000
GRID_DEFAULT = 1e-9
_DYADIC_MAX_DEN = 1 << 24


# ---------------------------------------------------------------------------
# moment sweep

# A run's kept span holds B steps rounded down to a multiple of the run's
# period (at least one period); a longer span would hold more memory per kept
# span and move the floats of every run.
B = 256
# Most steps one stride outside a run advances: _prefix's work is linear in
# the chunk length, so a longer chunk pays the per-stride numpy overhead less
# often.
_CHUNK = 2 * B
# Kept spans per engine, one per (scan direction, direction rows): a span
# grows with the state count, and _walk reads it at every first-phase stride.
_SPANS_KEPT = 4
# Most bytes an engine's kept curves hold in all, the oldest key going first:
# a curve from time 1 can be as long as the horizon.
_CURVE_BYTES = 1 << 24
# A run's centres are the marginal table's phase means this many steps past
# its start (rounded down to whole periods), by when the tables of the chains
# measured have reached their float cycle.
_CENTRE_AT = 1 << 16


class _Sweep:
    """Exact moments of running sums T, one channel per direction.

    The state is (p, phi): forward (P(x), E[T 1{x}]) over the current state
    x, backward (1, E[T | x]) for the sum from the current time onward.  A
    step is p' = Q p, phi' = Q phi + v Q p, with Q the transposed kernel
    forward and the kernel backward and v the node values of the time
    entered.  e2 is E[T^2] per channel, not per state: as w' Q = w for the
    weights w of the module docstring, a step adds w' . (v (2 phi' - v p')).
    Values must be centered by the caller if a centered sum is wanted.
    """

    def __init__(self, p0: np.ndarray, v0: np.ndarray, w0: np.ndarray):
        # v0 (states, channels): node values at the first time; w0 its weights
        self.p = p0.astype(float)
        self.phi = v0 * self.p[:, None]
        self.e2 = w0 @ (v0 * self.phi)
        self.var0 = self.e2 - (w0 @ self.phi) ** 2

    def jump(self, maps, w: np.ndarray, live: bool) -> np.ndarray:
        """Apply k prefix composites (Q, X) with each step's node values V
        (see MomentEngine._chunk) and return the variances after each, shape
        (k, channels), read with the weight rows w.  live=False drops V."""
        q, x, v = maps
        k, rows, cols = q.shape
        # one matrix product per stack: the maps' rows against (p, phi)
        pq = (q.reshape(-1, cols) @ np.column_stack([self.p, self.phi])).reshape(k, rows, -1)
        p, phi = pq[..., 0], pq[..., 1:]
        e2 = np.broadcast_to(self.e2, (k, len(self.e2)))
        if live:
            phi += (x.reshape(-1, cols) @ self.p).reshape(x.shape[:3]).transpose(0, 2, 1)
            inc = np.einsum("ks,ksc->kc", w, v * (2.0 * phi - v * p[..., None]))
            # running sums by doubling: a chain of k adds would round k deep
            for h in (1 << i for i in range((k - 1).bit_length())):
                inc[h:] = inc[h:] + inc[:-h]
            e2 = self.e2 + inc
        mean = np.einsum("ks,ksc->kc", w, phi)
        self.p, self.phi, self.e2 = p[-1], phi[-1], e2[-1]
        return e2 - mean * mean


def _compose(later, earlier):
    """Composite of two step maps, each (Q, X) for the block matrix
    [[Q, 0], [X, Q]] on (p, phi), with X per direction (axis c before the
    matrix axes).  Either side may carry a leading stack axis; two stacks
    compose entry by entry."""
    q2, x2 = later
    q1, x1 = earlier
    return q2 @ q1, x2 @ q1[..., None, :, :] + q2[..., None, :, :] @ x1


def _prefix(maps):
    """Inclusive prefix composites of a stack of step maps (entry i is map i
    after ... after map 0), by recursive pairing: maps 2i + 1 after 2i in
    one stacked _compose, the pairs' prefix composites by recursion (the odd
    entries), then each even entry 2i > 0 as map 2i after entry 2i - 1 in
    one more.  About 2k compositions in 2 ceil(log2 k) stacked passes."""
    k = len(maps[0])
    if k < 2:
        return maps
    odd = _prefix(_compose(tuple(z[1::2] for z in maps), tuple(z[: k - 1 : 2] for z in maps)))
    even = _compose(tuple(z[2::2] for z in maps), tuple(z[: (k - 1) // 2] for z in odd))
    out = tuple(np.empty_like(z) for z in maps)
    for o, z, a, b in zip(out, maps, odd, even):
        o[0], o[1::2], o[2::2] = z[0], a, b
    return out


@dataclass
class _Run:
    """From time t0 on, the steps into and out of each time repeat with
    `period`; `centers[phase]` is the marginal table's mean of the observable
    at a late time of that phase, `nodes[phase]` the observable less it, and
    `span` the steps of the run's kept span."""

    t0: int
    period: int
    centers: np.ndarray
    nodes: np.ndarray

    @property
    def span(self) -> int:
        return B // self.period * self.period


def _polar_directions(d: int) -> np.ndarray:
    """Directions e_i (i < d), then e_i + e_j (i < j): the variances along
    them determine a d x d covariance by polarization."""
    eye = np.eye(d)
    pairs = [eye[i] + eye[j] for i in range(d) for j in range(i + 1, d)]
    return np.array([*eye, *pairs]).reshape(-1, d)


def _polarize(pv: np.ndarray, d: int) -> np.ndarray:
    """d x d covariances from variances along _polar_directions(d) in the
    last axis."""
    v = np.zeros(pv.shape[:-1] + (d, d))
    for i in range(d):
        v[..., i, i] = pv[..., i]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for k, (i, j) in enumerate(pairs, start=d):
        v[..., i, j] = v[..., j, i] = 0.5 * (pv[..., k] - pv[..., i] - pv[..., j])
    return v


# ---------------------------------------------------------------------------
# results


@dataclass
class LpNorm:
    """L^p norm of a projected, centered partial sum."""

    value: float
    exact: bool
    method: str  # "moment-recursion"

    def __float__(self) -> float:
        return self.value


class SupportOverflow(RuntimeError):
    """A law's support grew past the configured atom cap."""


# ---------------------------------------------------------------------------
# engine


def _centered(chain: ChainSpec, j: int) -> np.ndarray:
    """f_j - E f_j at one time j."""
    f = chain.obs(j)
    return f - chain.marginal(j) @ f


class MomentEngine:
    """Exact moment computations for one chain."""

    def __init__(self, chain: ChainSpec):
        self.chain = chain
        self.d = chain.d
        self._spans: dict = {}  # (backward, direction rows) -> the run's kept span
        self._curves: dict = {}  # _curve_key -> the longest curve scanned of that key
        self._curve_bytes = 0  # bytes of the kept curves

    # -- per-time -----------------------------------------------------------

    def centered_max(self, a: int, b: int, u: np.ndarray) -> float:
        """max |(f_t(x) - E f_t) . u| over t in [a, b] and every state x.
        From the table's cycle c on, the rows repeat with the lcm of its period
        and the observable's, so a piece is cut after one such period there."""
        chain = self.chain
        chain.marginal(b)  # may find the cycle
        cycle, q, rows = chain.cycle, chain.observable.period(), []
        for lo, hi in chain.pieces(a, b):
            if cycle is not None and q is not None:
                hi = min(hi, max(lo, cycle[0]) + math.lcm(cycle[1], q) - 1)
            rows.append(chain.centered_stack(lo, hi) @ u)
        return max(float(np.max(np.abs(r))) for r in rows)

    # -- pairwise covariance path --------------------------------------------

    def cov_pair(self, i: int, j: int) -> np.ndarray:
        """Exact Cov(X_i, X_j), d x d, from the exact pair law.  The values
        are centred first: E[f_i f_j] - E f_i E f_j would lose the digits of
        a covariance far below |E f|^2."""
        if j < i:
            return self.cov_pair(j, i).T
        ci = _centered(self.chain, i)
        if i == j:
            return ci.T @ (self.chain.marginal(i)[:, None] * ci)
        return ci.T @ pair_joint(self.chain, i, j).matrix @ _centered(self.chain, j)

    def cov_partial_sum_pairwise(
        self, n: int, m: int, truncate: float | None = TRUNCATION_DEFAULT
    ) -> tuple[np.ndarray, bool]:
        """V_{n,m} by accumulating cov_pair terms.

        When `truncate` is set and the window admits a verified geometric
        envelope (sup Dobrushin coefficient < 1), far pairs whose envelope
        bound falls below `truncate` are skipped and the exact flag clears.
        Quadratic in the window length; prefer cov_partial_sum for large
        windows.
        """
        if m < n:
            raise ChainConfigError(f"bad window [{n}, {m}]")
        delta = max((dobrushin(self.chain.kernel(t)) for t in range(n, m)), default=0.0)
        cs = [_centered(self.chain, j) for j in range(n, m + 1)]  # cs[j - n], once per call
        bounds = [float(np.max(np.abs(c))) for c in cs]
        can_truncate = truncate is not None and delta < 1.0
        v = np.zeros((self.d, self.d))
        exact = True
        for i in range(n, m + 1):
            ci = cs[i - n]
            v += ci.T @ (self.chain.marginal(i)[:, None] * ci)
            prod = None
            bi = bounds[i - n]
            for j in range(i + 1, m + 1):
                if can_truncate and bi * bounds[j - n] * 2.0 * delta ** (j - i) < truncate:
                    exact = False
                    break
                prod = self.chain.kernel(i) if prod is None else prod @ self.chain.kernel(j - 1)
                joint = self.chain.marginal(i)[:, None] * prod
                c = ci.T @ joint @ cs[j - n]
                v += c + c.T
        return v, exact

    # -- recursion path -------------------------------------------------------

    @functools.cached_property
    def _run(self) -> _Run | None:
        """The run the chain enters, or None: from t0 on, kernel(t - 1),
        kernel(t) and f_t repeat with the lcm of the kernel and observable
        periods, that period is at most B, and every kernel is square of one
        size."""
        chain = self.chain
        ks, obs = chain.kernels.repeats(), chain.observable.period()
        if ks is None or obs is None:
            return None
        period = math.lcm(ks[1], obs)
        if period > B:
            return None
        t0 = ks[0] + 1
        q = chain.kernels.stack(t0, period)
        if len(q) < period or q.shape[1] != q.shape[2]:
            return None
        # the laws at a late time in phase with t0: once the marginal table
        # has cycled, these are its cycle's rows
        t = t0 + _CENTRE_AT // period * period
        laws = chain.marginals(np.arange(t, t + period))
        tables = chain.observable.stack(t, t + period - 1)
        centers = np.einsum("ts,tsd->td", laws, tables)
        return _Run(t0=t0, period=period, centers=centers, nodes=tables - centers[:, None, :])

    def _nodes(self, a: int, b: int, dirs: np.ndarray) -> np.ndarray:
        """f_t . u for t in [a, b] and every direction row u, shape
        (b - a + 1, states, directions), f_t shifted by the run's centre of
        its phase from t0 on and by E f_t before: deterministic shifts, so
        variances are those of the centered sums.  [a, b] lies on one side
        of t0 and keeps one state count."""
        run = self._run
        if run is None or b < run.t0:
            f = self.chain.centered_stack(a, b)
        else:
            f = run.nodes[(np.arange(a, b + 1) - run.t0) % run.period]
        return f @ dirs.T

    def _span(self, dirs: np.ndarray, back: bool):
        """The run's kept span: (Q, X, V) of its first 1..span steps (see
        _chunk).  Forward they enter times of phase 0, 1, ...; backward they
        leave times of phase period - 1, period - 2, ...  One period is a
        chunk at the run's start, then doubling: h + i steps compose i steps
        after h, h a multiple of the period, and step h + i has V of step i."""
        key = (back, dirs.shape, dirs.tobytes())
        maps = self._spans.get(key)
        if maps is not None:
            return maps
        run = self._run
        maps = self._chunk(run.t0 + (run.period - 1 if back else 0), run.period, dirs, back, True)
        while len(maps[0]) < run.span:
            h = len(maps[0])
            q, x, v = (z[: run.span - h] for z in maps)
            more = (*_compose((q, x), (maps[0][h - 1], maps[1][h - 1])), v)
            maps = tuple(np.concatenate(pair) for pair in zip(maps, more))
        if len(self._spans) >= _SPANS_KEPT:
            self._spans.pop(next(iter(self._spans)))
        self._spans[key] = maps
        return maps

    def _stride(self, nxt: int, stop: int, edges, dirs: np.ndarray, back: bool, live: bool):
        """Stacked (Q, X, V) of the steps the scan takes at once from the
        step into time nxt.  In the run from the period's first phase, the
        first k steps of the kept span, k up to its length; in the run off
        that phase, a chunk up to the next first-phase time.  Outside the
        run, a chunk of up to _CHUNK steps, ending before the run's t0.  No
        further than `stop` or the next mask edge."""
        run = self._run
        first = False
        if run is not None and nxt >= run.t0:
            phase = (nxt - run.t0) % run.period
            first = phase == (run.period - 1 if back else 0)
            if first:
                k = run.span
            else:
                k = phase + 1 if back else run.period - phase
            if back:
                k = min(k, nxt - run.t0 + 1)
        else:
            k = _CHUNK if back or run is None else min(_CHUNK, run.t0 - nxt)
        k = min(k, abs(stop - nxt) + 1)
        if edges is not None:  # times where a mask segment begins
            i = np.searchsorted(edges, nxt, side="right")
            if back and i:
                k = min(k, nxt - int(edges[i - 1]) + 1)
            elif not back and i < len(edges):
                k = min(k, int(edges[i]) - nxt)
        if first:
            return tuple(z[:k] for z in self._span(dirs, back))
        return self._chunk(nxt, k, dirs, back, live)

    def _chunk(self, nxt: int, k: int, dirs: np.ndarray, back: bool, live: bool):
        """Stacked (Q, X, V) of the k' <= k steps into times nxt, nxt + 1,
        ... (nxt - 1, ... backward), up to the first kernel whose shape
        differs: (Q, X) the prefix composites of the steps' own maps by
        _prefix, and V (k', states, channels) the node values of each time
        entered.  live=False gives X and V no channels: jump drops them."""
        chain = self.chain
        # the step into time t uses kernel t backward, t - 1 forward
        if back:
            # kernels nxt, nxt - 1, ... keep one shape while the state count does
            lo = max(nxt - k + 1, min(chain.pieces(nxt - k + 1, nxt + 1)[-1][0], nxt))
            q = chain.kernels.stack(lo, nxt - lo + 1)[::-1]
        else:
            q = chain.kernels.stack(nxt - 1, k).transpose(0, 2, 1)
        a, b = (nxt - len(q) + 1, nxt) if back else (nxt, nxt + len(q) - 1)
        v = self._nodes(a, b, dirs) if live else np.zeros((len(q), q.shape[1], 0))
        v = v[::-1] if back else v
        return (*_prefix((q, v.transpose(0, 2, 1)[..., None] * q[:, None])), v)

    def scan(self, start: int, stop: int, directions: np.ndarray, inside=None):
        """Exact moment scan of S . u for every direction row u.

        Walks from `start` to the time `stop` and yields (t, v) chunks: v[i]
        holds the variances of the sum over the times from `start` through
        the i-th time of the chunk, t being the first.  Forward
        (stop >= start) these are prefix sums, one time per step.
        Backward (stop < start) they are suffix sums over [t, start], by the
        conditional-moment recursion g1_t = v_t + K_t g1_{t+1},
        g2_t = v_t^2 + 2 v_t K_t g1_{t+1} + K_t g2_{t+1}, read as
        Var = m_t . g2_t - (m_t . g1_t)^2 with m_t the marginal at t.

        Every chunk after the first time is one stride (_stride): a stack of
        up to _CHUNK composed step maps, applied by _Sweep.jump.  `inside`, a
        boolean mask indexed by t minus the lower end, keeps the times where
        it is False out of the sum; a mask edge ends a stride, and a mask
        that keeps every time is dropped (the same floats).  An end past the
        chain's horizon raises ChainConfigError before any step.

        An unmasked scan has a key (see _curve_key), and the engine keeps
        the longest curve scanned of each key.  When the held curve is long
        enough it serves the scan: the whole curve arrives as one read-only
        chunk, not one chunk per stride.  When it is shorter, it arrives
        first, as one read-only chunk; a consumer
        that asks for more gets the rest from a fresh walk from `start`,
        whose rows already yielded are skipped.  The curve a walk yields, up
        to where its consumer stops, is kept when longer than the one held.
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        top, end = self.chain.max_time, max(start, stop)
        if top is not None and end > top:
            raise ChainConfigError(f"scan to time {end} passes the horizon {top}")
        if inside is not None and not inside.all():
            yield from self._walk(start, stop, dirs, inside)
            return
        key = self._curve_key(start, stop, dirs)
        held, n = self._curves.get(key), abs(stop - start) + 1
        done = 0  # rows yielded
        if held is not None:
            yield start, held[:n]
            done = len(held)
            if done >= n:
                return
        sign = -1 if stop < start else 1
        chunks, rows = [], 0  # the walk's chunks, and the rows they hold
        try:
            for _, v in self._walk(start, stop, dirs, None):
                chunks.append(v)
                rows += len(v)
                if rows > done:
                    yield start + sign * done, v[done - rows :]
                    done = rows
        finally:
            self._keep(key, chunks)

    def _curve_key(self, start: int, stop: int, dirs: np.ndarray):
        """The key of an unmasked scan.

        Two scans from the same start yield prefixes of one curve: a
        stride's length depends on `stop` only where the last stride is cut
        short, _prefix builds entry i from maps 0..i only, and jump's running
        sum adds to row i only over shifts h <= i.  So any such scan has the
        key (backward, direction rows, "start", start).

        Scans whose curves repeat share a key across starts.  From
        c0 = max(run t0, the marginal table's cycle start c) on, p0, the node
        values, the kernels, the backward weights and the stride lengths
        repeat with the lcm L of the run's and the table's periods; so a
        scan with both ends at or past c0 has the key (backward, direction
        rows, "phase", (start - c0) mod L)."""
        run, cycle = self._run, self.chain.cycle
        rows = (stop < start, dirs.shape, dirs.tobytes())
        if run is not None and cycle is not None:
            c0 = max(run.t0, cycle[0])
            if min(start, stop) >= c0:
                return (*rows, "phase", (start - c0) % math.lcm(run.period, cycle[1]))
        return (*rows, "start", start)

    def _keep(self, key, chunks) -> None:
        """Keep the curve of `chunks` under `key` if it is longer than the one
        held, as the newest key.  The oldest other keys go until the kept
        curves hold at most _CURVE_BYTES in all; a curve larger than
        _CURVE_BYTES is not kept."""
        curves, held = self._curves, self._curves.get(key)
        rows, size = sum(len(v) for v in chunks), sum(v.nbytes for v in chunks)
        if rows <= (0 if held is None else len(held)) or size > _CURVE_BYTES:
            return
        if held is not None:
            self._curve_bytes -= curves.pop(key).nbytes
        while self._curve_bytes + size > _CURVE_BYTES:
            self._curve_bytes -= curves.pop(next(iter(curves))).nbytes
        curve = np.concatenate(chunks)
        curve.flags.writeable = False
        curves[key] = curve
        self._curve_bytes += size

    def _walk(self, start: int, stop: int, dirs: np.ndarray, inside):
        """The scan's stride loop (see scan), from the first time on."""
        chain = self.chain
        back = stop < start
        sign = -1 if back else 1
        lo = stop if back else start
        edges = None
        if inside is not None:
            edges = np.flatnonzero(inside[1:] != inside[:-1]) + 1 + lo

        def live(t):
            return inside is None or inside[t - lo]

        t = start
        p0 = np.ones(chain.state_size(t)) if back else chain.marginal(t)
        w0 = chain.marginal(t) if back else np.ones_like(p0)
        v0 = self._nodes(t, t, dirs)[0] if live(t) else np.zeros((len(p0), len(dirs)))
        sweep = _Sweep(p0, v0, w0)
        yield t, sweep.var0[None]
        while t != stop:
            nxt = t + sign
            on = live(nxt)
            maps = self._stride(nxt, stop, edges, dirs, back, on)
            k = len(maps[0])
            if back:
                w = chain.marginals(np.arange(nxt - k + 1, nxt + 1))[::-1]
            else:
                w = np.ones(maps[0].shape[:2])
            yield nxt, sweep.jump(maps, w, on)
            t = nxt + sign * (k - 1)

    def _end_var(self, a: int, b: int, directions, inside=None) -> np.ndarray:
        """Var(S . u) over [a, b] per direction row, recorded once at b."""
        if b < a:
            raise ChainConfigError(f"bad window [{a}, {b}]")
        for _, v in self.scan(a, b, directions, inside):
            pass
        return v[-1]

    def cov_partial_sum(self, n: int, m: int) -> np.ndarray:
        """Exact V_{n,m} = Cov(S_{n,m}) by the forward recursion, O(m - n)."""
        return _polarize(self._end_var(n, m, _polar_directions(self.d)), self.d)

    def v_matrix(self, n: int) -> np.ndarray:
        """V_n = V_{1,n}, the last matrix of v_curve(n)."""
        return self.v_curve(n)[-1]

    def s_value(self, n: int) -> float:
        """s_n: smallest eigenvalue of V_n."""
        return float(np.linalg.eigvalsh(self.v_matrix(n))[0])

    def v_curve(self, horizon: int) -> np.ndarray:
        """V_n for every n in [1, horizon], shape (horizon, d, d).

        One prefix sweep over coordinate and coordinate-pair directions;
        off-diagonals recovered by polarization.
        """
        if horizon < 1:
            raise ChainConfigError("horizon must be >= 1")
        return _polarize(self.prefix_variances(1, horizon, _polar_directions(self.d)), self.d)

    def s_curve(self, horizon: int) -> np.ndarray:
        """s_n for every n in [1, horizon] (one sweep, batched eigenvalues)."""
        return np.linalg.eigvalsh(self.v_curve(horizon))[:, 0]

    def var_window(self, n: int, m: int, u: np.ndarray) -> float:
        """Var(S_{n,m} . u) by a scalar recursion."""
        return float(self._end_var(n, m, u)[0])

    def var_segments(self, u: np.ndarray, segments) -> float:
        """Var of the sum of X_t . u over t in the union of [a, b] segments."""
        segs = sorted((int(a), int(b)) for a, b in segments)
        lo, hi = segs[0][0], max(b for _, b in segs)
        return float(self._end_var(lo, hi, u, _segment_mask(segs, lo, hi))[0])

    def cross_cov_segments(self, u: np.ndarray, segs1, segs2) -> float:
        """Cov(sum over segs1 . u, sum over segs2 . u) by polarization."""
        both = list(segs1) + list(segs2)
        v_union = self.var_segments(u, both)
        return 0.5 * (v_union - self.var_segments(u, segs1) - self.var_segments(u, segs2))

    def prefix_variances(self, a: int, b: int, directions: np.ndarray) -> np.ndarray:
        """Var(S_{a,t} . u) for every t in [a, b] and every direction row.

        Returns shape (b - a + 1, n_directions).
        """
        return np.concatenate([v for _, v in self.scan(a, b, directions)])

    def suffix_variances(self, a0: int, b: int, directions: np.ndarray) -> np.ndarray:
        """Var(S_{a,b} . u) for every a in [a0, b] and every direction row.

        Returns shape (b - a0 + 1, n_directions); entry [a - a0, i] is the
        variance of the suffix sum starting at a, from one backward scan.
        """
        return np.concatenate([v for _, v in self.scan(b, a0, directions)])[::-1]

    # -- distribution-level: exact L^p ----------------------------------------

    def window_distribution(
        self, n: int, m: int, u: np.ndarray, atom_cap: int = ATOM_CAP_DEFAULT,
        segments=None,
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Exact law of the centered projected sum over [n, m].

        Returns (values, probabilities, exact_keys).  Sums are keyed exactly
        on a common dyadic grid when all per-time values admit one (then
        exact_keys is True), otherwise on a GRID_DEFAULT-spaced lattice.
        Raises SupportOverflow past `atom_cap` atoms.
        """
        u = np.asarray(u, dtype=float)
        inside = _segment_mask(sorted(segments), n, m) if segments else None

        def vals(j):
            if inside is not None and not inside[j - n]:
                return np.zeros(self.chain.state_size(j))
            return _centered(self.chain, j) @ u

        all_vals = [vals(j) for j in range(n, m + 1)]
        scale = _dyadic_scale(all_vals, m - n + 1)
        if scale is not None:
            enc = [np.rint(v * scale).astype(np.int64) for v in all_vals]
            dec = 1.0 / scale
            method_exact = True
        else:
            enc = [np.rint(v / GRID_DEFAULT).astype(np.int64) for v in all_vals]
            dec = GRID_DEFAULT
            method_exact = False

        keys = np.unique(enc[0])
        probs = np.zeros((keys.shape[0], enc[0].shape[0]))
        idx = np.searchsorted(keys, enc[0])
        probs[idx, np.arange(enc[0].shape[0])] = self.chain.marginal(n)
        for t in range(n, m):
            kernel = self.chain.kernel(t)
            trans = probs @ kernel  # (atoms, s')
            kv = enc[t + 1 - n]
            s_next = kv.shape[0]
            all_keys = (keys[:, None] + kv[None, :]).ravel()
            uniq, inv = np.unique(all_keys, return_inverse=True)
            if uniq.shape[0] > atom_cap:
                raise SupportOverflow(
                    f"support overflow: {uniq.shape[0]} atoms exceeds cap {atom_cap}"
                )
            new = np.zeros((uniq.shape[0], s_next))
            cols = np.tile(np.arange(s_next), keys.shape[0])
            np.add.at(new, (inv, cols), trans.ravel())
            keys, probs = uniq, new
        w = probs.sum(axis=1)
        return keys * dec, w, method_exact

    def lp_norm(self, n: int, m: int, u: np.ndarray, p: int, segments=None) -> LpNorm:
        """Exact ||S_{n,m} . u||_{L^p} for even integer p >= 2; with
        `segments`, S sums over their union within [n, m].

        E[S^p] comes from a forward recursion over phi_k(x) = E[T^k 1{xi_t = x}],
        k = 0..p, T the running sum through time t: from phi_k = m_n v_n^k,
        each step is psi = Phi K_t, then
        phi_k = sum_{j <= k} C(k, j) v^(k - j) psi_j, with v the centered
        values of the time entered (zero off the segments).  Linear in the
        window, and no law is built, so no support can overflow.
        """
        p = int(p)
        if p < 2 or p % 2:
            raise ChainConfigError(f"p must be an even integer >= 2, got {p}")
        if m < n:
            raise ChainConfigError(f"bad window [{n}, {m}]")
        u = np.asarray(u, dtype=float)
        inside = _segment_mask(sorted(segments), n, m) if segments else None
        ks, binom, gap = _binomials(p)
        chain, phi = self.chain, None
        for lo, hi in chain.pieces(n, m):
            v = chain.centered_stack(lo, hi) @ u
            if inside is not None:
                v[~inside[lo - n : hi - n + 1]] = 0.0
            vp = v[:, None, :] ** ks[:, None]  # v^0, ..., v^p at each time of the piece
            mix = binom[..., None] * vp[:, gap]  # [i, k, j, y] = C(k, j) v_i(y)^(k - j)
            if phi is None:
                phi = (vp[0] * chain.marginal(n)).ravel()
            else:  # the step into lo changes the state count
                phi = _moment_steps(mix[:1], chain.kernels.stack(lo - 1, 1))[0] @ phi
            # the steps into lo + 1, ..., hi, at most B matrices at a time
            for t in range(lo, hi, B):
                q = chain.kernels.stack(t, min(B, hi - t))
                for step in _moment_steps(mix[t - lo + 1 : t - lo + 1 + len(q)], q):
                    phi = step @ phi
        # E[S^p] >= 0, but the rounding of a sum with signed terms may dip below
        moment = max(float(phi.reshape(p + 1, -1)[p].sum()), 0.0)
        return LpNorm(value=moment ** (1.0 / p), exact=True, method="moment-recursion")


# ---------------------------------------------------------------------------
# helpers


def _moment_steps(mix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """lp_norm's steps as matrices on Phi raveled by (k, state): entry
    [(k, y), (j, x)] = mix[k, j, y] K(x, y), from mix (steps, p + 1, p + 1,
    cols) and the kernels q (steps, rows, cols)."""
    k, p1, _, cols = mix.shape
    a = mix[..., None] * q.transpose(0, 2, 1)[:, None, None]
    return a.transpose(0, 1, 3, 2, 4).reshape(k, p1 * cols, p1 * q.shape[1])


@functools.cache
def _binomials(p: int):
    """k = 0..p, and over (k, j) C(k, j) (0 for j > k) and max(k - j, 0)."""
    ks = np.arange(p + 1)
    binom = np.array([[math.comb(k, j) for j in ks] for k in ks], dtype=float)
    return ks, binom, np.maximum(ks[:, None] - ks, 0)


def _segment_mask(segs, lo: int, hi: int) -> np.ndarray:
    """Whether each time of [lo, hi] lies in one of the [a, b] segments."""
    inside = np.zeros(hi - lo + 1, dtype=bool)
    for a, b in segs:
        if b < a:
            raise ChainConfigError(f"bad segment [{a}, {b}]")
        if a <= hi and b >= lo:
            inside[max(a, lo) - lo : min(b, hi) - lo + 1] = True
    return inside


def _dyadic_scale(all_vals, length: int) -> float | None:
    """Common power-of-two scale keying every value exactly, or None."""
    max_den = 1
    max_abs = 0.0
    for v in all_vals:
        for x in v:
            if x != 0.0:
                den = Fraction(float(x)).denominator
                if den > _DYADIC_MAX_DEN:
                    return None
                max_den = max(max_den, den)
            max_abs = max(max_abs, abs(float(x)))
    if max_abs * max_den * length >= 2**62:
        return None
    return float(max_den)


def engine_for(chain: ChainSpec) -> MomentEngine:
    """Memoized engine per chain instance, kept on the chain so that it is
    freed with it."""
    eng = getattr(chain, "_engine", None)
    if eng is None:
        eng = chain._engine = MomentEngine(chain)
    return eng


def cov_partial_sum(chain: ChainSpec, n: int, m: int) -> np.ndarray:
    return engine_for(chain).cov_partial_sum(n, m)
