"""Exact first and second moments of observable partial sums.

Everything here is computed from the chain's exact laws, not by simulation.
The workhorse is a forward recursion over (state, accumulated sum) moments
that yields window covariances in time linear in the window length; a
pairwise-covariance accumulation path is kept alongside as an independent
cross-check and for callers that want per-pair terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainConfigError, ChainSpec, pair_joint, walk
from .util import dobrushin

TRUNCATION_DEFAULT = 1e-14
ATOM_CAP_DEFAULT = 100_000
GRID_DEFAULT = 1e-9
_DYADIC_MAX_DEN = 1 << 24


# ---------------------------------------------------------------------------
# forward sweep


class _Sweep:
    """Tracks exact E[T 1{state}] and E[T^2 1{state}] per direction for
    running sums T, one column per direction.

    T accumulates node values (s, k) at each time and optional edge values
    (s, s', k) across each transition.  All values must already be centered
    by the caller if a centered sum is wanted.
    """

    def __init__(self, p0: np.ndarray, node0: np.ndarray | None, channels: int):
        self.p = p0.astype(float)
        if node0 is None:
            self.phi = np.zeros((p0.shape[0], channels))
            self.psi = np.zeros((p0.shape[0], channels))
        else:
            self.phi = node0 * self.p[:, None]
            self.psi = node0 * node0 * self.p[:, None]

    def step(self, kernel: np.ndarray, node: np.ndarray | None, edge: np.ndarray | None = None):
        pt = kernel.T @ self.p
        phi_t = kernel.T @ self.phi
        psi_t = kernel.T @ self.psi
        if edge is not None:
            kp = kernel * self.p[:, None]  # joint of (x, y)
            psi_t = (
                psi_t
                + 2.0 * np.einsum("xy,xyc,xc->yc", kernel, edge, self.phi)
                + np.einsum("xy,xyc->yc", kp, edge * edge)
            )
            phi_t = phi_t + np.einsum("xy,xyc->yc", kp, edge)
        if node is not None:
            psi_t = psi_t + 2.0 * node * phi_t + node * node * pt[:, None]
            phi_t = phi_t + node * pt[:, None]
        self.p, self.phi, self.psi = pt, phi_t, psi_t

    def var(self) -> np.ndarray:
        m = self.phi.sum(axis=0)
        return self.psi.sum(axis=0) - m * m


def _reversed_kernel(fwd: np.ndarray, m_from: np.ndarray, m_to: np.ndarray) -> np.ndarray:
    """Kernel of the time-reversed chain from time t + 1 back to time t."""
    rev = (fwd * m_from[:, None]).T  # (s_{t+1}, s_t), rows to renormalize
    denom = np.where(m_to > 0, m_to, 1.0)
    rev = rev / denom[:, None]
    rev[m_to <= 0] = 0.0
    if rev.shape[1]:
        rev[m_to <= 0, 0] = 1.0  # arbitrary valid row; carries zero mass
    return rev


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
    method: str  # "dp-dyadic", "dp-grid", or "monte-carlo"
    atoms: int
    stderr: float | None = None

    def __float__(self) -> float:
        return self.value


@dataclass
class WindowEigen:
    n: int
    m: int
    l2: float  # sqrt(trace V_{n,m})
    eig_min: float
    eig_max: float
    ratio: float


@dataclass
class EigenRatioReport:
    c1: float
    windows: list
    skipped: list
    c2: float | None
    singular_witness: tuple | None

    @property
    def bounded(self) -> bool:
        return self.c2 is not None and math.isfinite(self.c2)


class SupportOverflow(RuntimeError):
    """Sum-support grew past the configured atom cap and Monte Carlo is off."""


# ---------------------------------------------------------------------------
# engine


class MomentEngine:
    """Exact moment computations for one chain, with memoized per-time data."""

    def __init__(self, chain: ChainSpec):
        self.chain = chain
        self.d = chain.d
        self._means: dict[int, np.ndarray] = {}
        self._centered: dict[int, np.ndarray] = {}
        self._vlist: list = [None]  # _vlist[n] = V_{1,n}, grown on demand
        self._vscan = self.scan(1, None, _polar_directions(self.d))

    # -- per-time -----------------------------------------------------------

    def mean_obs(self, j: int) -> np.ndarray:
        m = self._means.get(j)
        if m is None:
            m = self.chain.marginal(j) @ self.chain.obs(j)
            self._means[j] = m
        return m

    def centered(self, j: int) -> np.ndarray:
        c = self._centered.get(j)
        if c is None:
            c = self.chain.obs(j) - self.mean_obs(j)
            self._centered[j] = c
        return c

    # -- pairwise covariance path --------------------------------------------

    def cov_pair(self, i: int, j: int) -> np.ndarray:
        """Exact Cov(X_i, X_j), d x d, from the exact pair law."""
        if j < i:
            return self.cov_pair(j, i).T
        fi = self.chain.obs(i)
        fj = self.chain.obs(j)
        if i == j:
            w = self.chain.marginal(i)
            second = fi.T @ (w[:, None] * fi)
        else:
            joint = pair_joint(self.chain, i, j).matrix
            second = fi.T @ joint @ fj
        return second - np.outer(self.mean_obs(i), self.mean_obs(j))

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
        bounds = [float(np.max(np.abs(self.centered(j)))) for j in range(n, m + 1)]
        can_truncate = truncate is not None and delta < 1.0
        v = np.zeros((self.d, self.d))
        exact = True
        for i in range(n, m + 1):
            v += self.cov_pair(i, i)
            prod = None
            bi = bounds[i - n]
            for j in range(i + 1, m + 1):
                if can_truncate and bi * bounds[j - n] * 2.0 * delta ** (j - i) < truncate:
                    exact = False
                    break
                prod = self.chain.kernel(i) if prod is None else prod @ self.chain.kernel(j - 1)
                joint = self.chain.marginal(i)[:, None] * prod
                c = self.chain.obs(i).T @ joint @ self.chain.obs(j) - np.outer(
                    self.mean_obs(i), self.mean_obs(j)
                )
                v += c + c.T
        return v, exact

    # -- recursion path -------------------------------------------------------

    def scan(self, a: int, b: int | None, directions: np.ndarray, inside=None, reverse=False):
        """Exact moment scan of S . u for every direction row u.

        Yields (t, sweep) after each time t enters the sum: t = a, ..., b, or
        without end when b is None.  With reverse=True the scan walks the
        time-reversed chain, t = b, ..., a, so sweep holds the suffix sum over
        [t, b].  `inside`, a boolean mask indexed by t - a, keeps the times
        where it is False out of the sum.  The sweep is one object updated
        in place; call sweep.var() at the times to record.
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        chain = self.chain

        def node(t):
            if inside is None or inside[t - a]:
                return self.centered(t) @ dirs.T
            return None

        if reverse:
            times = range(b, a - 1, -1)
        else:
            times = itertools.count(a) if b is None else range(a, b + 1)
        sweep = None
        for t in times:
            if sweep is None:
                sweep = _Sweep(chain.marginal(t), node(t), dirs.shape[0])
            elif reverse:
                rev = _reversed_kernel(chain.kernel(t), chain.marginal(t), chain.marginal(t + 1))
                sweep.step(rev, node(t))
            else:
                sweep.step(chain.kernel(t - 1), node(t))
            yield t, sweep

    def _end_var(self, a: int, b: int, directions, inside=None) -> np.ndarray:
        """Var(S . u) over [a, b] per direction row, recorded once at b."""
        if b < a:
            raise ChainConfigError(f"bad window [{a}, {b}]")
        for _, sweep in self.scan(a, b, directions, inside):
            pass
        return sweep.var()

    def cov_partial_sum(self, n: int, m: int) -> np.ndarray:
        """Exact V_{n,m} = Cov(S_{n,m}) by the forward recursion, O(m - n)."""
        return _polarize(self._end_var(n, m, _polar_directions(self.d)), self.d)

    def v_matrix(self, n: int) -> np.ndarray:
        """V_n = V_{1,n}, resumable prefix scan cached per n."""
        if n < 1:
            raise ChainConfigError("n must be >= 1")
        self.chain.state_size(n)  # rejects times past the chain's horizon
        while len(self._vlist) <= n:
            _, sweep = next(self._vscan)
            self._vlist.append(_polarize(sweep.var(), self.d))
        return self._vlist[n]

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
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.empty((b - a + 1, dirs.shape[0]))
        for t, sweep in self.scan(a, b, dirs):
            out[t - a] = sweep.var()
        return out

    def suffix_variances(self, a0: int, b: int, directions: np.ndarray) -> np.ndarray:
        """Var(S_{a,b} . u) for every a in [a0, b] and every direction row.

        Returns shape (b - a0 + 1, n_directions); entry [a - a0, i] is the
        variance of the suffix sum starting at a, from one scan over the
        time-reversed chain.
        """
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.empty((b - a0 + 1, dirs.shape[0]))
        for t, sweep in self.scan(a0, b, dirs, reverse=True):
            out[t - a0] = sweep.var()
        return out

    # -- pair observables -----------------------------------------------------

    def pair_window_cov(self, tables, n: int, m: int) -> np.ndarray:
        """Cov of sum_{j=n}^{m} f_j(xi_j, xi_{j+1}) for transition observables."""
        d = np.asarray(tables(n)).shape[-1]
        dirs = _polar_directions(d)
        sweep = _Sweep(self.chain.marginal(n), None, dirs.shape[0])
        for j in range(n, m + 1):
            w = np.asarray(tables(j), dtype=float)
            joint = self.chain.marginal(j)[:, None] * self.chain.kernel(j)
            w = w - np.einsum("xy,xyc->c", joint, w)
            sweep.step(self.chain.kernel(j), None, w @ dirs.T)
        return _polarize(sweep.var(), d)

    # -- distribution-level: exact L^p ----------------------------------------

    def window_distribution(
        self, n: int, m: int, u: np.ndarray, atom_cap: int = ATOM_CAP_DEFAULT,
        grid: float = GRID_DEFAULT, segments=None,
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Exact law of the centered projected sum over [n, m].

        Returns (values, probabilities, exact_keys).  Sums are keyed exactly
        on a common dyadic grid when all per-time values admit one (then
        exact_keys is True), otherwise on a `grid`-spaced lattice.  Raises
        SupportOverflow past `atom_cap` atoms.
        """
        u = np.asarray(u, dtype=float)
        inside = _segment_mask(sorted(segments), n, m) if segments else None

        def vals(j):
            if inside is not None and not inside[j - n]:
                return np.zeros(self.chain.state_size(j))
            return self.centered(j) @ u

        all_vals = [vals(j) for j in range(n, m + 1)]
        scale = _dyadic_scale(all_vals, m - n + 1)
        if scale is not None:
            enc = [np.rint(v * scale).astype(np.int64) for v in all_vals]
            dec = 1.0 / scale
            method_exact = True
        else:
            enc = [np.rint(v / grid).astype(np.int64) for v in all_vals]
            dec = grid
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

    def lp_norm(
        self, n: int, m: int, u: np.ndarray, p: int,
        atom_cap: int = ATOM_CAP_DEFAULT, grid: float = GRID_DEFAULT,
        mc: tuple[int, int] | None = None, segments=None,
    ) -> LpNorm:
        """Exact ||S_{n,m} . u||_{L^p} for even integer p >= 2.

        Falls back to Monte Carlo (mc = (paths, seed)) only when the exact
        support overflows `atom_cap`; with mc=None that overflow raises.
        """
        p = int(p)
        if p < 2 or p % 2:
            raise ChainConfigError(f"p must be an even integer >= 2, got {p}")
        try:
            values, w, exact_keys = self.window_distribution(
                n, m, u, atom_cap=atom_cap, grid=grid, segments=segments
            )
            moment = float(np.sum(w * np.abs(values) ** p))
            return LpNorm(
                value=moment ** (1.0 / p),
                exact=True,
                method="dp-dyadic" if exact_keys else "dp-grid",
                atoms=int(values.shape[0]),
            )
        except SupportOverflow:
            if mc is None:
                raise
        paths, seed = mc
        sums = _mc_window_sums(self, n, m, np.asarray(u, float), paths, seed, segments)
        value, se = _mc_lp(sums, p)
        return LpNorm(value=value, exact=False, method="monte-carlo", atoms=0, stderr=se)

    def standardized_fourth_moment(self, n: int, u: np.ndarray, **kw) -> float:
        """E[(S_n . u)^4] / Var(S_n . u)^2; 3 for a Gaussian limit."""
        m4 = self.lp_norm(1, n, u, 4, **kw).value ** 4
        var = self.var_window(1, n, u)
        return m4 / var**2

    # -- eigenvalue structure ---------------------------------------------------

    def eigen_ratio_report(self, windows, c1: float = 1.0) -> EigenRatioReport:
        """Largest/smallest eigenvalue ratios of V_{n,m} over the given windows.

        Windows whose ||S_{n,m}||_{L2} = sqrt(trace V) falls below c1 are
        reported separately and excluded from the fitted constant.
        """
        rows, skipped = [], []
        c2 = None
        singular = None
        for (n, m) in windows:
            v = self.cov_partial_sum(n, m)
            l2 = math.sqrt(max(float(np.trace(v)), 0.0))
            if self.d == 1:
                emin = emax = float(v[0, 0])
                ratio = 1.0
            else:
                eig = np.linalg.eigvalsh(v)
                emin, emax = float(eig[0]), float(eig[-1])
                if emin <= 1e-14 * max(1.0, emax):
                    ratio = math.inf
                    singular = singular or (n, m)
                else:
                    ratio = emax / emin
            row = WindowEigen(n=n, m=m, l2=l2, eig_min=emin, eig_max=emax, ratio=ratio)
            if l2 < c1:
                skipped.append(row)
                continue
            rows.append(row)
            c2 = ratio if c2 is None else max(c2, ratio)
        return EigenRatioReport(
            c1=c1, windows=rows, skipped=skipped, c2=c2, singular_witness=singular
        )


# ---------------------------------------------------------------------------
# helpers


def _segment_mask(segs, lo: int, hi: int) -> np.ndarray:
    inside = np.zeros(hi - lo + 1, dtype=bool)
    for a, b in segs:
        if b < a:
            raise ChainConfigError(f"bad segment [{a}, {b}]")
        inside[max(a, lo) - lo : b - lo + 1] = True
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


def _mc_window_sums(engine, n, m, u, paths, seed, segments=None):
    """Sampled S_{n,m} . u over the times inside `segments` (all by default)."""
    inside = _segment_mask(sorted(segments), n, m) if segments else None
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    total = np.zeros(paths)
    for t, states in walk(engine.chain, n, m - n, paths, rng):
        if inside is None or inside[t - n]:
            total += (engine.centered(t) @ u)[states]
    return total


def _mc_lp(samples: np.ndarray, p: int) -> tuple[float, float]:
    """Monte Carlo ||X||_{L^p} from samples of X, and its delta-method standard error."""
    xp = np.abs(samples) ** p
    mp = float(xp.mean())
    se_mp = float(xp.std(ddof=1) / math.sqrt(xp.shape[0]))
    se = se_mp / (p * mp ** ((p - 1.0) / p)) if mp > 0 else se_mp
    return mp ** (1.0 / p), se


def engine_for(chain: ChainSpec) -> MomentEngine:
    """Memoized engine per chain instance, kept on the chain so that it is
    freed with it."""
    eng = getattr(chain, "_engine", None)
    if eng is None:
        eng = chain._engine = MomentEngine(chain)
    return eng


# -- free-function API mirroring the engine ----------------------------------


def mean_obs(chain: ChainSpec, j: int) -> np.ndarray:
    return engine_for(chain).mean_obs(j)


def cov_pair(chain: ChainSpec, i: int, j: int) -> np.ndarray:
    return engine_for(chain).cov_pair(i, j)


def cov_partial_sum(chain: ChainSpec, n: int, m: int) -> np.ndarray:
    return engine_for(chain).cov_partial_sum(n, m)


def s_value(chain: ChainSpec, n: int) -> float:
    return engine_for(chain).s_value(n)


def lp_norm_partial_sum(chain: ChainSpec, n: int, m: int, u, p: int, **kw) -> LpNorm:
    return engine_for(chain).lp_norm(n, m, u, p, **kw)


def eigen_ratio_report(chain: ChainSpec, windows, c1: float = 1.0) -> EigenRatioReport:
    return engine_for(chain).eigen_ratio_report(windows, c1=c1)
