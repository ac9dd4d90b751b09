"""Mixing and contraction coefficients, exponential envelopes, and the
characteristic-function factorization spot check.

alpha and phi are exact over the coordinate sigma-algebras sigma(xi_j),
sigma(xi_{j+k}), from closed forms on the pair law: phi from single states,
alpha from the events of the smaller side only.  For Markov chains this
equals the full past/future definition (dependence factors through the
boundary pair).

The pair laws of all requested start times come from one stacked pass: the
kernels and marginals of up to PASS_CHUNK start times are stacked, one
running product P_j ... P_{j+k-1} advances over the stack for k = 1, 2, ...,
and the contraction coefficients pi and rho take whole stacks.  The closed
forms take the laws of consecutive gaps of equal shape as one stack of up
to GAP_STACK_CAP floats.  So the numpy calls grow with k_max, not with the
number of start times, and a report over a few start times makes one or
two closed-form calls.

mixing_report keeps one report per chain and argument set on the chain, as
engine_for keeps the engine, so a chain is read-only once it has a report.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainConfigError, ChainSpec
from .util import dobrushin

EVENT_PAIR_CAP = 1 << 16
# start times stacked at once by the pair-law pass; one (4096, 4, 4) float
# stack is 0.5 MiB
PASS_CHUNK = 4096
# floats in one stacked block of event sums (2 MiB)
EVENT_STACK_CAP = 1 << 18
# floats in one stack of gap laws taken by the closed forms at once (32 KiB)
GAP_STACK_CAP = 1 << 12


# ---------------------------------------------------------------------------
# alpha / phi


def _check_event_cap(na: int, nb: int) -> None:
    """Bound the event work 2^min(na, nb) * max(na, nb) of a pair law."""
    if (1 << min(na, nb)) * max(na, nb) > EVENT_PAIR_CAP:
        raise ChainConfigError(
            f"event work 2^{min(na, nb)} * {max(na, nb)} exceeds cap "
            f"{EVENT_PAIR_CAP}; reduce the state space"
        )


def _alpha_phi_pair(joint: np.ndarray):
    """alpha and phi of a 2-coordinate law from their closed forms.

    With p, q the row and column sums and D = J - p q^T, phi is the largest
    sum_b D(a, b)^+ / p(a) over states a with p(a) > 0: TV is convex in the
    conditioning law, so single states attain the sup.  alpha is the largest
    sum_a (sum_{b in B} D(a, b))^+ over column events B: for a fixed B the
    best A collects the positive terms.  alpha is symmetric, so B runs over
    the events of the smaller side.

    Works on the last two axes: one (na, nb) law gives two floats, a
    (J, na, nb) stack two arrays of length J.
    """
    na, nb = joint.shape[-2:]
    _check_event_cap(na, nb)
    laws = joint.reshape(-1, na, nb)
    p = laws.sum(axis=-1)
    dev = laws - p[:, :, None] * laws.sum(axis=-2)[:, None, :]
    live = p > 0
    ratio = np.divide(
        np.maximum(dev, 0.0).sum(axis=-1), p, out=np.zeros_like(p), where=live
    )
    phi = ratio.max(axis=-1, initial=0.0)
    if nb <= na:
        dev = dev.swapaxes(-1, -2)
    m, n = dev.shape[-2:]
    events = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    step = max(1, EVENT_STACK_CAP // ((1 << m) * n))
    # one matmul per block of laws: the event sums of law i fill columns
    # i * n .. (i + 1) * n - 1
    alpha = np.concatenate([
        np.maximum(events @ dev[i : i + step].swapaxes(0, 1).reshape(m, -1), 0.0)
        .reshape(1 << m, -1, n).sum(axis=-1).max(axis=0)
        for i in range(0, len(dev), step)
    ])
    if joint.ndim == 2:
        return float(alpha[0]), float(phi[0])
    return alpha, phi


def _pair_pass(chain: ChainSpec, j_range, k_max: int):
    """Stacked pair laws over the distinct start times of j_range.

    Returns an iterator of (starts, marginals, kernels, laws) over groups of
    at most PASS_CHUNK start times whose kernels P_j..P_{j+k_max-1} agree in
    shape: the (J, |X_j|) laws of xi_j, the (J, |X_j|, |X_{j+1}|) stack of
    P_j, and a generator of the stacked pair laws diag(m_j) P_j ... P_{j+k-1}
    for k = 1..k_max.  One running product per group, folded left as in
    ChainSpec.step_matrix, so each law equals pair_joint's bit for bit.
    Start times and k_max are checked against the horizon before any law is
    built.
    """
    if k_max < 1:
        raise ChainConfigError("gap k must be >= 1")
    starts = np.unique(np.fromiter(j_range, dtype=np.int64))
    if starts.size and starts[0] < 1:
        raise ChainConfigError(f"start time {starts[0]} < 1")
    top = chain.max_time
    if starts.size and top is not None and starts[-1] + k_max > top:
        raise ChainConfigError(
            f"gap k_max={k_max} from start time j={starts[-1]} passes the "
            f"horizon {top}"
        )
    return _pair_groups(chain, starts, k_max)


def _pair_groups(chain: ChainSpec, starts: np.ndarray, k_max: int):
    """The groups of _pair_pass over sorted, checked start times."""
    lags = np.arange(k_max)
    for c in range(0, starts.size, PASS_CHUNK):
        chunk = starts[c : c + PASS_CHUNK]
        times, pos = np.unique(chunk[:, None] + lags, return_inverse=True)
        pos = pos.reshape(chunk.size, k_max)
        # one stack per kernel shape; row[i] is kernel i's place in its stack
        stacks, sid, row = chain.kernels.by_shape(times)
        sig = sid[pos]
        for mine in _row_groups(sig):
            marg = chain.marginals(chunk[mine])

            def kernel(k, mine=mine):
                return stacks[sig[mine[0], k]][row[pos[mine, k]]]

            yield chunk[mine], marg, kernel(0), _fold(marg, kernel, k_max)


def _row_groups(rows: np.ndarray) -> list:
    """Index arrays of the sets of equal rows of a 2-d array."""
    if (rows == rows[0]).all():
        return [np.arange(len(rows))]
    _, which = np.unique(rows, axis=0, return_inverse=True)
    which = which.ravel()
    return [np.flatnonzero(which == g) for g in range(int(which.max()) + 1)]


def _fold(marg: np.ndarray, kernel, k_max: int):
    """Stacked diag(m_j) P_j ... P_{j+k-1} for k = 1..k_max."""
    prod = kernel(0)
    yield marg[:, :, None] * prod
    for k in range(1, k_max):
        prod = prod @ kernel(k)
        yield marg[:, :, None] * prod


def _gap_stacks(laws):
    """Runs of consecutive gap laws of one shape, each stacked into at most
    GAP_STACK_CAP floats (one law at least)."""
    run = []
    for joint in laws:
        if run and (joint.shape != run[0].shape or (len(run) + 1) * joint.size > GAP_STACK_CAP):
            yield np.stack(run)
            run = []
        run.append(joint)
    yield np.stack(run)


def alpha_phi(chain: ChainSpec, k: int, j_range) -> tuple[float, float]:
    """(alpha(k), phi(k)) maximized over start times j in j_range."""
    alpha = phi = 0.0
    for _, _, _, laws in _pair_pass(chain, j_range, k):
        a, p = _alpha_phi_pair(deque(laws, maxlen=1).pop())
        alpha = max(alpha, float(a.max()))
        phi = max(phi, float(p.max()))
    return alpha, phi


# ---------------------------------------------------------------------------
# contraction coefficients


def dobrushin_coefficient(chain: ChainSpec, j: int) -> float:
    """pi(Q_j): max total-variation distance between rows of kernel j."""
    return dobrushin(chain.kernel(j))


def rho_coefficient(chain: ChainSpec, j: int) -> float:
    """Maximal correlation between xi_j and xi_{j+1}.

    Second singular value of D_j^{-1/2} J D_{j+1}^{-1/2} where J is the joint
    law of the pair and D are the diagonal marginals; zero-probability states
    are dropped.
    """
    m0 = chain.marginal(j)
    joint = m0[:, None] * chain.kernel(j)
    return float(_rho_rows(m0[None], joint[None], chain.marginal(j + 1)[None])[0])


def _rho_rows(m0: np.ndarray, joint: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """rho of stacked one-step laws: m0 (J, na), joint (J, na, nb), m1 (J, nb).
    Laws with the same zero-mass states share one stacked SVD."""
    keep = np.concatenate([m0 > 0, m1 > 0], axis=1)
    rho = np.zeros(len(m0))
    na = m0.shape[1]
    for rows in _row_groups(keep):
        keep0, keep1 = keep[rows[0], :na], keep[rows[0], na:]
        if min(keep0.sum(), keep1.sum()) < 2:
            continue
        b = (joint[rows][:, keep0][:, :, keep1]
             / np.sqrt(m0[rows][:, keep0])[:, :, None]
             / np.sqrt(m1[rows][:, keep1])[:, None, :])
        rho[rows] = np.minimum(np.linalg.svd(b, compute_uv=False)[:, 1], 1.0)
    return rho


# ---------------------------------------------------------------------------
# envelope


@dataclass
class Envelope:
    """Certified exponential envelope alpha(k) <= c * delta^k on computed k."""

    c: float
    delta: float
    degenerate: bool

    def value(self, k: float) -> float:
        return self.c * self.delta**k

    def geometric_tail(self, r: int, exponent: float) -> float:
        """sum_{m >= 1} (c * delta^(r m))^exponent, exact geometric sum."""
        if self.degenerate or self.c == 0.0:
            return 0.0
        q = self.delta ** (r * exponent)
        if q >= 1.0:
            return math.inf
        return self.c**exponent * q / (1.0 - q)


def fit_envelope(alphas, phis=None) -> tuple[Envelope, int | None]:
    """Envelope (c, delta) with alpha(k) <= c delta^k exactly on the data,
    plus n0 = min{k: phi(k) < 1/2} when phi values are supplied.

    alphas maps k -> alpha(k) (dict or sequence of (k, value)).  Least-squares
    on log alpha over the positive entries fixes delta, then c is inflated so
    the envelope dominates every computed point.
    """
    items = sorted(dict(alphas).items())
    if not items:
        raise ChainConfigError("no alpha values to fit")
    ks = np.array([k for k, _ in items], dtype=float)
    vals = np.array([v for _, v in items], dtype=float)

    pos = vals > 0
    if pos.sum() == 0:
        env = Envelope(c=0.0, delta=0.5, degenerate=True)
    else:
        if pos.sum() >= 2:
            slope, intercept = np.polyfit(ks[pos], np.log(vals[pos]), 1)
            delta = min(float(np.exp(slope)), 1.0 - 1e-15)
        else:
            delta = 0.5
            intercept = math.log(vals[pos][0]) - math.log(delta) * ks[pos][0]
        c = float(np.exp(intercept))
        # sup-correct: a true envelope, not a regression
        c = max(c, float(np.max(vals / delta**ks)))
        # the quotient rounds, so c may still sit an ulp short of a point
        while any(v > c * delta**k for k, v in items):
            c = float(np.nextafter(c, np.inf))
        degenerate = bool(pos.sum() < 3)
        env = Envelope(c=c, delta=delta, degenerate=degenerate)

    n0 = None
    if phis is not None:
        for k, v in sorted(dict(phis).items()):
            if v < 0.5:
                n0 = k
                break
    return env, n0


# ---------------------------------------------------------------------------
# condition (H) spot check


def condition_h_gap(chain: ChainSpec, group1, group2, t_values) -> float:
    """|E e^{i(sum both groups)} - E e^{i(group1)} E e^{i(group2)}|, exact.

    Each group is a list of blocks (start, end, t_index): the block sum
    sum_{l=start}^{end} X_l enters the phase with frequency vector
    t_values[t_index].  Computed by a complex forward pass over the chain.
    """
    t_values = [np.atleast_1d(np.asarray(t, dtype=float)) for t in t_values]

    def char(groups) -> complex:
        phase: dict[int, np.ndarray] = {}
        for (s0, s1, ti) in groups:
            if s1 < s0:
                raise ChainConfigError(f"bad block [{s0}, {s1}]")
            t = t_values[ti]
            for l in range(s0, s1 + 1):
                phase[l] = phase.get(l, 0.0) + t
        lo, hi = min(phase), max(phase)
        w = chain.marginal(lo).astype(complex)
        for l in range(lo, hi + 1):
            t = phase.get(l)
            if t is not None:
                w = w * np.exp(1j * (chain.obs(l) @ t))
            if l < hi:
                w = w @ chain.kernel(l)
        return complex(w.sum())

    e_joint = char(list(group1) + list(group2))
    e1 = char(list(group1))
    e2 = char(list(group2))
    return abs(e_joint - e1 * e2)


@dataclass
class ConditionHProfile:
    gaps: list  # (k, gap)
    c_prime: float | None
    big_c: float | None
    eps0: float
    all_zero: bool

    @property
    def decays(self) -> bool:
        return self.all_zero or (self.c_prime is not None and self.c_prime > 0)


def condition_h_profile(chain: ChainSpec) -> ConditionHProfile:
    """Gap-vs-separation profile with a fitted envelope gap <= C' e^{-c' k}
    over k = 1..12.

    Group one is the blocks [1, 2] and [3, 4]; group two is the single index
    k + 5, shifted k past group one, matching the factorization condition's
    shifted-window structure.  Frequencies are +-eps0 with eps0 = pi / (2 L * 2), the cap
    that keeps the phases of two-step blocks nondegenerate.
    """
    eps0 = math.pi / (4.0 * chain.L)
    g1 = [(1, 2, 0), (3, 4, 1)]
    ts = [np.full(chain.d, eps0), np.full(chain.d, -eps0), np.full(chain.d, eps0)]
    rows = [(k, condition_h_gap(chain, g1, [(k + 5, k + 5, 2)], ts)) for k in range(1, 13)]
    gaps = np.array([g for _, g in rows])
    ks = np.array([float(k) for k, _ in rows])
    if np.all(gaps == 0.0):
        return ConditionHProfile(rows, None, None, eps0, all_zero=True)
    pos = gaps > 0
    if pos.sum() >= 2:
        slope, intercept = np.polyfit(ks[pos], np.log(gaps[pos]), 1)
        c_prime = -float(slope)
        big_c = float(np.exp(intercept))
    else:
        c_prime, big_c = None, None
    return ConditionHProfile(rows, c_prime, big_c, eps0, all_zero=False)


# ---------------------------------------------------------------------------
# report


@dataclass
class MixingReport:
    ks: list
    alpha: list
    phi: list
    pi: list  # per-time pi(Q_j) over the probed range
    rho: list
    delta_pi: float
    rho_sup: float
    envelope: Envelope
    n0: int | None
    j_probe: list = field(default_factory=list)

    def check_identities(self):
        """Raises AssertionError on any violated structural identity."""
        for a, p in zip(self.alpha, self.phi):
            assert a <= p + 1e-15, f"alpha {a} > phi {p}"
        for a1, a2 in zip(self.alpha, self.alpha[1:]):
            assert a2 <= a1 + 1e-12, "alpha not nonincreasing"
        for p1, p2 in zip(self.phi, self.phi[1:]):
            assert p2 <= p1 + 1e-12, "phi not nonincreasing"
        for r, p in zip(self.rho, self.pi):
            assert r <= math.sqrt(p) + 1e-10, f"rho {r} > sqrt(pi) {math.sqrt(p)}"
        for k, a in zip(self.ks, self.alpha):
            assert a <= self.envelope.value(k) + 0.0, "envelope not dominating"


def mixing_report(
    chain: ChainSpec, k_max: int = 12, j_probe=None
) -> MixingReport:
    """alpha/phi over k = 1..k_max, per-time contraction coefficients, and the
    fitted envelope.  j_probe defaults to the start times
    j = 1..max(1, min(horizon - k_max, 8)) (1..8 without a horizon), so a schedule
    whose period exceeds 8 is not seen whole and the suprema are taken over
    those starts only (ROADMAP item 1); a probed j with j + k_max past the
    horizon raises ChainConfigError, on every call.

    The report is kept on the chain, keyed by k_max and the start times, and
    freed with it: a repeated call returns the same report, so neither the
    chain nor the report may be changed afterwards."""
    if j_probe is None:
        horizon = chain.max_time
        top = min(horizon - k_max, 8) if horizon else 8
        j_probe = list(range(1, max(top, 1) + 1))
    j_probe = list(j_probe)
    kept = chain.__dict__.setdefault("_mixing_reports", {})
    key = (k_max, tuple(j_probe))
    if key in kept:
        return kept[key]
    groups = _pair_pass(chain, j_probe, k_max)
    alpha = phi = np.zeros(k_max)
    rows = []  # (starts, pi, rho) per group
    for starts, marg, kern, laws in groups:
        m1 = chain.marginals(starts + 1)
        rows.append((starts, dobrushin(kern), _rho_rows(marg, marg[:, :, None] * kern, m1)))
        # the closed forms of gap k fill entries (k - 1) * J .. k * J - 1
        a, p = (np.concatenate(c).reshape(k_max, -1).max(axis=1)
                for c in zip(*map(_alpha_phi_pair, _gap_stacks(laws))))
        alpha, phi = np.maximum(alpha, a), np.maximum(phi, p)
    alphas = dict(zip(range(1, k_max + 1), alpha.tolist()))
    phis = dict(zip(range(1, k_max + 1), phi.tolist()))
    pis, rhos = [], []
    if rows:
        starts, pi, rho = (np.concatenate(c) for c in zip(*rows))
        order = np.argsort(starts)
        at = order[np.searchsorted(starts, j_probe, sorter=order)]
        pis, rhos = pi[at].tolist(), rho[at].tolist()
    env, n0 = fit_envelope(alphas, phis)
    kept[key] = MixingReport(
        ks=list(alphas),
        alpha=list(alphas.values()),
        phi=list(phis.values()),
        pi=pis,
        rho=rhos,
        delta_pi=max(pis) if pis else 0.0,
        rho_sup=max(rhos) if rhos else 0.0,
        envelope=env,
        n0=n0,
        j_probe=j_probe,
    )
    return kept[key]
