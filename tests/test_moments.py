"""Exact moment engine vs brute-force path enumeration and closed forms."""
import gc
import itertools
import math
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asipkit.battery import battery, entry
from asipkit.chain import ChainSpec, ExplicitKernels, ObservableSchedule, build_chain
from asipkit.moments import (
    _CHUNK,
    _CURVE_BYTES,
    B,
    MomentEngine,
    SupportOverflow,
    _compose,
    _polar_directions,
    _prefix,
    _segment_mask,
    _Sweep,
    engine_for,
)
from test_chain import CHAINS, limit_cycle_doc


def centered(chain, t):
    """f_t - E f_t from the marginal at t alone."""
    return chain.obs(t) - chain.marginal(t) @ chain.obs(t)


def small_random_chain(sizes, d, seed):
    r = np.random.default_rng(seed)
    kernels = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        k = r.random((a, b)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        kernels.append(k)
    obs = [r.random((s, d)) * 2 - 1 for s in sizes]
    init = r.random(sizes[0]) + 0.05
    init /= init.sum()
    return ChainSpec(
        kernels=ExplicitKernels(kernels=kernels),
        observable=ObservableSchedule.explicit(obs),
        initial=init,
        L=1.0,
    )


def brute_cov(chain, n, m):
    """Covariance of the centered window sum by full path enumeration."""
    cs = {j: centered(chain, j) for j in range(n, m + 1)}
    d = chain.d
    mean = np.zeros(d)
    second = np.zeros((d, d))
    for path in itertools.product(*[range(chain.state_size(j)) for j in range(n, m + 1)]):
        pr = chain.marginal(n)[path[0]]
        for t in range(n, m):
            pr *= chain.kernel(t)[path[t - n], path[t + 1 - n]]
        tot = sum(cs[j][path[j - n]] for j in range(n, m + 1))
        mean += pr * tot
        second += pr * np.outer(tot, tot)
    return second - np.outer(mean, mean)


@pytest.mark.parametrize("trial", range(3))
def test_window_covariance_matches_enumeration(trial):
    rng = np.random.default_rng(7 + trial)
    sizes = list(rng.integers(2, 4, size=rng.integers(3, 6)))
    d = int(rng.integers(1, 3))
    ch = small_random_chain(sizes, d, 100 + trial)
    m = len(sizes)
    eng = MomentEngine(ch)
    cov_b = brute_cov(ch, 1, m)
    assert np.abs(eng.cov_partial_sum(1, m) - cov_b).max() < 1e-12
    cov_p, exact = eng.cov_partial_sum_pairwise(1, m, truncate=None)
    assert exact and np.abs(cov_p - cov_b).max() < 1e-12
    assert np.abs(eng.v_matrix(m) - cov_b).max() < 1e-12
    u = rng.standard_normal(d)
    assert abs(eng.var_window(1, m, u) - float(u @ cov_b @ u)) < 1e-12


def test_masked_segments_match_enumeration():
    ch = small_random_chain([3, 3, 3, 3, 3], 1, 55)
    eng = MomentEngine(ch)
    u = np.array([1.0])
    segs = [(1, 2), (4, 5)]
    cs = {
        j: (centered(ch, j) @ u if any(a <= j <= b for a, b in segs) else np.zeros(3))
        for j in range(1, 6)
    }
    mean = sq = 0.0
    for path in itertools.product(range(3), repeat=5):
        pr = ch.marginal(1)[path[0]]
        for t in range(1, 5):
            pr *= ch.kernel(t)[path[t - 1], path[t]]
        tot = sum(cs[j][path[j - 1]] for j in range(1, 6))
        mean += pr * tot
        sq += pr * tot * tot
    assert abs(eng.var_segments(u, segs) - (sq - mean * mean)) < 1e-12
    # cross covariance of the two masked sums via polarization
    cs1 = {j: (centered(ch, j) @ u if 1 <= j <= 2 else np.zeros(3)) for j in range(1, 6)}
    cs2 = {j: (centered(ch, j) @ u if 4 <= j <= 5 else np.zeros(3)) for j in range(1, 6)}
    m1 = m2 = m12 = 0.0
    for path in itertools.product(range(3), repeat=5):
        pr = ch.marginal(1)[path[0]]
        for t in range(1, 5):
            pr *= ch.kernel(t)[path[t - 1], path[t]]
        t1 = sum(cs1[j][path[j - 1]] for j in range(1, 6))
        t2 = sum(cs2[j][path[j - 1]] for j in range(1, 6))
        m1 += pr * t1
        m2 += pr * t2
        m12 += pr * t1 * t2
    c12 = eng.cross_cov_segments(u, [(1, 2)], [(4, 5)])
    assert abs(c12 - (m12 - m1 * m2)) < 1e-12


def test_prefix_and_suffix_sweeps():
    ch = small_random_chain([3, 3, 3, 3, 3, 3], 2, 55)
    eng = MomentEngine(ch)
    dirs = np.array([[1.0, 0.0], [0.6, 0.8]])
    pv = eng.prefix_variances(2, 6, dirs)
    for t in range(2, 7):
        for k, u in enumerate(dirs):
            assert abs(pv[t - 2, k] - eng.var_window(2, t, u)) < 1e-12
    sv = eng.suffix_variances(1, 6, np.eye(2))
    for a in range(1, 7):
        oracle, exact = eng.cov_partial_sum_pairwise(a, 6, truncate=None)
        assert exact and np.abs(sv[a - 1] - np.diag(oracle)).max() < 1e-12


def test_scan_matches_pairwise_oracle_on_battery():
    n = 24
    for e in battery():
        ch = e.build()
        eng = MomentEngine(ch)
        dirs = np.vstack([np.eye(ch.d), np.ones((1, ch.d))])

        def oracle(a, b):
            return eng.cov_partial_sum_pairwise(a, b, truncate=None)[0]

        def quad(v):
            return np.einsum("kd,de,ke->k", dirs, v, dirs)

        tol = 1e-10 * np.abs(oracle(1, n)).max()
        pv = eng.prefix_variances(1, n, dirs)
        sv = eng.suffix_variances(1, n, dirs)
        for t in (1, 2, n // 2, n):
            assert np.abs(pv[t - 1] - quad(oracle(1, t))).max() <= tol, e.name
            assert np.abs(sv[t - 1] - quad(oracle(t, n))).max() <= tol, e.name
            assert np.abs(eng.v_matrix(t) - oracle(1, t)).max() <= tol, e.name
        assert np.abs(eng.cov_partial_sum(3, n) - oracle(3, n)).max() <= tol, e.name
        # segments X = [1, 4], Z = [9, n] around the gap Y = [5, 8]:
        # Var(X + Z) = VX + VZ + Var(X+Y+Z) - Var(X+Y) - Var(Y+Z) + VY
        q = {w: quad(oracle(*w))[-1] for w in ((1, 4), (9, n), (1, n), (1, 8), (5, n), (5, 8))}
        want = q[1, 4] + q[9, n] + q[1, n] - q[1, 8] - q[5, n] + q[5, 8]
        assert abs(eng.var_segments(dirs[-1], [(1, 4), (9, n)]) - want) <= tol, e.name


def pair_cov_matrix(chain, a, b, u):
    """Cov(X_i . u, X_j . u) for i, j in [a, b] from the exact pair laws:
    entry (i, j), i <= j, is (m_i f_i) . K_i ... K_{j-1} f_j with f centered,
    built one row at a time from the last."""
    f = [(chain.obs(t) - chain.marginal(t) @ chain.obs(t)) @ u for t in range(a, b + 1)]
    n = len(f)
    cov = np.zeros((n, n))
    w = np.zeros((f[-1].shape[0], 0))  # columns K_i ... K_{j-1} f_j for j > i
    for i in range(n - 1, -1, -1):
        row = chain.marginal(a + i) * f[i]
        cov[i, i] = row @ f[i]
        cov[i, i + 1:] = cov[i + 1:, i] = row @ w
        if i:
            w = chain.kernel(a + i - 1) @ np.column_stack([f[i], w])
    return cov


def assert_scans_match_pairs(chain, a, b, mask_seed=0):
    """Prefix, suffix and masked variances, V_n and V_{a,b} against sums of
    the pair-covariance matrix, to 1e-10 relative."""
    eng = MomentEngine(chain)
    dirs = _polar_directions(chain.d)
    covs = [pair_cov_matrix(chain, a, b, u) for u in dirs]
    pre = np.array([np.diag(c.cumsum(0).cumsum(1)) for c in covs]).T
    suf = np.array([np.diag(c[::-1, ::-1].cumsum(0).cumsum(1))[::-1] for c in covs]).T
    tol = 1e-10 * max(pre.max(), suf.max())  # relative to the largest variance
    assert np.abs(eng.prefix_variances(a, b, dirs) - pre).max() <= tol
    assert np.abs(eng.suffix_variances(a, b, dirs) - suf).max() <= tol
    # masked: random segments, some shorter than a period, some longer than B
    r = np.random.default_rng(mask_seed)
    cuts = np.sort(r.choice(np.arange(a + 1, b + 1), size=min(9, b - a), replace=False))
    bounds = [a, *cuts.tolist(), b + 1]
    segs = [(lo, hi - 1) for lo, hi in zip(bounds[:-1], bounds[1:])][:: 2]
    keep = np.zeros(b - a + 1, dtype=bool)
    for lo, hi in segs:
        keep[lo - a : hi - a + 1] = True
    for u, c in zip(dirs, covs):
        want = c[keep][:, keep].sum()
        assert abs(eng.var_segments(u, segs) - want) <= tol
        # masked suffix sums, from the backward scan
        back = np.concatenate([v[:, 0] for _, v in eng.scan(b, a, u, keep)])[::-1]
        kc = np.where(keep[:, None] & keep[None, :], c, 0.0)
        want = np.diag(kc[::-1, ::-1].cumsum(0).cumsum(1))[::-1]
        assert np.abs(back - want).max() <= tol
    if a == 1:  # times around the ends of kept spans and of chunks
        ends = {1, B - 1, B, B + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, b}
        for t in sorted(ends & set(range(1, b + 1))):
            assert np.abs(_quads(eng.v_matrix(t), dirs) - pre[t - 1]).max() <= tol
    assert np.abs(_quads(eng.cov_partial_sum(a, b), dirs) - pre[-1]).max() <= tol
    return eng, covs


def _quads(v, dirs):
    return np.einsum("kd,de,ke->k", dirs, v, dirs)


def _lazy3_period2():
    g = np.random.default_rng(20261017)
    return [(0.15 * np.eye(3) + 0.85 * t[None, :]).tolist() for t in g.dirichlet([16.0] * 3, size=2)]


LONG = 2 * B + 77  # window length past two stacked powers

RUN_CASES = {
    # name: (chain, window start); starts off the period's first phase
    "leaky3_delta": (lambda: entry("leaky3_delta").build(), 1),
    "period2": (lambda: entry("period2").build(), 4),
    "random3": (lambda: build_chain({
        "kernels": {"periodic": _lazy3_period2()}, "initial": [0.7, 0.2, 0.1],
        "observable": {"constant": [[0.93], [-0.04], [-0.87]]}, "L": 1.0}), 3),
    "corr_d2": (lambda: entry("corr_d2").build(), 1),
    # the ramp turns flat at step 201: the window crosses into the run
    "mixture2_ramp": (lambda: entry("mixture2_ramp").build(), 150),
}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_scan_matches_pair_oracles_past_block_length(name):
    make, a = RUN_CASES[name]
    chain = make()
    b = a + LONG - 1
    eng, covs = assert_scans_match_pairs(chain, a, b, mask_seed=len(name))
    # the pair matrix is the pairwise oracle's sum, term by term
    oracle, _ = eng.cov_partial_sum_pairwise(a, b)
    dirs = _polar_directions(chain.d)
    assert np.abs(_quads(oracle, dirs) - [c.sum() for c in covs]).max() <= 1e-10 * np.abs(oracle).max()
    assert np.abs(eng.cov_partial_sum(a, b) - oracle).max() <= 1e-10 * np.abs(oracle).max()


@given(
    st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2), st.integers(2, 3),
    st.integers(1, 7), st.integers(1, 2 * B + 40),
)
@settings(max_examples=25, deadline=None)
def test_run_scan_on_random_periodic_chains(seed, k_period, o_period, states, a, length):
    r = np.random.default_rng(seed)
    kernels = r.random((k_period, states, states)) + 0.05
    kernels /= kernels.sum(axis=2, keepdims=True)
    init = r.random(states) + 0.05
    chain = build_chain({
        "kernels": {"periodic": kernels.tolist()},
        "initial": (init / init.sum()).tolist(),
        "observable": {"periodic": (r.random((o_period, states, 1)) * 2 - 1).tolist()},
        "L": 1.0,
    })
    assert_scans_match_pairs(chain, a, a + length - 1, mask_seed=seed)


def step_scan(chain, start, stop, dirs, keep=None):
    """Per-step reference for MomentEngine.scan, one affine step per time:
    p' = Q p, phi' = Q phi + v Q p, psi' = Q psi + 2 v Q phi + v^2 Q p, with
    Q the transposed kernel forward and the kernel backward, and v the values
    of the time entered centred by E f_t (zero where `keep`, indexed by t
    minus the lower end, is False).  Returns the variances after each time
    from `start` toward `stop`, shape (|stop - start| + 1, directions)."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    back = stop < start
    lo = min(start, stop)

    def node(t):
        if keep is not None and not keep[t - lo]:
            return np.zeros((chain.state_size(t), len(dirs)))
        return centered(chain, t) @ dirs.T

    p = np.ones(chain.state_size(start)) if back else chain.marginal(start)
    v = node(start)
    phi, psi = v * p[:, None], v * v * p[:, None]
    out = []
    for t in range(start, stop - 1 if back else stop + 1, -1 if back else 1):
        if t != start:
            q = chain.kernel(t) if back else chain.kernel(t - 1).T
            v = node(t)
            p, phi, psi = q @ p, q @ phi, q @ psi
            psi += 2.0 * v * phi + v * v * p[:, None]
            phi += v * p[:, None]
        w = chain.marginal(t) if back else np.ones_like(p)
        m = w @ phi
        out.append(w @ psi - m * m)
    return np.array(out)


def step_segments(chain, u, segs):
    """Per-step reference for MomentEngine.var_segments."""
    lo, hi = segs[0][0], max(b for _, b in segs)
    keep = np.zeros(hi - lo + 1, dtype=bool)
    for a, b in segs:
        keep[a - lo : b - lo + 1] = True
    return step_scan(chain, lo, hi, [u], keep)[-1, 0]


def _periodic_chain(kernels, obs_tables, init):
    return build_chain({
        "kernels": {"periodic": np.asarray(kernels).tolist()},
        "initial": list(init),
        "observable": {"periodic": np.asarray(obs_tables).tolist()},
        "L": 2.0,
    })


@pytest.mark.parametrize("defect", [5e-13, -5e-13])
def test_run_scan_on_kernels_off_stochastic_by_the_tolerance(defect):
    # rows summing to 1 + defect pass validation; the run's centres, the
    # marginal table's phase means, must be means under probability laws,
    # not grow with the defect
    r = np.random.default_rng(7)
    kernels = r.random((3, 3, 3)) + 0.1
    kernels /= kernels.sum(axis=2, keepdims=True)
    kernels *= 1.0 + defect
    obs = r.random((2, 3, 1)) + 0.5  # nonzero mean
    chain = _periodic_chain(kernels, obs, [0.5, 0.3, 0.2])
    eng = MomentEngine(chain)
    run = eng._run
    centers = chain.observable.stack(run.t0, run.t0 + run.period - 1) - run.nodes
    assert np.all(np.isfinite(centers))
    assert np.all((centers >= 0.5) & (centers <= 1.5))
    # against the per-step scan on the same kernels (pair oracles centre by
    # E f_t under laws whose mass drifts, which moves them by ~1e-10 here)
    n = 20_000
    for got, want in (
        (eng.prefix_variances(2, n, [[1.0]]), step_scan(chain, 2, n, [[1.0]])),
        (eng.suffix_variances(2, n, [[1.0]]), step_scan(chain, n, 2, [[1.0]])[::-1]),
        (eng.v_matrix(n)[0, 0], step_scan(chain, 1, n, [[1.0]])[-1, 0]),
        (eng.cov_partial_sum(3, n)[0, 0], step_scan(chain, 3, n, [[1.0]])[-1, 0]),
    ):
        assert np.abs(got / want - 1.0).max() <= 1e-10
    segs = [(3, 700), (1000, 1001), (1500, n)]
    assert abs(eng.var_segments([1.0], segs) / step_segments(chain, [1.0], segs) - 1.0) <= 1e-10


@pytest.mark.parametrize("defect, cycle", [(5e-13, (31, 3)), (-5e-13, (23, 3))])
def test_marginals_of_off_stochastic_kernels_keep_their_mass(defect, cycle):
    # the chain of test_run_scan_on_kernels_off_stochastic_by_the_tolerance:
    # its rows are divided by their sums at build, so the marginals stay
    # probability laws and reach a float cycle
    r = np.random.default_rng(7)
    kernels = r.random((3, 3, 3)) + 0.1
    kernels /= kernels.sum(axis=2, keepdims=True)
    kernels *= 1.0 + defect
    chain = _periodic_chain(kernels, r.random((2, 3, 1)) + 0.5, [0.5, 0.3, 0.2])
    assert abs(chain.marginal(1 << 16).sum() - 1.0) <= 1e-14
    assert chain._cycle == cycle


def test_period_past_b_takes_single_steps():
    # kernel period 2, observable period B + 1: the lcm exceeds B, so no run
    # and the window takes chunks, past two of them
    r = np.random.default_rng(3)
    kernels = r.random((2, 2, 2)) + 0.1
    kernels /= kernels.sum(axis=2, keepdims=True)
    chain = _periodic_chain(kernels, r.random((B + 1, 2, 1)), [0.4, 0.6])
    eng = MomentEngine(chain)
    assert eng._run is None
    assert_scans_match_pairs(chain, 1, 2 * _CHUNK + 77)


@pytest.mark.parametrize("pi", [0.5, 0.9])
def test_stationary_sym2_closed_form_to_1e5(pi):
    # Var(S_n) = n (1 + pi) / (1 - pi) - 2 pi (1 - pi^n) / (1 - pi)^2
    n = 100_000
    ns = np.arange(1, n + 1)
    want = ns * (1 + pi) / (1 - pi) - 2 * pi * (1 - pi**ns) / (1 - pi) ** 2
    eng = MomentEngine(entry(f"sym2_p{round(10 * pi):02d}").build())
    pre = eng.prefix_variances(1, n, [[1.0]])[:, 0]
    assert np.abs(pre / want - 1.0).max() <= 1e-10
    suf = eng.suffix_variances(1, n, [[1.0]])[:, 0]
    assert np.abs(suf / want[::-1] - 1.0).max() <= 1e-10
    assert abs(eng.v_matrix(n)[0, 0] / want[-1] - 1.0) <= 1e-10


def test_symmetric_chain_closed_form(sym):
    # Cov(X_i, X_j) = 0.5^(j-i), so Var(S_n) = 3n - 4(1 - 0.5^n)
    eng = engine_for(sym)
    for n in (1, 2, 5, 30, 100):
        expect = 3.0 * n - 4.0 * (1.0 - 0.5**n)
        assert abs(eng.s_value(n) - expect) < 1e-9
    assert abs(eng.var_window(1, 2, np.array([1.0])) - 3.0) < 1e-12
    assert abs(eng.cov_pair(1, 3)[0, 0] - 0.25) < 1e-14


def test_v_curve_and_s_curve(sym):
    eng = engine_for(sym)
    vc = eng.v_curve(40)
    assert vc.shape == (40, 1, 1)
    for n in (1, 7, 40):
        assert abs(vc[n - 1, 0, 0] - eng.v_matrix(n)[0, 0]) < 1e-10
    sc = eng.s_curve(40)
    assert sc.shape == (40,)
    assert abs(sc[39] - eng.s_value(40)) < 1e-10
    # multi-dimensional: s_curve is the smallest eigenvalue path
    ch = small_random_chain([3, 3, 3, 3, 3, 3, 3], 2, 91)
    e2 = MomentEngine(ch)
    vc2 = e2.v_curve(6)
    sc2 = e2.s_curve(6)
    for n in (2, 4, 6):
        evs = np.linalg.eigvalsh(e2.v_matrix(n))
        assert np.abs(vc2[n - 1] - e2.v_matrix(n)).max() < 1e-12
        assert abs(sc2[n - 1] - evs[0]) < 1e-12


def test_lp_norm_dyadic_exact(iid2):
    # S_10 of iid signs: E S^4 = 3n^2 - 2n = 280
    eng = engine_for(iid2)
    r = eng.lp_norm(1, 10, np.array([1.0]), 4)
    assert r.exact and r.method == "moment-recursion"
    assert abs(r.value - 280**0.25) < 1e-12


def test_lp_norm_grid_and_mc_fallbacks():
    ch = small_random_chain([3, 3, 3, 3, 3], 1, 77)
    eng = MomentEngine(ch)
    direct = np.sqrt(eng.var_window(1, 5, np.array([1.0])))
    r = eng.lp_norm(1, 5, np.array([1.0]), 2)
    assert r.method == "moment-recursion" and abs(r.value - direct) < 1e-12 * direct
    # the law keeps its atom cap; the moment recursion has none
    with pytest.raises(SupportOverflow):
        eng.window_distribution(1, 5, np.array([1.0]), atom_cap=3)


def brute_moment(chain, n, m, u, p, segments=None):
    """E[S^p], S the centered sum of f_t . u over t in [n, m] (in the union of
    `segments` when given), by enumerating every state path from time 1 to m:
    path probabilities from the initial law and the kernels, E f_t . u from
    the same paths."""
    states = [range(chain.state_size(t)) for t in range(1, m + 1)]
    paths = np.array(list(itertools.product(*states)))
    prob = chain.initial[paths[:, 0]]
    for t in range(1, m):
        prob = prob * chain.kernel(t)[paths[:, t - 1], paths[:, t]]
    total = np.zeros(len(paths))
    for t in range(n, m + 1):
        if segments is None or any(a <= t <= b for a, b in segments):
            x = (chain.obs(t) @ u)[paths[:, t - 1]]
            total += x - prob @ x
    return float(prob @ total**p)


def assert_lp_matches_paths(chain, n, m, u, segments=None):
    eng = MomentEngine(chain)
    for p in (2, 4, 6):
        moment = brute_moment(chain, n, m, u, p, segments)
        got = eng.lp_norm(n, m, u, p, segments=segments).value ** p
        assert abs(got - moment) <= 1e-12 * moment, (n, m, p, segments, got, moment)


@pytest.mark.parametrize("seed", range(8))
def test_lp_norm_matches_path_enumeration(seed):
    rng = np.random.default_rng(400 + seed)
    length = int(rng.integers(2, 11))
    d = int(rng.integers(1, 3))
    ch = small_random_chain([int(x) for x in rng.integers(2, 4, size=length)], d, 500 + seed)
    n = int(rng.integers(1, length + 1))
    m = int(rng.integers(n, length + 1))
    assert_lp_matches_paths(ch, n, m, rng.standard_normal(d))


def test_lp_norm_matches_paths_across_state_counts_and_holes():
    # the state count changes inside the window: 2, 3, 3, 1, 2, 3 states
    ch = small_random_chain([2, 2, 3, 3, 1, 2, 3, 3, 2, 2], 2, 61)
    u = np.array([0.6, -0.8])
    assert_lp_matches_paths(ch, 2, 9, u)
    # a masked union with a hole, the window starting before its first segment
    assert_lp_matches_paths(ch, 1, 10, u, segments=[(7, 9), (2, 3)])
    ch3 = small_random_chain([3] * 10, 1, 62)
    assert_lp_matches_paths(ch3, 1, 10, np.array([1.0]), segments=[(1, 2), (5, 5), (8, 10)])


@pytest.mark.parametrize("entry_", battery(), ids=lambda e: e.name)
def test_lp_norm_matches_the_dyadic_law(entry_):
    ch = entry_.build()
    eng = MomentEngine(ch)
    u = np.eye(ch.d)[0]
    for n, m in ((1, 12), (18, 29), (1, 200)):
        if ch.max_time is not None and m > ch.max_time:
            continue
        values, w, dyadic = eng.window_distribution(n, m, u)
        if not dyadic:
            continue
        for p in (2, 4, 6):
            law = float(w @ np.abs(values) ** p) ** (1.0 / p)
            got = eng.lp_norm(n, m, u, p).value
            assert abs(got - law) <= 1e-14 * law, (n, m, p, got, law)


def test_lp_norm_has_no_atom_cap():
    # generic float values: the sums' support grows past any cap, the moments do not
    r = np.random.default_rng(9)
    k = r.random((3, 3)) + 0.2
    ch = build_chain({
        "kernels": {"periodic": [(k / k.sum(axis=1, keepdims=True)).tolist()]},
        "initial": [0.2, 0.3, 0.5],
        "observable": {"constant": (r.random((3, 1)) * 2 - 1).tolist()},
        "L": 1.0,
    })
    eng = MomentEngine(ch)
    u = np.array([1.0])
    with pytest.raises(SupportOverflow):
        eng.window_distribution(1, 2000, u)
    l2, l4 = (eng.lp_norm(1, 2000, u, p).value for p in (2, 4))
    sd = np.sqrt(eng.var_window(1, 2000, u))
    assert abs(l2 - sd) <= 1e-12 * sd
    assert np.isfinite(l4) and l4 >= l2  # Lyapunov


@pytest.mark.parametrize("sizes", [[3] * 8, [2, 3, 2, 2, 3, 3, 2, 3], [2, 2, 3, 3, 1]])
def test_centered_max_matches_per_time_values(sizes):
    # one reduction over the stacked marginals of each piece of one state count
    ch = small_random_chain(sizes, 2, 17)
    eng = MomentEngine(ch)
    u = np.array([0.6, -0.8])
    for a, b in ((1, len(sizes)), (2, 3), (2, 5), (4, 4), (4, 5)):
        want = max(float(np.max(np.abs(centered(ch, t) @ u))) for t in range(a, b + 1))
        assert eng.centered_max(a, b, u) == want


def test_periodic_tables_of_changing_shape():
    # kernels 2x3 and 3x2 in a cycle, with tables of 2 and 3 rows: each
    # window of one state count is a single time
    ch = build_chain({
        "kernels": {"periodic": [[[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]],
                                 [[0.5, 0.5], [0.2, 0.8], [0.1, 0.9]]]},
        "initial": [0.4, 0.6],
        "observable": {"periodic": [[[1.0], [-0.5]], [[0.25], [0.0], [-1.0]]]},
        "L": 1.0,
    })
    eng = MomentEngine(ch)
    assert np.abs(eng.cov_partial_sum(1, 5) - brute_cov(ch, 1, 5)).max() < 1e-12
    u = np.array([1.0])
    want = max(float(np.max(np.abs(centered(ch, t) @ u))) for t in range(1, 6))
    assert eng.centered_max(1, 5, u) == want


def test_mean_obs_centering(sym, iid2):
    for ch in (sym, iid2):
        for t in (1, 3, 17):
            assert np.abs(ch.marginal(t) @ ch.obs(t)).max() < 1e-15
            assert np.abs(centered(ch, t) - ch.obs(t)).max() < 1e-15


def test_engine_for_memo_frees_its_chain():
    ch = small_random_chain([2, 3, 2], 1, 3)
    eng = engine_for(ch)
    eng.v_matrix(3)
    assert engine_for(ch) is eng
    ref = weakref.ref(ch)
    del ch, eng
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# composed chunks outside runs


def _explicit_chain(length, states, d, seed):
    r = np.random.default_rng(seed)
    kernels = r.random((length, states, states)) + 0.05
    kernels /= kernels.sum(axis=2, keepdims=True)
    init = r.random(states) + 0.05
    return build_chain({
        "kernels": kernels.tolist(),
        "initial": (init / init.sum()).tolist(),
        "observable": {"explicit": (r.random((length + 1, states, d)) * 2 - 1).tolist()},
        "L": 1.0,
    })


def _cosine_chain():
    return build_chain({
        "kernels": {"mixture": {
            "base": [[[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]],
                     [[0.2, 0.4, 0.4], [0.5, 0.1, 0.4], [0.3, 0.3, 0.4]]],
            "weights": {"kind": "cosine", "period": 37.5, "center": 0.5, "amplitude": 0.4},
        }},
        "initial": [0.6, 0.3, 0.1],
        "observable": {"periodic": [[[1.0], [0.2], [-0.9]], [[0.4], [-1.0], [0.7]]]},
        "L": 1.0,
    })


def assert_chunked_scans_match(chain, a, b, mask_seed=0, rtol=1e-12):
    """Prefix, suffix and masked scans over [a, b] against the per-step scan
    and the pair-covariance sums, entry by entry to `rtol` relative."""
    eng = MomentEngine(chain)
    dirs = _polar_directions(chain.d)
    covs = [pair_cov_matrix(chain, a, b, u) for u in dirs]
    pre = np.array([np.diag(c.cumsum(0).cumsum(1)) for c in covs]).T
    suf = np.array([np.diag(c[::-1, ::-1].cumsum(0).cumsum(1))[::-1] for c in covs]).T

    def close(got, want):
        return np.abs(got - want).max() <= rtol * np.abs(want).max() and np.all(
            np.abs(got - want) <= rtol * np.abs(want) + 1e-15
        )

    for got, step, pairs in (
        (eng.prefix_variances(a, b, dirs), step_scan(chain, a, b, dirs), pre),
        (eng.suffix_variances(a, b, dirs), step_scan(chain, b, a, dirs)[::-1], suf),
    ):
        assert close(got, step) and close(got, pairs)
    # the pairwise oracle is quadratic, and the scans above cross the chunk
    # edges; over windows of about 2B times, one ulp of the variances can
    # move a small polarized off-diagonal by more than rtol of itself
    top = min(b, a + B + 20)
    oracle, _ = eng.cov_partial_sum_pairwise(a, top, truncate=None)
    assert close(eng.cov_partial_sum(a, top), oracle)
    # masked: random segments, some one time long, some longer than B
    r = np.random.default_rng(mask_seed)
    cuts = np.sort(r.choice(np.arange(a + 1, b + 1), size=min(9, b - a), replace=False))
    bounds = [a, *cuts.tolist(), b + 1]
    segs = [(lo, hi - 1) for lo, hi in zip(bounds[:-1], bounds[1:])][::2]
    keep = np.zeros(b - a + 1, dtype=bool)
    for lo, hi in segs:
        keep[lo - a : hi - a + 1] = True
    for u, c in zip(dirs, covs):
        got = eng.var_segments(u, segs)
        assert close(got, c[keep][:, keep].sum()) and close(got, step_segments(chain, u, segs))
        back = np.concatenate([v[:, 0] for _, v in eng.scan(b, a, u, keep)])[::-1]
        kc = np.where(keep[:, None] & keep[None, :], c, 0.0)
        assert close(back, np.diag(kc[::-1, ::-1].cumsum(0).cumsum(1))[::-1])


CHUNK_CASES = {
    # name: (chain, windows); windows start and stop off chunk boundaries
    "explicit": (
        lambda: _explicit_chain(2 * _CHUNK + 80, 3, 2, 11), [(1, 2 * _CHUNK + 81), (7, _CHUNK + 3)],
    ),
    # a non-integer period: the weights never repeat, so no run
    "cosine": (_cosine_chain, [(1, 2 * _CHUNK + 77), (_CHUNK - 5, 2 * _CHUNK + 9)]),
    # the ramp turns flat at step 201: chunks end where the run begins
    "mixture2_ramp": (lambda: entry("mixture2_ramp").build(), [(1, 2 * B + 77), (150, 460)]),
    # kernel period 1, marginals in a float cycle of period 2 from time 23
    "limit2": (lambda: build_chain(limit_cycle_doc(386)), [(1, 2 * B + 77), (30, B + 41)]),
}


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunked_scans_match_pairs_and_single_steps(name):
    make, windows = CHUNK_CASES[name]
    chain = make()
    for i, (a, b) in enumerate(windows):
        assert_chunked_scans_match(chain, a, b, mask_seed=i)


@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(1, 2), st.integers(1, 2 * _CHUNK + 40))
@settings(max_examples=20, deadline=None)
def test_chunked_scans_on_random_explicit_chains(seed, states, d, length):
    chain = _explicit_chain(length + 5, states, d, seed)
    a = 1 + seed % 5
    assert_chunked_scans_match(chain, a, a + length - 1, mask_seed=seed)


def _random_maps(k, states, channels, seed):
    r = np.random.default_rng(seed)
    q = r.random((k, states, states))
    return q / q.sum(axis=1, keepdims=True), r.random((k, channels, states, states)) * 2 - 1


@pytest.mark.parametrize("channels", [0, 1, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 255, 256, 257, _CHUNK])
def test_prefix_matches_a_left_fold(k, channels):
    # 0 channels is a masked stride's stack
    maps = _random_maps(k, 3, channels, 1000 * k + channels)
    got = _prefix(maps)
    want = [tuple(z[0] for z in maps)]
    for i in range(1, k):
        want.append(_compose(tuple(z[i] for z in maps), want[-1]))
    for g, w in zip(got, zip(*want)):
        w = np.array(w)
        assert g.shape == w.shape
        assert np.abs(g - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=1.0)


def test_prefix_composes_linear_work(monkeypatch):
    composed = []

    def counted(later, earlier):
        composed.append(len(later[0]))
        return _compose(later, earlier)

    monkeypatch.setattr("asipkit.moments._compose", counted)
    k = _CHUNK
    _prefix(_random_maps(k, 3, 1, 5))
    assert sum(composed) <= 2 * k


def _count_strides(monkeypatch):
    """Lengths of the scan's strides, one entry per _Sweep.jump call."""
    lengths = []
    jump = _Sweep.jump

    def counted(self, maps, *args):
        lengths.append(len(maps[0]))
        return jump(self, maps, *args)

    monkeypatch.setattr(_Sweep, "jump", counted)
    return lengths


def test_single_steps_are_rare_outside_runs(monkeypatch):
    n = 3072
    chain = _explicit_chain(n - 1, 3, 1, 5)
    lengths = _count_strides(monkeypatch)
    eng = MomentEngine(chain)
    eng.prefix_variances(1, n, [[1.0]])
    eng.suffix_variances(1, n, [[1.0]])
    eng.var_segments([1.0], [(1, 700), (900, 901), (1500, n)])
    assert lengths.count(1) < 40


def test_changing_state_count_ends_a_stride(monkeypatch):
    # kernel 40 is 3 x 2: the strides end before and after its one map
    chain = small_random_chain([3] * 40 + [2] * 30, 1, 8)
    lengths = _count_strides(monkeypatch)
    eng = MomentEngine(chain)
    pre = eng.prefix_variances(1, 70, [[1.0]])[:, 0]
    assert len(lengths) <= 3 and sum(lengths) == 69
    lengths.clear()
    suf = eng.suffix_variances(1, 70, [[1.0]])[:, 0]
    assert len(lengths) <= 3 and sum(lengths) == 69
    c = pair_cov_matrix(chain, 1, 70, np.array([1.0]))
    want_pre = np.diag(c.cumsum(0).cumsum(1))
    want_suf = np.diag(c[::-1, ::-1].cumsum(0).cumsum(1))[::-1]
    assert np.abs(pre - want_pre).max() <= 1e-12 * want_pre.max()
    assert np.abs(suf - want_suf).max() <= 1e-12 * want_suf.max()


# ---------------------------------------------------------------------------
# kept curves


def _record_walks(monkeypatch):
    """(engine id, start, stop) of every scan the engines compute."""
    walks = []
    walk = MomentEngine._walk

    def counted(self, start, stop, *args):
        walks.append((id(self), start, stop))
        return walk(self, start, stop, *args)

    monkeypatch.setattr(MomentEngine, "_walk", counted)
    return walks


def _scanned(eng, walks, start, stop, dirs, inside=None):
    """The scan's curve and whether it was served (no stride walked)."""
    before = len(walks)
    curve = np.concatenate([v for _, v in eng.scan(start, stop, dirs, inside)])
    return curve, not any(w[0] == id(eng) for w in walks[before:])


def _fresh(chain, start, stop, dirs, inside=None):
    return np.concatenate([v for _, v in MomentEngine(chain).scan(start, stop, dirs, inside)])


MEMO_CHAINS = {
    **{e.name: e.build for e in battery() if MomentEngine(e.build())._run is not None},
    "slow2": lambda: build_chain(CHAINS / "slow2.json"),
    "limit2": lambda: build_chain(limit_cycle_doc(386)),
}
MEMO_LENGTHS = (1, B - 1, B + 1, _CHUNK + 3, 2 * B + 7)


@pytest.mark.parametrize("name", sorted(MEMO_CHAINS))
def test_scan_memo_matches_fresh_scans(name, monkeypatch):
    chain = MEMO_CHAINS[name]()
    eng = MomentEngine(chain)
    run, (c, period) = eng._run, chain.cycle
    c0, span = max(run.t0, c), np.lcm(run.period, period)
    assert {"leaky3_delta": 225, "slow2": 847, "mixture2_ramp": 202, "limit2": 23}.get(name, c0) == c0
    walks = _record_walks(monkeypatch)
    top = max(MEMO_LENGTHS) - 1
    asked = set()  # (start, stop, direction rows) of the exact-start scans
    for dirs in (np.eye(chain.d)[:1], _polar_directions(chain.d)):
        for s in range(c0, c0 + 2 * span):
            for n in MEMO_LENGTHS:
                # forward from s, backward down to s + top - n + 1 >= c0
                for start, stop in ((s, s + n - 1), (s + top, s + top - n + 1)):
                    got, served = _scanned(eng, walks, start, stop, dirs)
                    assert got.tobytes() == _fresh(chain, start, stop, dirs).tobytes()
                    # a whole period of phases later every curve is held
                    assert served or s < c0 + span
        # a scan that touches a time before c0 is keyed by its exact start:
        # computed the first time, served after, also across the two
        # direction sets where d = 1 makes them one (no curve is evicted)
        if c0 > 1:
            for start, stop in ((c0 - 1, c0 + B), (c0 + B, c0 - 1), (c0, c0 - 1)):
                for _ in range(2):
                    got, served = _scanned(eng, walks, start, stop, dirs)
                    assert served == ((start, stop, dirs.tobytes()) in asked)
                    asked.add((start, stop, dirs.tobytes()))
                    assert got.tobytes() == _fresh(chain, start, stop, dirs).tobytes()


def test_scan_memo_keeps_a_bounded_number_of_curves(monkeypatch):
    # kept curves are bounded by _CURVE_BYTES alone, the oldest key going
    # first: under the bound every key is held, and a bound of three and a
    # half curves holds the last three keys
    chain = entry("period2").build()
    walks = _record_walks(monkeypatch)
    c0 = max(MomentEngine(chain)._run.t0, chain.cycle[0])
    # 3 direction rows x 2 scan directions x 2 start phases: 12 keys
    scans = [
        (start, stop, [[u]])
        for u in (1.0, -0.5, 2.0)
        for s in (c0, c0 + 1)
        for start, stop in ((s, s + B + 9), (s + B + 9, s))
    ]
    size = (B + 10) * 8  # bytes of one curve
    for bound, kept in ((_CURVE_BYTES, len(scans)), (3 * size + size // 2, 3)):
        monkeypatch.setattr("asipkit.moments._CURVE_BYTES", bound)
        eng = MomentEngine(chain)
        for again in (False, True):
            for start, stop, dirs in scans:
                got, served = _scanned(eng, walks, start, stop, dirs)
                assert served == (again and kept == len(scans))
                assert got.tobytes() == _fresh(chain, start, stop, dirs).tobytes()
                held = sum(c.nbytes for c in eng._curves.values())
                assert held == eng._curve_bytes <= bound
        assert len(eng._curves) == kept
        # the last `kept` keys are served; each earlier one was evicted
        assert all(_scanned(eng, walks, *scan)[1] for scan in scans[-kept:])
        assert not any(_scanned(eng, walks, *scan)[1] for scan in scans[:-kept])


def test_a_mask_that_keeps_every_time_is_no_mask(monkeypatch):
    # a one-segment var_segments reads the held curve of a longer unmasked
    # scan from the same start, and walks no stride
    chain = entry("chain3").build()
    eng = MomentEngine(chain)
    walks = _record_walks(monkeypatch)
    lengths = _count_strides(monkeypatch)
    u = np.array([1.0])
    for a in (1, 40):
        ends = (a, a + B, a + _CHUNK + 9)
        fresh = [MomentEngine(chain).var_segments(u, [(a, b)]) for b in ends]
        pre = eng.prefix_variances(a, ends[-1], u)[:, 0]
        lengths.clear()
        before = len(walks)
        got = [eng.var_segments(u, [(a, b)]) for b in ends]
        assert lengths == [] and len(walks) == before
        assert got == fresh == [pre[b - a] for b in ends]


EXACT_CHAINS = {
    # an explicit schedule has no run, and a cosine of non-integer period no
    # float cycle: only the exact-start key can serve them
    "explicit": lambda: _explicit_chain(2 * _CHUNK + 40, 3, 2, 21),
    "cosine": _cosine_chain,
}


def _exact_dirs(d):
    """One direction row, and more than one."""
    return np.eye(d)[:1], np.vstack([_polar_directions(d), np.ones((1, d))])


def _exact_start_scans(chain, eng, walks, bound):
    """Forward and backward scans of every MEMO_LENGTHS length, shuffled,
    from one start, each bit-equal to a fresh scan, and the kept curves
    hold at most `bound` bytes.  Under _CURVE_BYTES a scan is served when a
    curve of its key at least as long was scanned before, and the same scan
    under a mask that keeps every time is served after it."""
    start = max(MEMO_LENGTHS)
    order = np.random.default_rng(3).permutation(MEMO_LENGTHS * 2)
    held = {}  # (scan direction, direction rows) -> rows of the longest curve
    for dirs in _exact_dirs(chain.d):
        for n in order.tolist():
            for back in (False, True):
                stop = start - n + 1 if back else start + n - 1
                got, served = _scanned(eng, walks, start, stop, dirs)
                assert got.tobytes() == _fresh(chain, start, stop, dirs).tobytes()
                key = back, len(dirs)
                if bound == _CURVE_BYTES:
                    assert served == (n <= held.get(key, 0))
                held[key] = max(held.get(key, 0), n)
                assert sum(c.nbytes for c in eng._curves.values()) == eng._curve_bytes <= bound
                # a mask that keeps every time is dropped: the same curve
                keep = np.ones(n, dtype=bool)
                got, served = _scanned(eng, walks, start, stop, dirs, keep)
                assert served or bound < _CURVE_BYTES
                assert got.tobytes() == _fresh(chain, start, stop, dirs, keep).tobytes()


@pytest.mark.parametrize("name", sorted(EXACT_CHAINS))
def test_scan_memo_serves_exact_starts(name, monkeypatch):
    chain = EXACT_CHAINS[name]()
    eng = MomentEngine(chain)
    assert eng._run is None
    walks = _record_walks(monkeypatch)
    _exact_start_scans(chain, eng, walks, _CURVE_BYTES)
    # one curve per (scan direction, direction rows), none evicted
    assert len(eng._curves) == 4
    # a bound below the longest many-direction curves skips them and evicts
    # curves, and changes no float
    bound = len(_exact_dirs(chain.d)[1]) * 8 * max(MEMO_LENGTHS) * 3 // 4
    monkeypatch.setattr("asipkit.moments._CURVE_BYTES", bound)
    _exact_start_scans(chain, MomentEngine(chain), walks, bound)


@pytest.mark.parametrize("back", [False, True])
@pytest.mark.parametrize("name", ["explicit", "period2"])
def test_scan_yields_the_held_prefix_first(name, back, monkeypatch):
    chain = _explicit_chain(3 * _CHUNK, 3, 1, 4) if name == "explicit" else entry(name).build()
    eng = MomentEngine(chain)
    sign = -1 if back else 1
    start = 2 * _CHUNK if back else 5
    short, stop = B + 1, start + sign * (_CHUNK + 2)
    dirs = [[1.0]]
    walks = _record_walks(monkeypatch)
    lengths = _count_strides(monkeypatch)
    _scanned(eng, walks, start, start + sign * (short - 1), dirs)
    # a consumer that stops inside the held rows walks no stride
    lengths.clear()
    before = len(walks)
    for t, v in eng.scan(start, stop, dirs):
        assert (t, len(v)) == (start, short)
        break
    assert lengths == [] and len(walks) == before
    # one that reads on gets the rest of a fresh walk, each chunk at the
    # time of its first row
    chunks = list(eng.scan(start, stop, dirs))
    assert len(chunks[0][1]) == short and len(chunks) > 1 and len(walks) == before + 1
    rows = 0
    for t, v in chunks:
        assert t == start + sign * rows
        rows += len(v)
    got = np.concatenate([v for _, v in chunks])
    assert got.tobytes() == _fresh(chain, start, stop, dirs).tobytes()
    # the longer curve is held afterwards
    again, served = _scanned(eng, walks, start, stop, dirs)
    assert served and again.tobytes() == got.tobytes()


def test_scan_counts_finds_no_mismatch():
    script = Path(__file__).resolve().parents[1] / "scripts" / "scan_counts.py"
    done = subprocess.run([sys.executable, str(script), "--workload", "exact-long",
                           "--workload", "schedule"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line = (r"{}: \d+ of \d+ scans served, \d+ computed, \d+ scan rows computed, "
            r"{} curves evicted, 0 mismatches; \d+ mixing reports asked, \d+ computed, "
            r"0 mismatches\n")
    assert re.fullmatch(line.format("exact-long", "0") + line.format("schedule", r"\d+"),
                        done.stdout)


# ---------------------------------------------------------------------------
# one joint period of arrays


def _sequential_marginals(chain, n):
    """m_1, ..., m_n by the sequential product, one time at a time."""
    m, out = chain.initial, [chain.initial]
    for t in range(1, n):
        m = m @ chain.kernel(t)
        out.append(m)
    return out


def _per_time_centered(chain, laws, a, b):
    """f_t - E f_t over [a, b] by the batched expression over the window."""
    tables = chain.observable.stack(a, b)
    marg = np.stack(laws[a - 1 : b])
    return tables - marg[:, None, :] @ tables


def _per_time_pieces(laws, a, b):
    counts = [len(m) for m in laws[a - 1 : b]]
    cuts = [a + i for i in range(1, len(counts)) if counts[i] != counts[i - 1]]
    edges = [a, *cuts, b + 1]
    return [(lo, hi - 1) for lo, hi in zip(edges, edges[1:])]


PERIOD_CHAINS = {
    **{e.name: e.build for e in battery()},
    "slow2": lambda: build_chain(CHAINS / "slow2.json"),
    # kernel period 1, marginals in a float cycle of period 2 from time 23
    "limit2": lambda: build_chain(limit_cycle_doc(386)),
    # an observable of period 2 over kernels of period 1
    "obs2_over_k1": lambda: build_chain({
        "kernels": {"periodic": [[[0.7, 0.3], [0.4, 0.6]]]},
        "initial": [0.5, 0.5],
        "observable": {"periodic": [[[1.0], [-0.5]], [[0.25], [0.75]]]},
        "L": 1.0,
    }),
    "state_counts": lambda: small_random_chain([2, 3, 3, 2, 2, 1, 3, 3, 3, 2] * 4, 2, 5),
    # cosine weights of period 37: the table finds no float cycle
    "cosine37": lambda: build_chain({
        "kernels": {"mixture": {
            "base": [[[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]],
                     [[0.2, 0.4, 0.4], [0.5, 0.1, 0.4], [0.3, 0.3, 0.4]]],
            "weights": {"kind": "cosine", "period": 37, "center": 0.5, "amplitude": 0.4},
        }},
        "initial": [0.6, 0.3, 0.1],
        "observable": {"constant": [[1.0], [0.2], [-0.9]]},
        "L": 1.0,
    }),
}


def _without_period(make, top):
    """The chain of `make` after filling its table to `top`, reading every
    time by the per-time path."""
    chain = make()
    chain.marginal(top)
    chain._period = None
    return chain


@pytest.mark.parametrize("name", sorted(PERIOD_CHAINS))
def test_period_reads_match_the_per_time_path(name):
    make = PERIOD_CHAINS[name]
    chain = make()
    top = 3000 if chain.max_time is None else chain.max_time
    chain.marginal(top)  # the table finds its cycle, if it has one
    laws = _sequential_marginals(chain, top if chain.max_time else top + 700)
    if name in ("slow2", "limit2", "obs2_over_k1"):
        assert chain._period is not None
    if name in ("state_counts", "cosine37"):
        assert chain._period is None
    if chain.cycle is None or chain.observable.period() is None:
        windows = [(1, 9), (3, 31), (2, top)]
    else:
        c, p = chain.cycle
        span = math.lcm(p, chain.observable.period())
        windows = [
            (c + 1, c + span),  # inside one period
            (max(1, c - 3), c + 2 * span + 1),  # straddling c
            (c + 2, c + 2 + max(40 * span, 600)),  # over many periods
            (1, c + span + 5),
        ]
    dirs = _polar_directions(chain.d)
    twin = _without_period(make, top)
    for a, b in windows:
        pieces = _per_time_pieces(laws, a, b)
        assert chain.pieces(a, b) == pieces
        if len(pieces) == 1:
            want = np.stack(laws[a - 1 : b])
            assert chain.marginals(np.arange(a, b + 1)).tobytes() == want.tobytes()
        for u in dirs:
            want = max(float(np.max(np.abs(_per_time_centered(chain, laws, lo, hi) @ u)))
                       for lo, hi in pieces)
            assert MomentEngine(chain).centered_max(a, b, u) == want
        for lo, hi in pieces:
            want = _per_time_centered(chain, laws, lo, hi)
            assert chain.centered_stack(lo, hi).tobytes() == want.tobytes()
        # the scans' node values and backward weights
        for read in ("prefix_variances", "suffix_variances"):
            got = getattr(MomentEngine(chain), read)(a, b, dirs)
            assert got.tobytes() == getattr(MomentEngine(twin), read)(a, b, dirs).tobytes()


@pytest.mark.parametrize("name", sorted({*MEMO_CHAINS, "obs2_over_k1"}))
def test_run_nodes_are_the_chains_centred_tables(name):
    # one centring expression: a run's period is the chain's joint period,
    # and its node values are the rows of centered_stack, bit for bit
    chain = PERIOD_CHAINS[name]()
    run = MomentEngine(chain)._run
    period = chain.joint_period()[1]
    assert run.period == period
    times = np.arange(run.c0, run.c0 + 2 * period)
    want = chain.centered_stack(run.c0, run.c0 + 2 * period - 1)
    assert run.nodes[(times - run.t0) % period].tobytes() == want.tobytes()


def test_segments_are_clipped_to_the_window():
    assert not _segment_mask([(1, 5)], 10, 20).any()
    assert np.flatnonzero(_segment_mask([(1, 11), (18, 30)], 10, 20)).tolist() == [0, 1, 8, 9, 10]
    eng = MomentEngine(entry("sym2_p02").build())
    u = np.array([1.0])
    segments = [(1, 5), (12, 14)]  # the first ends before the window
    want = eng.lp_norm(12, 14, u, 2).value
    assert abs(eng.lp_norm(10, 20, u, 2, segments=segments).value - want) <= 1e-12 * want
    values, w, _ = eng.window_distribution(10, 20, u, segments=segments)
    assert abs(float(w @ values**2) ** 0.5 - want) <= 1e-12 * want
