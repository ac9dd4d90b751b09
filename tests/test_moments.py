"""Exact moment engine vs brute-force path enumeration and closed forms."""
import gc
import itertools
import weakref

import numpy as np
import pytest

from asipkit.battery import battery
from asipkit.chain import ChainSpec, ExplicitKernels, ObservableSchedule
from asipkit.moments import MomentEngine, engine_for


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
    eng = MomentEngine(chain)
    cs = {j: eng.centered(j) for j in range(n, m + 1)}
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
        j: (eng.centered(j) @ u if any(a <= j <= b for a, b in segs) else np.zeros(3))
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
    cs1 = {j: (eng.centered(j) @ u if 1 <= j <= 2 else np.zeros(3)) for j in range(1, 6)}
    cs2 = {j: (eng.centered(j) @ u if 4 <= j <= 5 else np.zeros(3)) for j in range(1, 6)}
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
    assert r.exact and r.method == "dp-dyadic"
    assert abs(r.value - 280**0.25) < 1e-12


def test_lp_norm_grid_and_mc_fallbacks():
    ch = small_random_chain([3, 3, 3, 3, 3], 1, 77)
    eng = MomentEngine(ch)
    direct = np.sqrt(eng.var_window(1, 5, np.array([1.0])))
    r = eng.lp_norm(1, 5, np.array([1.0]), 2)
    assert r.method == "dp-grid" and abs(r.value - direct) < 1e-6
    r4 = eng.lp_norm(1, 5, np.array([1.0]), 2, atom_cap=3, mc=(100_000, 9))
    assert not r4.exact and r4.method == "monte-carlo"
    assert abs(r4.value - direct) < 5 * (r4.stderr or 1.0)


def test_standardized_fourth_moment_near_gaussian(sym):
    # kurtosis of the standardized sum approaches 3 on mixing chains
    eng = engine_for(sym)
    m4 = eng.standardized_fourth_moment(1200, np.array([1.0]))
    assert abs(m4 - 3.0) < 0.3


def test_eigen_ratio_trivial_for_d1(sym):
    rep = engine_for(sym).eigen_ratio_report([(1, n) for n in (2, 10, 50)])
    assert rep.bounded
    for w in rep.windows:
        assert abs(w.ratio - 1.0) < 1e-12


def test_mean_obs_centering(sym, iid2):
    for ch in (sym, iid2):
        eng = engine_for(ch)
        for t in (1, 3, 17):
            assert np.abs(eng.mean_obs(t)).max() < 1e-15
            assert np.abs(eng.centered(t) - ch.obs(t)).max() < 1e-15


def test_engine_for_memo_frees_its_chain():
    ch = small_random_chain([2, 3, 2], 1, 3)
    eng = engine_for(ch)
    eng.v_matrix(3)
    assert engine_for(ch) is eng
    ref = weakref.ref(ch)
    del ch, eng
    gc.collect()
    assert ref() is None
