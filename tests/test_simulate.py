"""Seeded path sampling, Gaussian surrogate, and distributional diagnostics."""
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

import asipkit
from asipkit.battery import entry
from asipkit.blocks import build_blocks, plan_partition
from asipkit.chain import _WALK_BLOCK, ChainConfigError, build_chain
from asipkit.moments import engine_for
from asipkit.simulate import (
    CHUNK,
    clt_diagnostic,
    gaussian_surrogate,
    ks_statistic,
    lil_diagnostic,
    rate_scaling_diagnostic,
    sample_paths,
    variance_matching_diagnostic,
    w1_two_sample,
)
from asipkit.util import direction_grid


def test_determinism_across_runs_and_workers(sym):
    b1 = sample_paths(sym, 50, 3000, 42, [10, 50])
    b2 = sample_paths(sym, 50, 3000, 42, [10, 50])
    assert np.array_equal(b1.sums, b2.sums)


def test_sample_moments_match_exact(iid2, sym):
    bi = sample_paths(iid2, 1, 100_000, 7, [1])
    assert abs(float(bi.sums[:, 0, 0].mean())) <= 3.0 / math.sqrt(100_000)
    bs = sample_paths(sym, 2, 20_000, 11, [2])
    v = float(bs.sums[:, 0, 0].var(ddof=1))
    se = math.sqrt(2.0 / 20_000) * 3.0
    assert abs(v - 3.0) <= 4 * se + 0.05


def test_gaussian_surrogate_matches_block_covariances(iid2):
    part = build_blocks(iid2, 9.0, 2, 200)
    sur = gaussian_surrogate(part, 40_000, 5)
    assert sur.clipped == 0
    assert abs(part.theta_var()[0] - 11.0) < 1e-12  # distributional parameter
    assert abs(float(sur.cum_sums[:, 0, 0].var(ddof=1)) - 11.0) < 0.5
    assert abs(float(sur.cum_sums[:, 2, 0].var(ddof=1)) - 33.0) < 1.5


def test_ks_oracle_at_n1(iid2):
    batch = sample_paths(iid2, 1, 100_000, 7, [1])
    ks = clt_diagnostic(batch, iid2)
    # S_1 = +-1 against N(0,1): sup gap is at the atom, 0.5 - Phi(-1)
    assert abs(ks.points[0].ks - (0.5 - ndtr(-1.0))) < 0.01


def test_ks_skips_zero_variance(zero):
    batch = sample_paths(zero, 5, 100, 3, [5])
    ks = clt_diagnostic(batch, zero)
    assert ks.points[0].skipped and ks.points[0].reason
    assert ks.max_ks is None


def test_ks_variances_are_the_window_variances():
    # one prefix scan per direction, read at every checkpoint, gives the
    # floats of one var_window per checkpoint and direction
    ch = entry("chain3_d2").build()
    cps = [1, 2, 7, 31, 100, 255, 256, 257, 300, 600]
    batch = sample_paths(ch, 600, 40, 3, cps)
    dirs = direction_grid(2, 4)
    curve = clt_diagnostic(batch, ch, directions=dirs)
    eng = engine_for(ch)
    assert [(p.n, p.direction) for p in curve.points] == [(n, k) for n in cps for k in range(4)]
    for p in curve.points:
        assert p.variance == eng.var_window(1, p.n, dirs[p.direction])
    empty = sample_paths(ch, 600, 40, 3, [])
    assert clt_diagnostic(empty, ch, directions=dirs).points == []


def test_w1_plumbing():
    rng = np.random.default_rng(1)
    g = rng.normal(0.0, 2.0, 200_000)
    assert w1_two_sample(g, g) == 0.0
    assert abs(w1_two_sample(g, g + 0.5) - 0.5) < 1e-9


def _ks_oracle(x):
    """KS distance to N(0, 1) from every order statistic, with scipy's ndtr."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    cdf = ndtr(x)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def test_ks_statistic_matches_ndtr_oracle():
    rng = np.random.default_rng(3)
    lattice = (2.0 * rng.binomial(68, 0.5, 512) - 68.0) / math.sqrt(68.0)  # ties
    assert np.unique(lattice).size < 50
    for x in (lattice, rng.normal(0.3, 1.2, 700), [0.7], rng.standard_normal(10_000)):
        assert abs(ks_statistic(x) - _ks_oracle(x)) <= 1e-15
    assert ks_statistic([0.0]) == 0.5  # the KS gap of one atom at 0 is Phi(0)


def test_simulate_runs_without_scipy(tmp_path):
    # the simulate command in a fresh interpreter where every scipy import fails
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'blocked: {name}')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import asipkit.cli\n"
        "rc = asipkit.cli.main(['simulate', '--chain', sys.argv[1], '--paths', '500',\n"
        "                       '--out', sys.argv[2]])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    root = Path(asipkit.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "chains" / "chain3_d2.json"), str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert out.stdout.splitlines()[-1:] == ["0 []"], out.stdout + out.stderr
    assert len(list(tmp_path.iterdir())) == 4
    import tomllib  # Python 3.11

    deps = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    assert not any(d.startswith("scipy") for d in deps)


def test_variance_matching_iid_zero_gap(iid2):
    part, _ = plan_partition(iid2, min_blocks=4)
    vm = variance_matching_diagnostic(iid2, part)
    assert all(pt.gap == 0.0 for pt in vm.points)
    assert vm.c_max == 0.0


def test_variance_matching_sym_cross_covariances(sym):
    # adjacent I-covers contribute exactly 4 in total cross covariance each
    part, _ = plan_partition(sym, min_blocks=4)
    vm = variance_matching_diagnostic(sym, part)
    for k, pt in enumerate(vm.points, start=1):
        assert abs(pt.gap - 4.0 * (k - 1)) < 1e-6
    assert vm.c_max < math.inf
    rows = vm.to_rows()
    assert set(rows[0]) == {"k", "n", "gap", "normalizer", "ratio"}


def test_variance_matching_is_a_spectral_norm():
    # the largest gap over every unit direction, not along e1 only
    ch = entry("chain3_d2").build()
    part = build_blocks(ch, 300.0, 5, 1200)
    vm = variance_matching_diagnostic(ch, part, delta=0.1)
    vn = engine_for(ch).v_curve(part.cover_end)[part.i_ends - 1]
    diff = vn - np.cumsum(np.stack(part.theta_cov), axis=0)
    gaps = np.abs(np.linalg.eigvalsh(diff)).max(axis=1)
    s_n = np.linalg.eigvalsh(vn)[:, 0]
    want = float((gaps / s_n**0.6).max())
    assert abs(vm.c_max - want) <= 1e-12 * want
    assert [pt.k for pt in vm.points] == list(range(1, part.count + 1))


def test_rate_scaling_diagnostic(iid2):
    part = build_blocks(iid2, 9.0, 2, 200)
    batch = sample_paths(iid2, part.cover_end, 20_000, 42, [], partition=part)
    sur = gaussian_surrogate(part, 20_000, 9)
    rc = rate_scaling_diagnostic(batch, iid2, part, sur)
    assert rc.points[0].sigma == math.sqrt(11.0)
    assert all(np.isfinite(pt.w1) and pt.stderr >= 0 for pt in rc.points)
    assert rc.bounded
    # restricting to chosen block indices
    rc2 = rate_scaling_diagnostic(batch, iid2, part, sur, k_values=[1, part.count])
    assert len(rc2.points) == 2
    with pytest.raises(ChainConfigError):
        rate_scaling_diagnostic(batch, iid2, part, sur, k_values=[0])


def test_lil_diagnostic(iid2, zero):
    lil = lil_diagnostic(iid2, 20_000, 200, 13)
    assert lil.first_n is not None
    assert 0.5 < lil.median < 1.5
    assert lil.n_included > 0
    lz = lil_diagnostic(zero, 100, 50, 3)
    assert lz.n_included == 0 and lz.quantiles == {}


def test_batch_projection_shapes(sym):
    batch = sample_paths(sym, 20, 500, 3, [5, 20])
    assert batch.sums.shape == (500, 2, 1)
    proj = batch.projected(np.array([1.0]))
    assert proj.shape == (500, 2)
    assert np.array_equal(proj, batch.sums[:, :, 0])


def _centered(chain):
    """t -> f_t - E f_t, from the marginal at t alone."""
    return lambda t: chain.obs(t) - chain.marginal(t) @ chain.obs(t)


def _oracle_states(chain, t0, t1, n, rng):
    """States at times t0..t1 along n paths, drawn without chain.walk: one
    rng.random(n) per time, next state #{cumulative probability <= u}."""
    cum = np.cumsum(chain.marginal(t0))
    s = np.minimum((cum <= rng.random(n)[:, None]).sum(axis=1), cum.size - 1)
    states = {t0: s}
    for t in range(t0 + 1, t1 + 1):
        cum = np.cumsum(chain.kernel(t - 1), axis=1)
        s = np.minimum((cum[s] <= rng.random(n)[:, None]).sum(axis=1), cum.shape[1] - 1)
        states[t] = s
    return states


def _oracle_sums(chain, t0, t1, n, rng, value):
    """Running sums of value(t)[state] along the _oracle_states paths."""
    states = _oracle_states(chain, t0, t1, n, rng)
    total = {t0: value(t0)[states[t0]]}
    for t in range(t0 + 1, t1 + 1):
        total[t] = total[t - 1] + value(t)[states[t]]
    return total


def _block_edge_chain():
    """Three states up to time B + 7, two up to 2B + 9, then three again, for
    walk blocks of B times; horizon 3B + 5."""
    b = _WALK_BLOCK
    r = np.random.default_rng(6)
    sizes = [3] * (b + 7) + [2] * (b + 2) + [3] * (b - 4)
    kernels = [r.random((x, y)) + 0.1 for x, y in zip(sizes, sizes[1:])]
    kernels = [(k / k.sum(axis=1, keepdims=True)).tolist() for k in kernels]
    return build_chain({
        "kernels": kernels, "initial": [0.2, 0.5, 0.3],
        "observable": [(r.random((x, 1)) * 4 - 2).tolist() for x in sizes], "L": 2.0,
    })


def _oracle_stream(seed, c):
    """The stream of path chunk c, built here and not by the sampler: a
    change of entropy or spawn key breaks reproducibility and must fail."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(c,))))


def assert_sampling_matches_the_oracle(chain, n_max, n_paths, seed, cps, covers):
    """Checkpoint and cover sums of sample_paths equal those of per-time
    oracle paths drawn from the chunk streams (1024 paths each), added in
    time order."""
    assert CHUNK == 1024
    part = SimpleNamespace(i_blocks=covers, cover_end=max(e for _, e in covers))
    batch = sample_paths(chain, n_max, n_paths, seed, cps, part)
    assert batch.checkpoints == sorted(cps)
    value = _centered(chain)
    for c, lo in enumerate(range(0, n_paths, 1024)):
        hi = min(lo + 1024, n_paths)
        states = _oracle_states(chain, 1, n_max, hi - lo, _oracle_stream(seed, c))
        total = 0.0
        for t in range(1, n_max + 1):
            total = total + value(t)[states[t]]
            if t in cps:
                assert np.array_equal(batch.sums[lo:hi, batch.checkpoints.index(t)], total)
        for j, (a, e) in enumerate(covers):
            want = np.zeros((hi - lo, chain.d))
            for t in range(a, e + 1):
                want = want + value(t)[states[t]]
            assert np.array_equal(batch.block_sums[lo:hi, j], want)


def test_sampling_streams_match_an_independent_oracle(sym):
    b = _WALK_BLOCK
    # checkpoints on and beside walk-block edges; covers inside a block,
    # across block edges and checkpoints, and ending at the horizon
    cps = [1, 13, b - 1, b, b + 1, 2 * b, 2 * b + 6]
    covers = [(2, 9), (12, b + 4), (b + 6, 2 * b), (2 * b + 1, 2 * b + 6)]
    assert_sampling_matches_the_oracle(sym, 2 * b + 6, 2500, 5, cps, covers)
    # d = 1 with a last chunk of one path: each of its rows is one number,
    # which a reduce over the rows would sum pairwise, out of time order
    chain = _block_edge_chain()
    cps = [b - 1, b, b + 1, 2 * b, chain.max_time]
    covers = [(1, b - 2), (b + 2, 3 * b), (3 * b + 1, chain.max_time)]
    assert_sampling_matches_the_oracle(chain, chain.max_time, 1024 + 1, 11, cps, covers)


def test_sampling_streams_where_the_state_count_changes():
    # three states, then two: several threshold columns, per-time tables
    r = np.random.default_rng(4)
    shapes = [(3, 3)] * 5 + [(3, 2)] + [(2, 2)] * 4
    kernels = [r.random(sh) + 0.1 for sh in shapes]
    kernels = [(k / k.sum(axis=1, keepdims=True)).tolist() for k in kernels]
    sizes = [3] * 6 + [2] * 5
    chain = build_chain({
        "kernels": kernels, "initial": [0.5, 0.3, 0.2],
        "observable": [(r.random((s, 1)) * 2 - 1).tolist() for s in sizes], "L": 1.0,
    })
    batch = sample_paths(chain, 11, 700, 3, [2, 6, 11])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=3, spawn_key=(0,))))
    want = _oracle_sums(chain, 1, 11, 700, rng, _centered(chain))
    for i, t in enumerate(batch.checkpoints):
        assert np.array_equal(batch.sums[:, i], want[t])


def test_sampling_sums_across_state_count_changes():
    # kernels 2x2, 2x3, 3x3, 3x1: the centred tables come in pieces of one count
    r = np.random.default_rng(8)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 1)]
    kernels = [r.random(sh) + 0.1 for sh in shapes]
    kernels = [(k / k.sum(axis=1, keepdims=True)).tolist() for k in kernels]
    chain = build_chain({
        "kernels": kernels, "initial": [0.4, 0.6],
        "observable": [(r.random((s, 1)) * 2 - 1).tolist() for s in (2, 2, 3, 3, 1)], "L": 1.0,
    })
    batch = sample_paths(chain, 5, 300, 2, [1, 2, 3, 4, 5])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=2, spawn_key=(0,))))
    want = _oracle_sums(chain, 1, 5, 300, rng, _centered(chain))
    for i, t in enumerate(batch.checkpoints):
        assert np.array_equal(batch.sums[:, i], want[t])


def test_sampling_sums_and_cover_sums_across_walk_blocks():
    b = _WALK_BLOCK
    chain = _block_edge_chain()
    n_max, n_paths = chain.max_time, CHUNK + 76  # two chunks of paths
    assert n_max == 3 * b + 5
    # covers inside a block, across each block edge and state count change,
    # and one ending at the horizon
    covers = [(3, 9), (b - 4, b + 3), (b + 5, 2 * b + 1), (2 * b + 2, 2 * b + 11), (3 * b, n_max)]
    cps = [1, b, b + 1, b + 8, 2 * b, 2 * b + 1, n_max]
    assert_sampling_matches_the_oracle(chain, n_max, n_paths, 9, cps, covers)


def test_lil_matches_the_per_time_oracle():
    chain = _block_edge_chain()
    n_max, n_paths = chain.max_time, CHUNK + 76
    lil = lil_diagnostic(chain, n_max, n_paths, 4)
    v = engine_for(chain).prefix_variances(1, n_max, np.eye(1))[:, 0]
    gate = v >= math.exp(math.e)
    norm = np.sqrt(2.0 * v * np.log(np.log(v, where=gate, out=np.ones_like(v))))
    first = int(np.argmax(gate)) + 1
    assert lil.first_n == first and first % _WALK_BLOCK not in (0, 1) and first < n_max - _WALK_BLOCK
    value = _centered(chain)
    best = []
    for c, lo in enumerate(range(0, n_paths, CHUNK)):
        hi = min(lo + CHUNK, n_paths)
        sums = _oracle_sums(chain, 1, n_max, hi - lo, _oracle_stream(4, c), lambda t: value(t)[:, 0])
        acc = np.zeros(hi - lo)
        for t in range(first, n_max + 1):
            if gate[t - 1]:
                acc = np.maximum(acc, np.abs(sums[t]) / norm[t - 1])
        best.append(acc)
    best = np.concatenate(best)
    assert lil.quantiles == {q: float(np.quantile(best, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
