"""Property-based checks of the structural invariants.

Random chains are drawn via seeded generators so failures shrink to a seed.
"""
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asipkit.blocks import build_blocks
from asipkit.chain import ChainSpec, ExplicitKernels, ObservableSchedule, build_chain, pair_joint
from asipkit.cli import _scrub
from asipkit.mixing import (
    alpha_phi,
    dobrushin_coefficient,
    fit_envelope,
    rho_coefficient,
)
from asipkit.moments import MomentEngine
from asipkit.util import dobrushin, fmt_float

SETTINGS = dict(max_examples=25, deadline=None)


def random_chain(seed: int, n_steps: int, d: int = 1) -> ChainSpec:
    r = np.random.default_rng(seed)
    sizes = [int(s) for s in r.integers(2, 4, size=n_steps + 1)]
    kernels = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        k = r.random((a, b)) + 0.05
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


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(**SETTINGS)
def test_marginals_and_step_matrices_are_stochastic(seed, n_steps):
    ch = random_chain(seed, n_steps)
    for j in range(1, n_steps + 2):
        m = ch.marginal(j)
        assert np.all(m >= 0) and abs(float(m.sum()) - 1.0) < 1e-12
    sm = ch.step_matrix(1, n_steps + 1)
    assert np.all(sm >= -1e-15)
    assert np.abs(sm.sum(axis=1) - 1.0).max() < 1e-12
    law = pair_joint(ch, 1, n_steps + 1)
    assert abs(float(law.matrix.sum()) - 1.0) < 1e-12


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 2))
@settings(**SETTINGS)
def test_partial_sum_covariance_is_psd(seed, n_steps, d):
    ch = random_chain(seed, n_steps, d)
    eng = MomentEngine(ch)
    cov = eng.cov_partial_sum(1, n_steps + 1)
    assert np.abs(cov - cov.T).max() < 1e-12
    assert np.linalg.eigvalsh(cov).min() > -1e-10
    oracle, exact = eng.cov_partial_sum_pairwise(1, n_steps + 1, truncate=None)
    assert exact and np.abs(cov - oracle).max() <= 1e-10 * np.abs(oracle).max()


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(**SETTINGS)
def test_alpha_dominated_by_phi(seed, k):
    ch = random_chain(seed, 5)
    a, p = alpha_phi(ch, k, range(1, 4))
    assert 0.0 <= a <= p + 1e-15
    assert p <= 1.0 + 1e-15


@given(st.integers(0, 10_000))
@settings(**SETTINGS)
def test_contraction_identities(seed):
    ch = random_chain(seed, 4)
    for j in range(1, 4):
        pi = dobrushin_coefficient(ch, j)
        assert 0.0 <= pi <= 1.0 + 1e-15
        assert rho_coefficient(ch, j) <= math.sqrt(pi) + 1e-10
    # Dobrushin is submultiplicative over composition
    k1, k2 = ch.kernel(1), ch.kernel(2)
    assert dobrushin(k1 @ k2) <= dobrushin(k1) * dobrushin(k2) + 1e-12


@given(
    st.floats(0.15, 0.85),
    st.floats(0.05, 2.0),
)
@settings(**SETTINGS)
def test_envelope_recovers_exact_geometric_data(delta, c):
    alphas = {k: c * delta**k for k in range(1, 11)}
    env, _ = fit_envelope(alphas)
    assert not env.degenerate
    assert math.isclose(env.delta, delta, rel_tol=1e-6)
    assert math.isclose(env.c, c, rel_tol=1e-6)
    for k, a in alphas.items():
        assert env.value(k) >= a - 1e-12


@given(st.floats(1.0, 30.0), st.integers(1, 3), st.floats(0.5, 2.0))
@settings(**SETTINGS)
def test_block_structure_invariants(amplitude, r, scale):
    doc = {
        "kernels": {"periodic": [[[0.5, 0.5], [0.5, 0.5]]]},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[scale], [-scale]]},
        "L": scale,
    }
    ch = build_chain(doc)
    part = build_blocks(ch, amplitude, r, 600)
    sqa = math.sqrt(amplitude)
    for norm in part.norms:
        assert sqa - 1e-9 <= norm <= sqa + ch.L + 1e-9
    for (a1, b1), (a2, _) in zip(part.blocks, part.blocks[1:]):
        assert a2 - b1 == r + 1  # exactly r excluded indices between blocks
    # I-blocks tile the cover without gaps or overlap
    for (ia, ib), (ja, _) in zip(part.i_blocks, part.i_blocks[1:]):
        assert ja == ib + 1
    assert part.i_blocks[0][0] == 1
    assert part.i_blocks[-1][1] == part.cover_end
    # k_of: count of fully covered I-blocks, consistent with k_array
    ka = part.k_array(part.cover_end)
    for n in (1, part.cover_end // 2, part.cover_end):
        assert ka[n - 1] == part.k_of(n)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(**SETTINGS)
def test_fmt_float_round_trip(x):
    assert float(fmt_float(x)) == x


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**40), 2**40),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=8),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=12,
    )
)
@settings(**SETTINGS)
def test_scrub_output_is_json_safe(obj):
    json.dumps(_scrub(obj), allow_nan=False)


def test_scrub_handles_numpy_values():
    doc = {
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.array([1.0, 2.0]),
        "d": float("nan"),
        "e": np.bool_(True),
        "f": math.inf,
    }
    out = _scrub(doc)
    assert out == {"a": 1.5, "b": 3, "c": [1.0, 2.0], "d": None, "e": True, "f": None}
    assert isinstance(out["e"], bool) and not isinstance(out["b"], np.integer)
