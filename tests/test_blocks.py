"""Block partitions: parameter selection, greedy construction, verification."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from asipkit.battery import entry
from asipkit.blocks import (
    VarianceStarvedError,
    build_blocks,
    covariance_inequality_check,
    plan_partition,
    q_of_amplitude,
    q_zero,
    select_amplitude,
    select_separation,
    verify_partition,
)
from asipkit.chain import build_chain
from asipkit.mixing import Envelope
from asipkit.moments import engine_for
from asipkit.util import direction_grid

ENV_UNIT = Envelope(c=1.0, delta=0.5, degenerate=False)
ENV_IID = Envelope(c=0.0, delta=0.5, degenerate=True)


def test_select_separation():
    r, tail = select_separation(ENV_UNIT, 4, 8.0)
    assert r == 17
    assert tail < 1.0 / (32 * 8.0)
    assert select_separation(ENV_IID, 4, 8.0)[0] == 1
    r_fast, _ = select_separation(Envelope(c=1.0, delta=0.25, degenerate=False), 4, 8.0)
    assert r_fast < 17


def test_compute_q_closed_form():
    # unit envelope, r=2, p=4, L=1: Q0 = 2*8*(1+2)(1+1) * sum 2^(-1.5 k)
    q0 = q_zero(2, 4, 1.0, ENV_UNIT, 8.0)
    geo = 2**-1.5 / (1 - 2**-1.5)
    assert abs(q0 - 96 * geo) < 1e-9
    assert abs(q_of_amplitude(9.0, q0) - (q0 + 2 * math.sqrt(27.0 * q0))) < 1e-12
    assert abs(q_of_amplitude(9.0, 1.0) - (1.0 + 2 * math.sqrt(27.0))) < 1e-12


def test_select_amplitude_closed_form():
    a, cert = select_amplitude(0.0)
    assert a == 1.0 and cert == 0.0
    a1, cert1 = select_amplitude(1.0)
    assert abs(a1 - (4 * math.sqrt(3) + math.sqrt(53)) ** 2) < 1e-6
    assert cert1 >= 0.0
    assert select_amplitude(4.0)[0] > a1
    # closed forms that round short of the certificate step up to the
    # smallest float that certifies
    # and closed forms that overshoot step down to it
    rng = np.random.default_rng(2024)
    sample = np.exp(rng.uniform(-12.0, 6.0, 2000))
    for q0 in (0.125, 1.5, 6.0, 9.0, *sample.tolist()):
        a = select_amplitude(q0)[0]
        below = float(np.nextafter(a, 0.0))
        assert a > 1.0
        assert a - 4.0 * q_of_amplitude(a, q0) - 1.0 >= 0.0
        assert below - 4.0 * q_of_amplitude(below, q0) - 1.0 < 0.0


def test_build_blocks_iid(iid2):
    part = build_blocks(iid2, 9.0, 2, 200)
    assert part.blocks[0] == (1, 9) and part.blocks[1] == (12, 20)
    assert part.i_blocks[0] == (1, 11)
    assert part.k_of(11) == 1 and part.k_of(20) == 1 and part.k_of(22) == 2
    ka = part.k_array(30)
    assert ka[10] == 1 and ka[29] == part.k_of(30)
    assert np.allclose(part.norms, 3.0)
    assert np.allclose(part.theta_var(), 11.0)


def test_covers_end_inside_the_horizon():
    iid = entry("sym2_p00").build()
    # block (1, 9) closes inside horizon 10, but its cover ends at 11
    with pytest.raises(VarianceStarvedError) as ei:
        build_blocks(iid, 9.0, 2, 10)
    assert ei.value.index == 10
    # iid signs: cover j is [11j - 10, 11j], kept while 11j <= horizon
    for horizon in range(11, 60):
        part = build_blocks(iid, 9.0, 2, horizon)
        assert part.cover_end <= horizon
        assert part.count == horizon // 11
    for name, horizon in (("leaky3_delta", 700), ("period2", 333), ("mixture2_ramp", 450)):
        part = build_blocks(entry(name).build(), 30.0, 5, horizon)
        assert part.cover_end <= horizon


def test_build_blocks_sym(sym):
    part = build_blocks(sym, 9.0, 2, 200)
    assert part.blocks[0] == (1, 5)
    assert abs(part.norms[0] ** 2 - 11.125) < 1e-12


def test_variance_starved(zero):
    with pytest.raises(VarianceStarvedError) as ei:
        build_blocks(zero, 9.0, 2, 50)
    assert ei.value.index == 50
    assert "index 50" in str(ei.value)
    # the planner's exact rate probe fails first, even with a horizon given
    with pytest.raises(VarianceStarvedError) as ei:
        plan_partition(zero, horizon=32)
    assert ei.value.index == 256
    # a given horizon is final: the planner neither doubles past it ...
    doc = json.loads((Path(__file__).parents[1] / "chains" / "chain3_d2.json").read_text())
    part, plan = plan_partition(build_chain(doc), horizon=2048)
    assert plan.horizon == 2048 and part.horizon == 2048
    # ... and raises at that horizon when nothing closes inside it
    with pytest.raises(VarianceStarvedError) as ei:
        plan_partition(entry("sym2_p05").build(), horizon=300)
    assert ei.value.index == 300


def test_verify_partition_iid_oracles(iid2):
    part = build_blocks(iid2, 9.0, 2, 200)
    ver = verify_partition(iid2, part, horizon=200)
    assert abs(ver.a1 - math.sqrt(11)) < 1e-12
    assert abs(ver.a2 - math.sqrt(11)) < 1e-12
    assert abs(ver.c - math.sqrt(11)) < 1e-12
    assert abs(ver.r1 - 11.0) < 1e-12 and abs(ver.r2 - 21.0) < 1e-12
    assert ver.r1_witness[1] == [1.0] and ver.r2_witness[1] == [1.0]
    assert abs(ver.sandwich_min - 1.0) < 1e-12
    assert abs(ver.sandwich_max - 1.0) < 1e-12
    assert ver.sandwich_pass and not ver.sandwich_gated
    # uncertified parameters: the ratio bound is measured but not claimed
    assert ver.ratio_bound is None and ver.ratio_pass is None
    assert abs(ver.ratio_max_dev - 2.0 / 11.0) < 1e-12
    assert ver.structural_ok and ver.norms_ok and ver.coverage_ok


def test_covariance_inequality_oracles(sym, iid2):
    c1 = covariance_inequality_check(sym, [1], [2], p=4)
    assert abs(c1.cov_abs - 0.5) < 1e-12
    assert abs(c1.bound - 8 * 0.125**0.5) < 1e-12
    assert c1.passes and c1.exact
    c2 = covariance_inequality_check(sym, [1], [3], p=4)
    assert abs(c2.cov_abs - 0.25) < 1e-12 and abs(c2.bound - 2.0) < 1e-12
    c0 = covariance_inequality_check(iid2, [(1, 4)], [(6, 8)], p=4)
    assert c0.cov_abs < 1e-14 and c0.passes


def test_plan_partition_sym(sym):
    part, plan = plan_partition(sym, min_blocks=3)
    assert plan.r == 15
    assert abs(plan.q0 - 35.0027622833937) < 1e-3
    assert abs(plan.amplitude - 6999.7) < 5.0
    assert part.count >= 3 and part.r_certified and part.a_certified
    ver = verify_partition(sym, part)
    assert ver.sandwich_gated and ver.sandwich_pass
    assert ver.ratio_hypotheses and ver.ratio_pass
    assert ver.structural_ok
    doc = plan.to_doc()
    assert doc["r"] == 15 and doc["amplitude"] == plan.amplitude


def test_plan_partition_iid(iid2):
    part, plan = plan_partition(iid2, min_blocks=3)
    assert plan.r == 1 and plan.amplitude == 1.0
    assert part.blocks[0] == (1, 1) and part.blocks[1] == (3, 3)
    ver = verify_partition(iid2, part)
    assert ver.sandwich_pass and ver.sandwich_gated
    assert not ver.ratio_hypotheses  # A = 1 never reaches the A > 1 gate
    assert abs(ver.ratio_max_dev - 0.5) < 1e-12


def test_partition_doc_round_trip(iid2):
    part = build_blocks(iid2, 9.0, 2, 200)
    doc = part.to_doc()
    assert doc["amplitude"] == 9.0 and doc["r"] == 2
    assert doc["blocks"][0] == [1, 9]
    assert len(doc["blocks"]) == part.count and doc["cover_end"] == part.cover_end
    assert doc["certified"] is False  # manual A and r carry no certificates
    assert doc["r_certified"] is False and doc["amplitude_certified"] is False
    assert doc["block_l2_norms"] == [3.0] * part.count


def _pair_covs(chain, n: int) -> np.ndarray:
    """Cov(X_i, X_j) for 1 <= i, j <= n, shape (n, d, n, d), from the exact
    pair laws diag(marginal_i) K_i ... K_{j-1}, one lag at a time."""
    marg = np.stack([chain.marginal(t) for t in range(1, n + 1)])
    obs = np.stack([chain.obs(t) for t in range(1, n + 1)])
    kern = np.stack([chain.kernel(t) for t in range(1, n)])
    mean = np.einsum("ts,tsd->td", marg, obs)
    out = np.zeros((n, chain.d, n, chain.d))
    idx = np.arange(n)
    out[idx, :, idx, :] = np.einsum("tsd,ts,tse->tde", obs, marg, obs) - np.einsum(
        "td,te->tde", mean, mean
    )
    joint = marg[:, :, None] * np.eye(marg.shape[1])
    for lag in range(1, n):
        joint = joint[:-1] @ kern[lag - 1 :]
        c = np.einsum("isd,ist,ite->ide", obs[:-lag], joint, obs[lag:]) - np.einsum(
            "id,ie->ide", mean[:-lag], mean[lag:]
        )
        out[idx[:-lag], :, idx[lag:], :] = c
        out[idx[lag:], :, idx[:-lag], :] = c.transpose(0, 2, 1)
    return out


def _window_covs(pairs: np.ndarray, a: int, b: int, reverse: bool = False) -> np.ndarray:
    """Cov of the sums over [a, t] for t = a..b, or over [t, b] for t = b..a
    with reverse=True, shape (b - a + 1, d, d)."""
    blk = pairs[a - 1 : b, :, a - 1 : b, :]
    if reverse:
        blk = blk[::-1, :, ::-1, :]
    w = blk.cumsum(axis=0).cumsum(axis=2)
    idx = np.arange(b - a + 1)
    return w[idx, :, idx, :]


@pytest.mark.parametrize("name", ["kron4_d2", "chain3_d2", "corr_d2", "iid2_d2_zero"])
def test_verification_extrema_are_exact_over_the_sphere(name):
    ch = entry(name).build()
    part = build_blocks(ch, 300.0, 5, 1200)
    ver = verify_partition(ch, part)
    n = part.cover_end
    pairs = _pair_covs(ch, n)
    vn = _window_covs(pairs, 1, n)
    v_pairwise, _ = engine_for(ch).cov_partial_sum_pairwise(1, n)
    assert np.max(np.abs(vn[-1] - v_pairwise)) <= 1e-12 * np.max(np.abs(v_pairwise))

    grid = direction_grid(2, 64)
    covers = [(a, b + part.r) for a, b in part.blocks]
    prefix = [_window_covs(pairs, a, e) for a, e in covers]
    suffix = [_window_covs(pairs, a, e, reverse=True) for a, e in covers]
    kn = part.k_array(n)
    live = kn >= 1

    def on_sphere(v):  # (smallest, largest) eigenvalue of each matrix
        eig = np.linalg.eigvalsh(v)
        return eig[..., 0], eig[..., -1]

    def on_grid(v):  # (smallest, largest) u^T V u over the grid
        q = np.einsum("ud,...de,ue->...u", grid, v, grid)
        return q.min(axis=-1), q.max(axis=-1)

    def extrema(quad):
        lo_n, hi_n = quad(vn[live])
        return {
            "a1": min(math.sqrt(max(quad(p[-1])[0], 0.0)) for p in prefix),
            "a2": max(math.sqrt(quad(p)[1].max()) for p in prefix),
            "c": max(math.sqrt(quad(s)[1].max()) for s in suffix),
            "r1": float((lo_n / kn[live]).min()),
            "r2": float((hi_n / kn[live]).max()),
        }

    exact = extrema(on_sphere)
    gridded = extrema(on_grid)
    for key, want in exact.items():
        got = getattr(ver, key)
        assert abs(got - want) <= 1e-12 * abs(want), (key, got, want)
    # the grid never beats the sphere: infima from below, suprema from above
    for key in ("a1", "r1"):
        assert gridded[key] >= exact[key] * (1.0 - 1e-12), key
    for key in ("a2", "c", "r2"):
        assert gridded[key] <= exact[key] * (1.0 + 1e-12), key

    for (wn, u), r in ((ver.r1_witness, ver.r1), (ver.r2_witness, ver.r2)):
        u = np.asarray(u)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert abs(u @ vn[wn - 1] @ u / part.k_of(wn) - r) <= 1e-12 * abs(r)
