"""Mixing coefficients, contraction numbers, envelope fits, frequency gaps.

The symmetric reference chain has hand-enumerable coefficients: events over
single coordinates give alpha(k) = 0.25 * 0.5^k and phi(k) = 0.5 * 0.5^k.
The closed forms for alpha and phi are checked against a brute force over
every event pair and against cylinder events on two coordinates per side,
and the stacked pass over start times against pair_joint one start time at
a time.  A chain keeps its reports, so each is computed once.
"""
import itertools
import json
import math

import numpy as np
import pytest
from test_moments import small_random_chain

from asipkit import mixing
from asipkit.battery import battery, entry
from asipkit.blocks import plan_partition
from asipkit.chain import ChainConfigError, build_chain, pair_joint
from asipkit.cli import EXIT_INPUT, main
from asipkit.mixing import (
    Envelope,
    _alpha_phi_pair,
    _check_event_cap,
    alpha_phi,
    condition_h_gap,
    condition_h_profile,
    dobrushin_coefficient,
    fit_envelope,
    mixing_report,
    rho_coefficient,
)
from asipkit.verify import verify_chain


def test_alpha_phi_hand_oracles(sym):
    a1, p1 = alpha_phi(sym, 1, range(1, 9))
    assert a1 == 0.125 and p1 == 0.25
    a2, p2 = alpha_phi(sym, 2, range(1, 9))
    assert a2 == 0.0625 and abs(p2 - 0.125) < 1e-15


def test_alpha_phi_across_pass_chunks(sym):
    # 10,000 start times span three stacked chunks of the pass
    for k in (1, 2):
        assert alpha_phi(sym, k, range(1, 10001)) == (0.25 * 0.5**k, 0.5 * 0.5**k)


def _brute_alpha_phi(joint):
    """max |P(A and B) - P(A) P(B)| and its largest ratio to P(A) > 0, over
    every pair of events A, B."""
    p, q = joint.sum(axis=1), joint.sum(axis=0)
    alpha = phi = 0.0
    for a in itertools.product((False, True), repeat=joint.shape[0]):
        a = np.array(a)
        pa = p[a].sum()
        for b in itertools.product((False, True), repeat=joint.shape[1]):
            b = np.array(b)
            dev = abs(joint[np.ix_(a, b)].sum() - pa * q[b].sum())
            alpha = max(alpha, dev)
            if pa > 0:
                phi = max(phi, dev / pa)
    return alpha, phi


def test_alpha_phi_closed_forms_match_event_enumeration():
    for e in battery():
        chain = e.build()
        for j in (1, 4, 8):
            for k in range(1, 13):
                got = alpha_phi(chain, k, [j])
                want = _brute_alpha_phi(pair_joint(chain, j, j + k).matrix)
                assert np.allclose(got, want, rtol=0.0, atol=1e-14), (e.name, j, k)
    rng = np.random.default_rng(11)
    for _ in range(300):
        na, nb = (int(x) for x in rng.integers(1, 6, size=2))
        joint = rng.random((na, nb)) * (rng.random((na, nb)) < 0.7)
        joint[rng.integers(na)] = 0.0
        joint[:, rng.integers(nb)] = 0.0
        joint[rng.integers(na), rng.integers(nb)] += 0.5
        joint /= joint.sum()
        got = _alpha_phi_pair(joint)
        assert np.allclose(got, _brute_alpha_phi(joint), rtol=0.0, atol=1e-14), joint


def test_stacked_pass_matches_pair_joint():
    # state counts change along the explicit chain, so start times split
    # into groups by kernel shapes; leaky3_delta has zero-mass states
    cases = [
        (small_random_chain([2, 3, 2, 2, 3, 3, 2, 3], 1, 8), [4, 1, 3, 1, 2, 4], 4),
        (entry("leaky3_delta").build(), [7, 3, 3, 1, 12, 5, 1, 2], 12),
    ]
    for chain, j_range, k_max in cases:
        rep = mixing_report(chain, k_max=k_max, j_probe=j_range)
        for k in range(1, k_max + 1):
            laws = [pair_joint(chain, j, j + k).matrix for j in j_range]
            pairs = [_alpha_phi_pair(joint) for joint in laws]
            got = alpha_phi(chain, k, j_range)
            assert got == tuple(max(col) for col in zip(*pairs)), k
            # the report's stacked gaps give the same floats
            assert (rep.alpha[k - 1], rep.phi[k - 1]) == got, k
            want = [max(col) for col in zip(*map(_brute_alpha_phi, laws))]
            assert np.allclose(got, want, rtol=0.0, atol=1e-14), k
        assert rep.pi == [dobrushin_coefficient(chain, j) for j in j_range]
        assert rep.rho == [rho_coefficient(chain, j) for j in j_range]


# six times: too short for the default k_max = 12
SHORT_DOC = {
    "kernels": [[[0.75, 0.25], [0.25, 0.75]]] * 5,
    "initial": [0.5, 0.5],
    "observable": {"constant": [[1.0], [-1.0]]},
    "L": 1.0,
}


def test_mixing_report_fails_fast_on_short_horizons(tmp_path, capsys):
    msg = "k_max=12 from start time j=1 passes the horizon 6"
    with pytest.raises(ChainConfigError, match=msg):
        mixing_report(build_chain(SHORT_DOC))
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_DOC))
    assert main(["mixing", "--chain", str(path), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert msg in capsys.readouterr().err


def test_stacked_gaps_at_many_start_times():
    # 256 start times of a 3-state explicit chain: one gap's laws fill more
    # than half of GAP_STACK_CAP, so every gap is a stack of its own
    chain = small_random_chain([3] * 300, 1, 3)
    rep = mixing_report(chain, k_max=40, j_probe=range(1, 257))
    for k in range(1, 41):
        assert (rep.alpha[k - 1], rep.phi[k - 1]) == alpha_phi(chain, k, range(1, 257)), k


def test_mixing_report_is_computed_once_per_chain(monkeypatch):
    passes = []
    groups = mixing._pair_groups

    def counted(chain, starts, k_max):
        passes.append((k_max, starts.tolist()))
        return groups(chain, starts, k_max)

    monkeypatch.setattr(mixing, "_pair_groups", counted)
    chain = entry("sym2_p02").build()
    rep = mixing_report(chain)
    assert mixing_report(chain) is rep
    plan_partition(chain)
    assert passes == [(12, list(range(1, 9)))]
    assert mixing_report(chain, j_probe=range(1, 9)) is rep

    passes.clear()
    verify_chain("sym2_p02")
    # covariance_inequality_check's alpha_phi(chain, r, ...) is the other pass
    assert [p for p in passes if p[0] == 12] == [(12, list(range(1, 9)))]

    passes.clear()
    assert mixing_report(chain, k_max=6) is not rep
    assert mixing_report(chain, j_probe=[2, 1]) is not rep
    fresh = mixing_report(entry("sym2_p02").build())
    assert fresh is not rep and fresh == rep
    assert [k for k, _ in passes] == [6, 12, 12]

    passes.clear()
    short = build_chain(SHORT_DOC)
    for _ in range(2):
        with pytest.raises(ChainConfigError, match="passes the horizon 6"):
            mixing_report(short)
    assert passes == [] and short._mixing_reports == {}


def test_event_cap_on_the_smaller_side():
    assert _alpha_phi_pair(np.full((9, 9), 1.0 / 81.0)) == (0.0, 0.0)
    # the cap bounds 2^min(na, nb) * max(na, nb); 2^12 * 16 meets it exactly
    assert np.allclose(_alpha_phi_pair(np.full((16, 12), 1.0 / 192.0)), 0.0, atol=1e-15)
    for shape in ((12, 17), (13, 13)):
        with pytest.raises(ChainConfigError, match="exceeds cap"):
            _alpha_phi_pair(np.full(shape, 1.0 / np.prod(shape)))


def alpha_phi_windowed(chain, k: int, j_range) -> tuple[float, float]:
    """Oracle: events are cylinders on the two consecutive coordinates
    ending at j (one at j = 1) and the two starting at j+k."""
    alpha = phi = 0.0
    for j in j_range:
        past = list(range(max(1, j - 1), j + 1))
        future = [j + k, j + k + 1]
        a, p = _alpha_phi_pair(_cylinder_joint(chain, past, future))
        alpha = max(alpha, a)
        phi = max(phi, p)
    return alpha, phi


def _cylinder_joint(chain, past, future) -> np.ndarray:
    """Joint law of (path on past times, path on future times), flattened."""
    times = past + future
    sizes = [chain.state_size(t) for t in times]
    na = int(np.prod(sizes[: len(past)]))
    nb = int(np.prod(sizes[len(past) :]))
    _check_event_cap(na, nb)
    joint = np.zeros((na, nb))
    for path in itertools.product(*[range(s) for s in sizes]):
        pr = chain.marginal(times[0])[path[0]]
        for a, b, xa, xb in zip(times[:-1], times[1:], path[:-1], path[1:]):
            step = chain.step_matrix(a, b) if b > a + 1 else chain.kernel(a)
            pr *= step[xa, xb]
        if pr == 0.0:
            continue
        ia = ib = 0
        for s, x in zip(sizes[: len(past)], path[: len(past)]):
            ia = ia * s + x
        for s, x in zip(sizes[len(past) :], path[len(past) :]):
            ib = ib * s + x
        joint[ia, ib] += pr
    return joint


def test_alpha_phi_windowed_agrees_with_pairs(sym):
    aw, pw = alpha_phi_windowed(sym, 3, range(2, 6))
    a3, p3 = alpha_phi(sym, 3, range(1, 9))
    assert abs(aw - a3) < 1e-12 and abs(pw - p3) < 1e-12
    # three states, delta start; at j = 1 the past window is one time, so
    # the cylinder law is 3 x 9
    leaky = entry("leaky3_delta").build()
    for k in (1, 2, 5):
        aw, pw = alpha_phi_windowed(leaky, k, range(1, 6))
        ap, pp = alpha_phi(leaky, k, range(1, 6))
        assert abs(aw - ap) < 1e-12 and abs(pw - pp) < 1e-12


def test_alpha_phi_iid_zero(iid2):
    a, p = alpha_phi(iid2, 1, range(1, 5))
    assert a == 0.0 and p == 0.0


def test_contraction_oracles(sym, iid2):
    assert dobrushin_coefficient(sym, 1) == 0.5
    assert abs(rho_coefficient(sym, 3) - 0.5) < 1e-12
    assert rho_coefficient(iid2, 1) < 1e-14
    assert dobrushin_coefficient(iid2, 2) == 0.0


def test_envelope_fit_recovers_geometric_decay():
    alphas = {k: 0.25 * 0.5**k for k in range(1, 13)}
    phis = {k: 0.5 * 0.5**k for k in range(1, 13)}
    env, n0 = fit_envelope(alphas, phis)
    assert abs(env.delta - 0.5) < 1e-9 and abs(env.c - 0.25) < 1e-9
    assert n0 == 1 and not env.degenerate
    # envelope dominates the data it was fitted on
    for k, a in alphas.items():
        assert env.c * env.delta**k >= a - 1e-15


def test_envelope_degenerate_case():
    env, n0 = fit_envelope({k: 0.0 for k in range(1, 13)}, {1: 0.0})
    assert env.degenerate and env.c == 0.0 and n0 == 1


def test_envelope_geometric_tail_closed_form():
    env = fit_envelope({1: 0.5, 2: 0.25, 3: 0.125})[0]
    q = env.delta ** (17 * 0.5)
    expect = env.c**0.5 * q / (1 - q)
    assert math.isclose(env.geometric_tail(17, 0.5), expect, rel_tol=1e-12)
    assert Envelope(c=0.0, delta=0.5, degenerate=True).geometric_tail(3, 0.5) == 0.0


def test_condition_h_gap_closed_form(sym):
    # single-coordinate groups at distance j-1 with t = pi/2: gap = 0.5^(j-1)
    for j in (2, 3, 4):
        g = condition_h_gap(
            sym, [(1, 1, 0)], [(j, j, 1)],
            [np.array([np.pi / 2]), np.array([np.pi / 2])],
        )
        assert abs(g - 0.5 ** (j - 1)) < 1e-14


def test_condition_h_gap_iid_exact_zero(iid2):
    g = condition_h_gap(
        iid2, [(1, 2, 0), (3, 4, 1)], [(7, 7, 2)],
        [np.array([0.3]), np.array([0.7]), np.array([0.5])],
    )
    assert g == 0.0


def test_condition_h_profile(sym, iid2):
    prof = condition_h_profile(sym)
    assert prof.decays and prof.c_prime is not None and prof.c_prime > 0
    # fitted decay rate tracks -ln(second kernel eigenvalue) = ln 2
    assert abs(prof.c_prime - math.log(2.0)) < 0.05
    prof0 = condition_h_profile(iid2)
    assert prof0.all_zero and prof0.decays
    assert all(g == 0.0 for _, g in prof0.gaps)


def test_mixing_report_identities(sym):
    rep = mixing_report(sym)
    rep.check_identities()
    assert rep.delta_pi == 0.5
    assert abs(rep.rho_sup - 0.5) < 1e-12
    assert rep.n0 == 1
    assert rep.alpha[0] == 0.125 and rep.phi[0] == 0.25
    # alpha dominated by phi at every lag
    for a, p in zip(rep.alpha, rep.phi):
        assert a <= p + 1e-15
    # a generic stay probability, where alpha(k) / delta^k rounds to a c one
    # ulp short of dominating alpha(k)
    stay = (1.0 + 0.645873181125018) / 2.0
    mixing_report(build_chain({
        "kernels": {"periodic": [[[stay, 1.0 - stay], [1.0 - stay, stay]]]},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    })).check_identities()


def test_n0_not_found_for_slow_chain():
    rep = mixing_report(entry("slow2").build())
    assert rep.n0 is None
    assert rep.phi[0] > 0.5


def test_report_aligned_lags(sym):
    rep = mixing_report(sym)
    assert len(rep.alpha) == len(rep.phi) == len(rep.ks)
    assert rep.ks[0] == 1 and not rep.envelope.degenerate
    # per-time contraction rows match the direct coefficients
    for j, pi_j, rho_j in zip(rep.j_probe, rep.pi, rep.rho):
        assert pi_j == dobrushin_coefficient(sym, j)
        assert rho_j == rho_coefficient(sym, j)
