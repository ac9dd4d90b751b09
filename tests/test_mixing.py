"""Mixing coefficients, contraction numbers, envelope fits, frequency gaps.

The symmetric reference chain has hand-enumerable coefficients: events over
single coordinates give alpha(k) = 0.25 * 0.5^k and phi(k) = 0.5 * 0.5^k.
"""
import math

import numpy as np
import pytest

from asipkit.battery import entry
from asipkit.chain import build_chain
from asipkit.mixing import (
    Envelope,
    alpha_phi,
    alpha_phi_windowed,
    condition_h_gap,
    condition_h_profile,
    dobrushin_coefficient,
    fit_envelope,
    mixing_report,
    rho_coefficient,
)


def test_alpha_phi_hand_oracles(sym):
    a1, p1 = alpha_phi(sym, 1, range(1, 9))
    assert a1 == 0.125 and p1 == 0.25
    a2, p2 = alpha_phi(sym, 2, range(1, 9))
    assert a2 == 0.0625 and abs(p2 - 0.125) < 1e-15


def test_alpha_phi_windowed_agrees_with_pairs(sym):
    aw, pw = alpha_phi_windowed(sym, 3, range(2, 6), width=2)
    a3, p3 = alpha_phi(sym, 3, range(1, 9))
    assert abs(aw - a3) < 1e-12 and abs(pw - p3) < 1e-12


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
        assert abs(rho_j - rho_coefficient(sym, j)) < 1e-12
