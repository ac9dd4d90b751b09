"""The built-in chain battery: coverage, contraction span, exact centering."""
import numpy as np
import pytest

from asipkit.battery import DEFAULT_NAMES, EXTRA_NAMES, battery, entry
from asipkit.chain import ChainConfigError
from asipkit.mixing import alpha_phi, dobrushin_coefficient, mixing_report
from asipkit.moments import engine_for

CONTRACTION_ORACLES = {
    "sym2_p00": 0.0,
    "sym2_p05": 0.5,
    "sym2_p09": 0.9,
    "asym2": 0.5,
    "leaky3": 0.85,
    "kron4_d2": 0.5,
}


def test_battery_size_and_tags():
    entries = battery()
    assert len(entries) >= 20
    assert len(battery(tags=["mixing"])) + len(battery(tags=["iid"])) == len(entries)
    assert set(EXTRA_NAMES) & set(DEFAULT_NAMES) == set()


def test_battery_spans_sizes_and_dimensions():
    sizes = {entry(n).build().state_size(1) for n in DEFAULT_NAMES}
    ds = {entry(n).build().d for n in DEFAULT_NAMES}
    assert sizes == {2, 3, 4} and ds == {1, 2}


def test_contraction_span():
    pis = {}
    for e in battery():
        ch = e.build()
        assert ch.name == e.name
        pis[e.name] = round(max(dobrushin_coefficient(ch, j) for j in range(1, 6)), 6)
    for name, pi in CONTRACTION_ORACLES.items():
        assert pis[name] == pi, name
    assert max(pis.values()) <= 0.9  # every battery kernel contracts


def test_exact_centering():
    # stationary-start entries have exactly centered observables at all times
    for e in battery():
        if "nonstationary" in e.tags:
            continue
        ch = e.build()
        for t in (1, 2, 7, 40):
            assert np.abs(ch.marginal(t) @ ch.obs(t)).max() < 1e-14, (e.name, t)


def test_asym2_invariant_start():
    ch = entry("asym2").build()
    for t in (2, 5, 17):
        np.testing.assert_allclose(ch.marginal(t), [0.8, 0.2], atol=1e-15)


def test_iid_entries_have_zero_coefficients():
    for name in ("sym2_p00", "iid2_scaled", "iid2_d2_zero"):
        a, p = alpha_phi(entry(name).build(), 3, range(1, 5))
        assert a == 0.0 and p == 0.0, name


def test_degenerate_direction_entry():
    eng = engine_for(entry("iid2_d2_zero").build())
    ev = np.linalg.eigvalsh(eng.v_matrix(50))
    assert abs(ev[0]) < 1e-12 and ev[1] > 0
    assert eng.s_value(50) == 0.0


def test_n0_landmarks():
    rep = mixing_report(entry("leaky3").build())
    assert rep.n0 is not None and rep.n0 <= 4
    slow = mixing_report(entry("slow2").build())
    assert slow.n0 is None  # phi stays above 1/2 over the scanned lags


def test_unknown_entry_raises_with_catalog():
    with pytest.raises(ChainConfigError, match="sym2_p05"):
        entry("no_such_chain")


def test_tag_filters():
    for e in battery(tags=["multidim"]):
        assert e.build().d > 1
    names = {e.name for e in battery(exclude=("iid",))}
    assert "sym2_p00" not in names and "sym2_p05" in names
