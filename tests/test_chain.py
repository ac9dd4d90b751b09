"""Chain documents: parsing, validation, and exact marginal laws."""
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asipkit.battery import entry
from asipkit.chain import (
    ChainConfigError,
    ChainSpec,
    ExplicitKernels,
    MixtureKernels,
    ObservableSchedule,
    PeriodicKernels,
    build_chain,
    pair_joint,
    walk,
)

SYM_K = [[0.75, 0.25], [0.25, 0.75]]
CHAINS = Path(__file__).resolve().parents[1] / "chains"


def test_parse_reference_chain(sym):
    assert sym.name == "sym_ref"
    assert sym.d == 1 and sym.L == 1.0
    assert sym.max_time is None  # periodic schedule is unbounded
    assert sym.state_size(1) == 2 and sym.state_size(97) == 2
    np.testing.assert_allclose(sym.kernel(5), SYM_K)


def test_marginal_propagation():
    ch = build_chain({
        "kernels": {"periodic": [SYM_K]},
        "initial": [0.9, 0.1],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    })
    np.testing.assert_allclose(ch.marginal(2), [0.7, 0.3], atol=1e-15)
    # geometric relaxation to uniform: deviation halves each step
    for n in range(1, 12):
        assert abs(ch.marginal(n)[0] - 0.5 - 0.4 * 0.5 ** (n - 1)) < 1e-14
    assert abs(float(ch.marginal(7).sum()) - 1.0) < 1e-14


def test_periodic_kernels_cycle():
    k2 = [[0.8, 0.2], [0.2, 0.8]]
    ch = build_chain({
        "kernels": {"periodic": [SYM_K, k2]},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    })
    np.testing.assert_allclose(ch.kernel(1), SYM_K)
    np.testing.assert_allclose(ch.kernel(2), k2)
    np.testing.assert_allclose(ch.kernel(3), ch.kernel(1))
    np.testing.assert_allclose(ch.kernel(40), k2)


def test_mixture_weights_linear_and_clip():
    k0 = [[1.0, 0.0], [0.0, 1.0]]
    k1 = [[0.5, 0.5], [0.5, 0.5]]
    mk = MixtureKernels(k0, k1, {"kind": "linear", "start": 0.0, "end": 1.0, "length": 4})
    assert mk.weight(1) == 0.0
    assert mk.weight(3) == 0.5
    assert mk.weight(5) == 1.0
    assert mk.weight(50) == 1.0  # clipped past the ramp
    np.testing.assert_allclose(mk.kernel(3), 0.5 * np.array(k0) + 0.5 * np.array(k1))
    # past the ramp every step shares the kernel of step length + 1
    for j in range(1, 10_001):
        mk.kernel(j)
    assert mk.kernel(6) is mk.kernel(5) and mk.kernel(10_000) is mk.kernel(5)
    assert len(mk._cache) <= 5
    assert np.array_equal(mk.kernel(5_000), np.array(k1))


def test_mixture_ramp_with_a_fractional_length():
    k0 = [[1.0, 0.0], [0.0, 1.0]]
    k1 = [[0.5, 0.5], [0.5, 0.5]]
    mk = MixtureKernels(k0, k1, {"kind": "linear", "start": 0.0, "end": 1.0, "length": 2.5})
    assert [mk.weight(j) for j in range(1, 6)] == [0.0, 0.4, 0.8, 1.0, 1.0]
    assert mk.repeats() == (4, 1)
    assert mk.kernel(4) is mk.kernel(5) and mk.kernel(1000) is mk.kernel(4)
    assert np.array_equal(mk.kernel(4), np.array(k1))


def test_mixture_weights_constant_and_cosine():
    k0 = [[0.9, 0.1], [0.1, 0.9]]
    k1 = [[0.5, 0.5], [0.5, 0.5]]
    mc = MixtureKernels(k0, k1, {"kind": "constant", "value": 0.25})
    np.testing.assert_allclose(mc.kernel(9), 0.75 * np.array(k0) + 0.25 * np.array(k1))
    assert mc.kernel(9) is mc.kernel(1)
    mw = MixtureKernels(k0, k1, {"kind": "cosine", "center": 0.5, "amplitude": 0.5, "period": 4})
    assert abs(mw.weight(1) - 1.0) < 1e-15  # cos(0) = 1
    assert abs(mw.weight(2) - 0.5) < 1e-15
    assert abs(mw.weight(3) - 0.0) < 1e-15
    # an integer period repeats in floats: the weight of step j is that of
    # its phase (j - 1) mod 4, and the memo holds one kernel per phase
    assert mw.repeats() == (1, 4)
    assert all(mw.weight(j) == mw.weight((j - 1) % 4 + 1) for j in range(1, 60))
    assert mw.kernel(4003) is mw.kernel(3) and len(mw._cache) == 1
    assert mw.stack(1, 9).tobytes() == np.stack([mw.kernel(j) for j in range(1, 10)]).tobytes()
    assert MixtureKernels(k0, k1, {"kind": "cosine", "period": 3.7}).repeats() is None
    with pytest.raises(ChainConfigError):
        MixtureKernels(k0, k1, {"kind": "constant", "value": 1.5}).kernel(1)
    with pytest.raises(ChainConfigError):
        MixtureKernels(k0, k1, {"kind": "sawtooth"})


def test_mixture_kernels_of_weights_that_never_repeat_are_not_kept():
    # a cosine of non-integer period weighs every step anew: kernel(j) is
    # the floats of stack(j, 1)[0], and a long marginal fill keeps none
    mixture = {"base": [SYM_K, [[0.5, 0.5], [0.5, 0.5]]], "weights": {"kind": "cosine", "period": 3.7}}
    ch = build_chain({"kernels": {"mixture": mixture}, "initial": [0.5, 0.5],
                      "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0})
    mk = ch.kernels
    ch.marginal(20_000)
    assert mk.repeats() is None and ch.cycle is None and mk._cache == {}
    for j in (1, 2, 3, 4, 17, 19_999):
        assert mk.kernel(j).tobytes() == mk.stack(j, 1)[0].tobytes()
    assert mk._cache == {}


def test_marginal_table_fill_keeps_the_lazy_weight_error():
    # the fill reads kernels as stacks, yet a weight outside [0, 1] raises
    # only when a law needs its step, with the error of kernel(j), and the
    # table stays good to the last law asked for
    mixture = {"base": [SYM_K, [[0.5, 0.5], [0.5, 0.5]]],
               "weights": {"kind": "linear", "start": 0.0, "end": 1.5, "length": 4}}
    ch = build_chain({"kernels": {"mixture": mixture}, "initial": [0.9, 0.1],
                      "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0})
    msg = "mixture weight 1.125 at step 4 outside [0, 1]"
    with pytest.raises(ChainConfigError, match=re.escape(msg)):
        ch.kernel(4)
    with pytest.raises(ChainConfigError, match=re.escape(msg)):
        ch.marginal(10)
    want = ch.initial @ ch.kernel(1) @ ch.kernel(2)
    assert ch.marginal(3).tobytes() == want.tobytes()


def test_explicit_horizon_limits():
    ks = ExplicitKernels([SYM_K, SYM_K, SYM_K])
    assert ks.n_steps == 3
    ch = ChainSpec(
        kernels=ks,
        observable=ObservableSchedule.constant([[1.0], [-1.0]]),
        initial=[0.5, 0.5],
        L=1.0,
    )
    assert ch.max_time == 4
    ch.marginal(4)
    with pytest.raises(ChainConfigError, match="outside horizon"):
        ch.marginal(5)
    with pytest.raises(ChainConfigError, match="outside explicit horizon"):
        ks.kernel(4)


# explicit kernel lists: every fault names its kernel and row, and a list
# with several faults reports the first faulty kernel
_NEG = [[1.2, -0.2], [0.25, 0.75]]
_SUM = [[0.75, 0.25], [0.3, 0.75]]
_NAN = [[float("nan"), 0.5], [0.25, 0.75]]
_K23 = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]
_K33 = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]
_K33_SUM = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.1, 0.2, 0.8]]
_K33_OK = [[0.6, 0.2, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]
_K32 = [[0.5, 0.5], [0.2, 0.8], [0.1, 0.9]]


def _tables(*rows):
    """One observable table per entry, of that many rows."""
    return [[[1.0]] * r for r in rows]


def _mixture(rule):
    return {"kernels": {"mixture": {"base": [SYM_K, SYM_K], "weights": rule}}}


@pytest.mark.parametrize(
    "patch,msg",
    [
        ({"initial": [0.6, 0.6]}, "mass"),
        ({"kernels": {"periodic": [[[1.2, -0.2], [0.25, 0.75]]]}}, "negative"),
        ({"kernels": {"periodic": [[[0.7, 0.2], [0.25, 0.75]]]}}, "!= 1"),
        ({"observable": {"constant": [[3.0], [-1.0]]}}, "exceeds declared bound"),
        ({"observable": {"constant": [[1.0, 0.0], [0.0, 1.0]]}}, "dimension"),
        ({"L": 0.0}, "must be positive"),
        ({"kernels": [SYM_K, _NEG, SYM_K]}, "kernel 2: row 0 has a negative entry"),
        ({"kernels": [SYM_K, SYM_K, _SUM]}, "kernel 3: row 1 sum "),
        ({"kernels": [SYM_K, _NAN]}, "kernel 2: non-finite entries"),
        ({"kernels": [SYM_K, _K23, SYM_K]}, "kernel 2 has 3 columns but kernel 3 has 2 rows"),
        ({"kernels": [_K23, _K23]}, "kernel 1 has 3 columns but kernel 2 has 2 rows"),
        ({"kernels": [SYM_K, _SUM, SYM_K, _NEG]}, "kernel 2: row 1 sum "),
        ({"kernels": [SYM_K, _SUM, _NAN]}, "kernel 2: row 1 sum "),
        ({"kernels": [SYM_K, _K23, _K33_SUM, _NEG]}, "kernel 3: row 2 sum "),
        ({"kernels": [_NEG, [[0.9, 0.1], [0.1]]]}, "kernel 1: row 0 has a negative entry"),
        ({"kernels": [SYM_K, [0.5, 0.5]]}, "kernel 2: expected a 2-d matrix, got shape (2,)"),
        (_mixture({"kind": "linear", "start": 1.0, "end": 0.0, "length": 0}), "length 0.0 < 1"),
        (_mixture({"kind": "cosine", "period": 0}), "period 0.0 <= 0"),
        (_mixture({"kind": "linear", "start": 1.0, "end": 0.0}), "needs 'length'"),
        (_mixture({"kind": "constant"}), "needs 'value'"),
        (_mixture({"kind": "constant", "value": "abc"}), "value 'abc' is not a finite number"),
        # observable rows against state counts, checked at build for the
        # first bad time, also where the cycles of kernels and tables differ
        ({"observable": {"periodic": [[[1.0], [-1.0]], [[1.0], [0.0], [-1.0]]]}},
         "observable at time 2 has 3 rows, state space has 2"),
        ({"observable": {"constant": _tables(3)[0]}}, "observable at time 1 has 3 rows, state space has 2"),
        ({"kernels": [SYM_K, _K23, _K33], "observable": _tables(2, 2, 2, 2)},
         "observable at time 3 has 2 rows, state space has 3"),
        ({"kernels": {"periodic": [_K23, _K32]}, "observable": {"periodic": _tables(2, 3, 2, 2)}},
         "observable at time 4 has 2 rows, state space has 3"),
        ({"kernels": {"periodic": [_K23, _K33, _K32]}, "observable": {"periodic": _tables(2, 3)}},
         "observable at time 3 has 2 rows, state space has 3"),
        # with no d declared, every table has the dimension of table 1
        ({"d": None, "observable": {"periodic": [[[1.0], [-1.0]], [[1.0, 0.0], [0.0, 1.0]]]}},
         "observable 2: value dimension 2 != 1 of observable 1"),
        ({"d": None, "observable": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]]]},
         "observable 3: value dimension 1 != 2 of observable 1"),
        # the bound is checked one shape at a time, yet the first table is named
        ({"kernels": [SYM_K, _K23, _K32], "observable": [[[1.0], [0.0]], [[1.0], [0.0]],
                                                         [[0.0], [2.0], [0.0]], [[3.0], [0.0]]]},
         "observable table 3 exceeds declared bound L=1.0 (max |f| = "),
    ],
)
def test_document_validation_errors(patch, msg):
    doc = {
        "kernels": {"periodic": [SYM_K]},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
        "d": 1,
    }
    doc.update(patch)
    doc = {k: v for k, v in doc.items() if v is not None}  # a field patched to None is left out
    with pytest.raises(ChainConfigError, match=re.escape(msg)):
        build_chain(doc)


def test_explicit_kernels_across_state_count_changes():
    # 2x2, 2x2, 2x3, 3x3, 3x3, 3x1: four runs of equal shape; rows carry
    # negative entries inside the tolerance, which the check clips to 0
    # before it divides each row by its sum
    k23 = [[0.5 + 1e-13, 0.5, -1e-13], [0.2, 0.3, 0.5]]
    k33 = [[0.5, 0.25, 0.25], [-1e-13, 0.3 + 1e-13, 0.7], [0.1, 0.1, 0.8]]
    raw = [SYM_K, [[0.9, 0.1], [0.3, 0.7]], k23, k33, _K33, [[1.0], [1.0], [1.0]]]
    ks = ExplicitKernels(raw)
    assert ks.n_steps == len(raw)
    for j, k in enumerate(raw, start=1):
        want = np.clip(np.asarray(k), 0, None)
        want = want / want.sum(axis=1, keepdims=True)
        got = ks.kernel(j)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ks.kernel(j) is got


def _assert_stack_reads_kernels(ks, j, k, length):
    """ks.stack(j, k) holds `length` kernels, the bytes of kernel(j), ...,
    and a shorter stack ends where the shape changes.  An observable's
    stack(j, j + k - 1) holds the bytes of table(j), ..., table(j + k - 1),
    or raises ValueError where the state count changes (length < k)."""
    observable = isinstance(ks, ObservableSchedule)
    read = ks.table if observable else ks.kernel
    if length < k:
        assert read(j + length).shape != read(j).shape
        if observable:
            with pytest.raises(ValueError):
                ks.stack(j, j + k - 1)
            return
    got = ks.stack(j, j + k - 1) if observable else ks.stack(j, k)
    assert len(got) == length
    for i, m in enumerate(got):
        want = read(j + i)
        assert m.shape == want.shape and m.tobytes() == want.tobytes()


def test_kernel_stacks_read_the_kernels():
    k23 = [[0.5 + 1e-13, 0.5, -1e-13], [0.2, 0.3, 0.5]]
    k21 = [[1.0], [1.0]]
    # shapes 2x2, 2x2, 2x3, 3x3, 3x3, 3x2, 2x2, 2x1: the 2x2 kernels sit in
    # two runs of one stack
    ks = ExplicitKernels([SYM_K, [[0.9, 0.1], [0.3, 0.7]], k23, _K33, _K33_OK, _K32,
                          [[0.8, 0.2], [0.4, 0.6]], k21])
    for j, k, length in [(1, 8, 2), (2, 5, 1), (3, 4, 1), (4, 3, 2), (4, 1, 1), (5, 4, 1),
                         (7, 2, 1), (7, 1, 1), (8, 1, 1)]:
        _assert_stack_reads_kernels(ks, j, k, length)
    with pytest.raises(ChainConfigError, match="kernel index 9 outside explicit horizon 8"):
        ks.stack(7, 3)
    with pytest.raises(ChainConfigError, match="kernel index 0 outside explicit horizon 8"):
        ks.stack(0, 2)
    # periodic: one shape wraps its period 3 over 8 kernels; shapes 2x2,
    # 2x3, 3x2, 2x2 run from the last phase into the first
    r = np.random.default_rng(5)
    three = r.random((3, 2, 2)) + 0.1
    three /= three.sum(axis=2, keepdims=True)
    _assert_stack_reads_kernels(PeriodicKernels(three.tolist()), 2, 8, 8)
    mixed = PeriodicKernels([SYM_K, _K23, _K32, [[0.9, 0.1], [0.3, 0.7]]])
    for j, k, length in [(1, 5, 1), (4, 3, 2), (8, 9, 2), (6, 1, 1), (3, 2, 1)]:
        _assert_stack_reads_kernels(mixed, j, k, length)
    with pytest.raises(ChainConfigError, match="kernel index 0 < 1"):
        mixed.stack(0, 2)
    # mixtures: a linear ramp across its flat step 5, and a cosine
    base = [[[0.9, 0.1], [0.1, 0.9]], [[0.3, 0.7], [0.6, 0.4]]]
    ramp = MixtureKernels(*base, {"kind": "linear", "start": 0.1, "end": 0.8, "length": 4})
    _assert_stack_reads_kernels(ramp, 2, 8, 8)
    cos = MixtureKernels(*base, {"kind": "cosine", "period": 3.7, "center": 0.5, "amplitude": 0.4})
    _assert_stack_reads_kernels(cos, 1, 100, 100)
    with pytest.raises(ChainConfigError, match="kernel index 0 < 1"):
        cos.stack(0, 1)
    over = MixtureKernels(*base, {"kind": "linear", "start": 0.0, "end": 1.5, "length": 4})
    for read in (lambda: over.stack(1, 10), lambda: over.kernel(4)):
        with pytest.raises(ChainConfigError, match=re.escape("weight 1.125 at step 4 outside")):
            read()


def test_observable_stacks_read_the_tables():
    r = np.random.default_rng(7)

    def tables(*rows):
        return [r.random((n, 2)).tolist() for n in rows]

    # a constant is a cycle of one table
    const = ObservableSchedule.constant(tables(2)[0])
    for j, k in [(1, 1), (3, 5)]:
        _assert_stack_reads_kernels(const, j, k, k)
    # one state count: windows inside one cycle and across cycles
    same = ObservableSchedule.periodic(tables(2, 2, 2))
    for j, k in [(1, 3), (2, 2), (2, 8), (5, 1)]:
        _assert_stack_reads_kernels(same, j, k, k)
    # state counts 2, 3, 2: the 2-row tables meet across the cycle's end
    mixed = ObservableSchedule.periodic(tables(2, 3, 2))
    for j, k, length in [(1, 1, 1), (1, 2, 1), (3, 2, 2), (3, 3, 2), (5, 1, 1), (5, 2, 1),
                         (6, 2, 2), (2, 7, 1)]:
        _assert_stack_reads_kernels(mixed, j, k, length)
    with pytest.raises(ChainConfigError, match="observable index 0 < 1"):
        mixed.stack(0, 1)
    # explicit: state counts 2, 2, 3, 3, 1
    listed = ObservableSchedule.explicit(tables(2, 2, 3, 3, 1))
    for j, k, length in [(1, 2, 2), (1, 3, 2), (3, 2, 2), (2, 4, 1), (4, 2, 1), (5, 1, 1)]:
        _assert_stack_reads_kernels(listed, j, k, length)
    with pytest.raises(ChainConfigError, match="observable index 6 outside explicit horizon 5"):
        listed.stack(5, 6)
    with pytest.raises(ChainConfigError, match="observable index 0 outside explicit horizon 5"):
        listed.stack(0, 1)


def test_observable_rows_across_state_count_cycles():
    # kernel cycle 2, table cycle 4: times meet only the phase pairs of equal
    # parity, where the counts agree
    ch = build_chain({
        "kernels": {"periodic": [_K23, _K32]},
        "initial": [0.5, 0.5],
        "observable": {"periodic": _tables(2, 3, 2, 3)},
        "L": 1.0,
    })
    assert all(ch.obs(j).shape[0] == ch.state_size(j) for j in range(1, 13))


@pytest.mark.parametrize("name", ["mixture2_ramp", "slow2"])
def test_marginal_table_matches_the_sequential_product(name):
    n = 100_000
    ch = build_chain(CHAINS / f"{name}.json")
    for j in (3, 1000, 70_000):  # fill in parts, growing the table
        ch.marginal(j)
    m, want = ch.initial, [ch.initial]
    for t in range(1, n):
        m = m @ ch.kernel(t)
        want.append(m)
    assert ch.marginals(np.arange(1, n + 1)).tobytes() == np.stack(want).tobytes()
    assert ch.marginal(n).tobytes() == want[-1].tobytes()


def test_marginal_table_across_state_count_changes():
    ch = build_chain({
        "kernels": [SYM_K, _K23, _K33, [[1.0], [1.0], [1.0]]],
        "initial": [0.3, 0.7],
        "observable": _tables(2, 2, 3, 3, 1),
        "L": 1.0,
    })
    assert ch.pieces(1, 5) == [(1, 2), (3, 4), (5, 5)]
    assert ch.pieces(2, 3) == [(2, 2), (3, 3)]
    assert ch.pieces(3, 4) == [(3, 4)] and ch.pieces(5, 5) == [(5, 5)]
    m = ch.initial
    for j in range(1, 6):
        assert ch.marginal(j).tobytes() == m.tobytes()
        if j < 5:
            m = m @ ch.kernel(j)
    with pytest.raises(ValueError, match="state count"):
        ch.marginals(np.array([2, 3]))
    got = ch.marginals(np.array([4, 3]))
    assert got.tobytes() == np.stack([ch.marginal(4), ch.marginal(3)]).tobytes()


def limit_cycle_doc(seed):
    """A random periodic chain; seed 386 gives 3 states, kernel period 1 and
    marginals that end in a float cycle of period 2 (71, 143 and 323 give
    cycles (28, 2), (30, 4) and (33, 2)).  Its constant observable has a
    nonzero mean."""
    r = np.random.default_rng(seed)
    s, p = r.integers(2, 6), r.integers(1, 4)
    k = r.random((p, s, s))
    k /= k.sum(axis=2, keepdims=True)
    init = r.random(s)
    return {
        "kernels": {"periodic": k.tolist()},
        "initial": (init / init.sum()).tolist(),
        "observable": {"constant": (r.random((s, 1)) + 0.5).tolist()},
        "L": 2.0,
    }


@pytest.mark.parametrize("chain, cycle", [
    (CHAINS / "slow2.json", (847, 1)),
    (entry("leaky3_delta").doc, (225, 1)),
    (CHAINS / "mixture2_ramp.json", (201, 1)),
    (entry("period2").doc, (1, 2)),
    # a float limit cycle of twice the kernel period
    (limit_cycle_doc(386), (23, 2)),
    # cosine weights of integer period repeat from step 1
    ({"kernels": {"mixture": {"base": [[[0.9, 0.1], [0.2, 0.8]], [[0.3, 0.7], [0.6, 0.4]]],
                              "weights": {"kind": "cosine", "period": 7}}},
      "initial": [0.5, 0.5], "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0}, (62, 7)),
])
def test_marginal_table_stops_at_its_float_cycle(chain, cycle):
    ch = build_chain(chain)
    m, want = ch.initial, [ch.initial]
    for t in range(1, 3000):
        m = m @ ch.kernel(t)
        want.append(m)
    assert ch.marginal(3000).tobytes() == want[-1].tobytes()
    c, p = cycle
    # the first time, from where the kernels repeat on, whose law comes back
    # P steps later bit for bit
    assert want[c - 1 + p].tobytes() == want[c - 1].tobytes()
    assert c == ch.kernels.repeats()[0] or want[c - 2 + p].tobytes() != want[c - 2].tobytes()
    assert ch.cycle == cycle and ch._known == c + p - 1
    assert ch.marginals(np.arange(1, 3001)).tobytes() == np.stack(want).tobytes()
    assert ch.pieces(1, 10**6) == [(1, 10**6)]


def test_explicit_schedules_keep_every_row():
    # each marginal equals the one before it, but explicit kernels report no
    # repeat, so no cycle is sought
    ch = build_chain({
        "kernels": [[[0.5, 0.5], [0.5, 0.5]]] * 300,
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    })
    assert ch.kernels.repeats() is None
    ch.marginal(301)
    assert ch._cycle is None and ch._known == 301
    assert np.all(ch.marginals(np.arange(1, 302)) == 0.5)


def test_explicit_observable_list_bounds_the_horizon():
    doc = {
        "kernels": [SYM_K] * 40,
        "initial": [0.5, 0.5],
        "observable": {"explicit": _tables(2, 2, 2)},
        "L": 1.0,
    }
    assert build_chain(doc).max_time == 3
    assert build_chain({**doc, "kernels": [SYM_K] * 2}).max_time == 3
    assert build_chain({**doc, "kernels": {"periodic": [SYM_K]}}).max_time == 3
    assert build_chain({**doc, "observable": {"explicit": _tables(*[2] * 50)}}).max_time == 41
    ch = build_chain(doc)
    with pytest.raises(ChainConfigError, match="observable index 4 outside explicit horizon 3"):
        ch.marginal(4)


def test_marginal_table_memory():
    ch = build_chain(CHAINS / "mixture2_ramp.json")
    tracemalloc.start()
    try:
        ch.marginal(224_013)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_observable_schedules():
    tabs = [[[1.0], [-1.0]], [[0.5], [-0.5]]]
    ch = build_chain({
        "kernels": {"periodic": [SYM_K]},
        "initial": [0.5, 0.5],
        "observable": {"periodic": tabs},
        "L": 1.0,
    })
    np.testing.assert_allclose(ch.obs(1), tabs[0])
    np.testing.assert_allclose(ch.obs(2), tabs[1])
    np.testing.assert_allclose(ch.obs(3), tabs[0])
    # explicit table list runs out past its horizon
    ch2 = build_chain({
        "kernels": {"periodic": [SYM_K]},
        "initial": [0.5, 0.5],
        "observable": {"explicit": tabs},
        "L": 1.0,
    })
    with pytest.raises(ChainConfigError, match="outside explicit horizon"):
        ch2.obs(3)


def test_step_matrix_and_pair_joint(sym):
    np.testing.assert_allclose(sym.step_matrix(3, 3), np.eye(2))
    two = np.array(SYM_K) @ np.array(SYM_K)
    np.testing.assert_allclose(sym.step_matrix(1, 3), two)
    law = pair_joint(sym, 2, 4)
    assert law.matrix.shape == (2, 2)
    assert abs(float(law.matrix.sum()) - 1.0) < 1e-14
    np.testing.assert_allclose(law.matrix.sum(axis=1), law.marginal_i, atol=1e-15)
    np.testing.assert_allclose(law.matrix.sum(axis=0), law.marginal_j, atol=1e-15)
    with pytest.raises(ChainConfigError):
        pair_joint(sym, 4, 2)


def test_build_chain_accepts_json_string_and_path(tmp_path):
    doc = {
        "kernels": {"periodic": [SYM_K]},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    }
    import json

    ch = build_chain(json.dumps(doc))
    assert ch.state_size(1) == 2
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    ch2 = build_chain(str(p))
    np.testing.assert_allclose(ch2.kernel(1), SYM_K)


def test_build_chain_accepts_json_text_too_long_for_a_file_name(tmp_path):
    doc = {
        "kernels": {"periodic": [SYM_K] * 60},
        "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]},
        "L": 1.0,
    }
    text = json.dumps(doc)
    assert len(text) > 255
    assert build_chain(text).kernels.period == 60
    for missing in (str(tmp_path / "missing.json"), "x" * 300):
        with pytest.raises(ChainConfigError, match="chain file not found"):
            build_chain(missing)


def test_build_chain_names_a_file_it_cannot_read(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    for path in (bad, str(bad), tmp_path):
        with pytest.raises(ChainConfigError, match=f"cannot read chain file {re.escape(str(path))}: "):
            build_chain(path)


def test_readme_json_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(docs) >= 3
    for doc in docs:
        build_chain(json.loads(doc))


# kernel rows with zeros at either end; state 0 has no mass at time 2
WALK_DOC = {
    "kernels": {"periodic": [[[0.0, 0.4, 0.6], [0.0, 1.0, 0.0], [0.3, 0.7, 0.0]]]},
    "initial": [0.0, 0.5, 0.5],
    "observable": {"constant": [[0.0], [1.0], [2.0]]},
    "L": 2.0,
}


def _per_time(blocks):
    """(t, states) for each time of walk's (t, (b, n) states) blocks."""
    return [(t + i, states) for t, block in blocks for i, states in enumerate(block)]


def test_walk_frequencies_match_the_exact_laws():
    ch = build_chain(WALK_DOC)
    n = 40_000
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    path = _per_time(walk(ch, 2, 4, n, rng))
    assert [t for t, _ in path] == [2, 3, 4, 5, 6]
    start = path[0][1]
    p0 = ch.marginal(2)
    f0 = np.bincount(start, minlength=3) / n
    assert np.all(np.abs(f0 - p0) <= 5 * np.sqrt(p0 * (1 - p0) / n))
    assert np.all(f0[p0 == 0] == 0)
    k = ch.kernel(2)
    for x in range(3):
        rows = path[1][1][start == x]
        if rows.size:
            f = np.bincount(rows, minlength=3) / rows.size
            assert np.all(np.abs(f - k[x]) <= 5 * np.sqrt(k[x] * (1 - k[x]) / rows.size))
    for (_, prev), (t, cur) in zip(path, path[1:]):
        assert np.all(ch.kernel(t - 1)[prev, cur] > 0)  # no zero-probability move


class _Draws:
    """Stands in for a Generator: random((b, n)) returns the next b of the
    given rows, one row of n draws per time."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, shape):
        b, n = shape
        block = np.array([next(self.rows) for _ in range(b)])
        assert block.shape == (b, n)
        return block


def test_walk_tie_rule_and_clip():
    top = np.nextafter(1.0, 0.0)
    ch = build_chain({
        # row 1, divided by its sum 1 + 2^-52, still sums to 1 - 2^-53, so
        # its cumulative values stop below 1
        "kernels": {"periodic": [[[0.5, 0.25, 0.25], [0.34, 0.56, 0.1], [0.0, 0.5, 0.5]]]},
        "initial": [0.5, 0.5, 0.0],
        "observable": {"constant": [[0.0], [0.0], [0.0]]},
        "L": 1.0,
    })
    assert np.cumsum(ch.kernel(1)[1])[-1] == top
    draws = _Draws([[0.0, 0.5, top], [0.5, top, 0.0], [0.0, 0.0, top]])
    got = [states.tolist() for _, states in _per_time(walk(ch, 1, 2, 3, draws))]
    # a draw equal to a cumulative value goes to the next state; past the
    # last cumulative value it stays on the last state
    assert got == [[0, 1, 1], [1, 2, 0], [0, 1, 2]]
    assert next(draws.rows, None) is None  # one draw per time
    # past the last cumulative value of a row whose last state has no mass,
    # the clip stops on the last state that has some
    ch4 = build_chain({
        "kernels": {"periodic": [[[0.34, 0.56, 0.1, 0.0]] * 4]},
        "initial": [0.0, 0.0, 0.0, 1.0],
        "observable": {"constant": [[0.0], [0.0], [0.0], [0.0]]},
        "L": 1.0,
    })
    assert np.cumsum(ch4.kernel(1)[0])[-1] == top  # so a draw of top meets the clip
    got = [states.tolist() for _, states in _per_time(walk(ch4, 1, 1, 1, _Draws([[0.5], [top]])))]
    assert got == [[3], [2]]


def test_walk_memory_stays_flat_on_a_mixture_that_never_repeats():
    # cosine weights of period 3.7 give every step a new kernel; the walker
    # keys its threshold tables on the step a kernel reuses, so it keeps
    # none of these, and the states are those of the walker that kept one
    # table per step
    mixture = {"base": [SYM_K, [[0.5, 0.5], [0.5, 0.5]]], "weights": {"kind": "cosine", "period": 3.7}}
    ch = build_chain({"kernels": {"mixture": mixture}, "initial": [0.5, 0.5],
                      "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0})

    def run(steps):
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            for _, block in walk(ch, 1, steps, 100, np.random.default_rng(3)):
                digest.update(block.tobytes())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, digest.hexdigest()[:16]

    run(100)  # one-time allocations
    short, long = run(4_000), run(16_000)
    assert (short[1], long[1]) == ("cfa5f4079ed6d33f", "e59415fc9b00d4f8")
    assert long[0] < short[0] + 2**18 and long[0] < 2**20
