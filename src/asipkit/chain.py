"""Time-inhomogeneous finite-state Markov chains with bounded vector observables.

A chain is described by a per-time kernel schedule (explicit list, periodic
cycle, or a two-kernel mixture with time-varying weights), an initial law,
and a per-time observable table mapping states to vectors in R^d with a
declared uniform bound L.  Time indices are 1-based: ``kernel(j)`` is the
transition law from time j to time j+1.

Explicit and periodic kernels and every observable are one list type (_List).
The mixture's kernel memo and the walker's threshold tables key on the step a
kernel reuses (KernelSchedule.reuses), so they stay bounded as the horizon grows.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

STOCHASTIC_ATOL = 1e-12
# longest float cycle of the table sought, joint period kept and kernel stack filled, in steps
_CYCLE_MAX = 256
# most steps past the schedule's repeat start that joint_period fills the table
_CYCLE_SEARCH = 1 << 16


class ChainConfigError(ValueError):
    """Raised when a chain document fails validation."""


def _as_numbers(obj, what: str) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ChainConfigError(f"{what}: expected an array of numbers") from None


def _check_kernel(m: np.ndarray, what: str) -> None:
    """Raise the error of the first check one kernel fails, if any."""
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ChainConfigError(f"{what}: expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ChainConfigError(f"{what}: non-finite entries")
    if np.any(m < -STOCHASTIC_ATOL):
        i = int(np.argwhere(m < -STOCHASTIC_ATOL)[0][0])
        raise ChainConfigError(f"{what}: row {i} has a negative entry")
    sums = m.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > STOCHASTIC_ATOL)
    if bad.size:
        i = int(bad[0][0])
        raise ChainConfigError(
            f"{what}: row {i} sum {sums[i]!r} != 1 (deficit {sums[i] - 1.0:+.3e})"
        )


def _check_kernels(items: Sequence, name: str, first: int) -> list[np.ndarray]:
    """Check every item as a stochastic matrix, clip it at 0 and divide each
    row by its sum, so that the laws a kernel carries keep their mass.

    Returns one (k, rows, cols) stack per run of consecutive kernels of equal
    shape.  Item t is called f"{name} {t + first}" in errors, and the error
    is that of the first faulty item, as if the items were checked in order.
    """
    mats = []
    for t, k in enumerate(items):
        try:
            mats.append(_as_numbers(k, f"{name} {t + first}"))
        except ChainConfigError:
            _check_kernels(mats, name, first)  # an earlier fault comes first
            raise
    stacks, start = [], 0
    for _, run in itertools.groupby(mats, operator.attrgetter("shape")):
        s = np.array(list(run))  # one (k, rows, cols) stack
        if s.ndim != 3 or 0 in s.shape:
            _check_kernel(mats[start], f"{name} {start + first}")
        with np.errstate(invalid="ignore"):  # inf - inf in a row sum
            bad = ~np.isfinite(s).all(axis=(1, 2))
            bad |= (s < -STOCHASTIC_ATOL).any(axis=(1, 2))
            bad |= (np.abs(s.sum(axis=2) - 1.0) > STOCHASTIC_ATOL).any(axis=1)
        if bad.any():
            t = start + int(np.argmax(bad))
            _check_kernel(mats[t], f"{name} {t + first}")
        s = np.clip(s, 0.0, None)
        stacks.append(s / s.sum(axis=2, keepdims=True))
        start += len(s)
    return stacks


def _chain_break(stacks: list[np.ndarray], cyclic: bool) -> int | None:
    """Index t of the first kernel whose column count differs from the row
    count of kernel t + 1 (of kernel 0 after the last one when cyclic), or
    None when the kernels chain."""
    t = 0
    for i, s in enumerate(stacks):
        k, rows, cols = s.shape
        if k > 1 and cols != rows:
            return t
        t += k
        if (cyclic or i + 1 < len(stacks)) and cols != stacks[(i + 1) % len(stacks)].shape[1]:
            return t - 1
    return None


def _first_mismatch(x: list, x_cycles: bool, y: list, y_cycles: bool) -> int | None:
    """Smallest i >= 0 with x_i != y_i, or None.  A sequence that cycles has
    x_i = x[i mod len(x)]; one that does not ends at its last entry, and the
    comparison with it."""
    if x_cycles and y_cycles:
        # i meets the pair (i mod len(x), i mod len(y)); the pairs met are
        # those congruent mod g, so a class agrees when it holds one value
        g = math.gcd(len(x), len(y))
        if all(len(set(x[r::g]) | set(y[r::g])) == 1 for r in range(g)):
            return None
        n = math.lcm(len(x), len(y))
    else:
        n = min(len(s) for s, cycles in ((x, x_cycles), (y, y_cycles)) if not cycles)
    x, y = np.asarray(x), np.asarray(y)
    for lo in range(0, n, 1 << 16):
        i = np.arange(lo, min(lo + (1 << 16), n))
        bad = np.flatnonzero(x[i % len(x)] != y[i % len(y)])
        if bad.size:
            return lo + int(bad[0])
    return None


def _check_probability_vector(v, what: str) -> np.ndarray:
    p = _as_numbers(v, what)
    if p.ndim != 1:
        raise ChainConfigError(f"{what}: expected a vector")
    if not np.all(np.isfinite(p)):
        raise ChainConfigError(f"{what}: non-finite entries")
    if np.any(p < -STOCHASTIC_ATOL):
        raise ChainConfigError(f"{what}: negative mass")
    s = p.sum()
    if abs(s - 1.0) > STOCHASTIC_ATOL:
        raise ChainConfigError(f"{what}: mass {s!r} != 1 (deficit {s - 1.0:+.3e})")
    return np.clip(p, 0.0, None)


class KernelSchedule:
    """Base class; concrete schedules implement kernel(j) for 1-based step j,
    and stack(j, k) for the kernels of steps j, j + 1, ... at once."""

    n_steps: int | None = None  # None means unbounded
    # state counts at times 1, 2, ... and whether they cycle from time 1 on
    # (else the list ends at the last time)
    state_counts: tuple[list[int], bool]

    def kernel(self, j: int) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def stack(self, j: int, k: int) -> np.ndarray:  # pragma: no cover - interface
        """kernel(j), kernel(j + 1), ... as one (k', rows, cols) array, the
        same floats; k' <= k ends before the first kernel whose shape differs
        from kernel(j)'s."""
        raise NotImplementedError

    def repeats(self) -> tuple[int, int] | None:
        """(j0, period) with kernel(j + period) equal to kernel(j) for every
        j >= j0, or None when the schedule never repeats."""
        return None

    def reuses(self, j: int) -> int | None:
        """The step whose kernel step j reuses: j itself up to j0, then
        j0 + (j - j0) mod period; None when the schedule never repeats."""
        r = self.repeats()
        return None if r is None else min(j, r[0] + (j - r[0]) % r[1])

    def by_shape(self, steps: np.ndarray):
        """The kernels of sorted distinct steps as one stack per shape, read
        by stack() over each run of consecutive steps; see _by_shape."""
        cuts = (np.flatnonzero(np.diff(steps) != 1) + 1).tolist()
        pieces = []
        for lo, hi in zip([0, *cuts], [*cuts, len(steps)]):
            while lo < hi:
                pieces.append(self.stack(int(steps[lo]), hi - lo))
                lo += len(pieces[-1])
        return _by_shape(pieces)


def _by_shape(stacks: list[np.ndarray]):
    """Stacks joined into one stack per distinct shape, in order of first
    use: (stacks, the stack of each entry, its row there)."""
    shapes = list(dict.fromkeys(s.shape[1:] for s in stacks))
    ids = [shapes.index(s.shape[1:]) for s in stacks]
    joined = [np.concatenate([s for s, i in zip(stacks, ids) if i == g])
              for g in range(len(shapes))]
    shape = np.repeat(ids, [len(s) for s in stacks])
    row = np.zeros(len(shape), dtype=np.int64)
    for g, s in enumerate(joined):
        row[shape == g] = np.arange(len(s))
    return joined, shape, row


class _List:
    """Arrays at times 1, 2, ...: time j reads entry (j - 1) mod n of the n
    entries, and a list that does not cycle ends at time n.  The entries are
    kept as one stack per distinct shape; self.items[i] is a view of entry
    i's row there."""

    def __init__(self, stacks: list[np.ndarray], cycles: bool, name: str):
        if not stacks:
            raise ChainConfigError(f"empty {'periodic ' if cycles else ''}{name} list")
        self._stacks, self._shape, self._row = _by_shape(stacks)
        self.items = [self._stacks[g][r] for g, r in zip(self._shape.tolist(), self._row.tolist())]
        self.cycles, self._name = cycles, name

    def _at(self, j: int) -> np.ndarray:
        """The entry at time j; the one range check."""
        n = len(self.items)
        if j >= 1 and (self.cycles or j <= n):
            return self.items[(j - 1) % n]
        raise ChainConfigError(f"{self._name} index {j} "
                               + ("< 1" if self.cycles else f"outside explicit horizon {n}"))

    def _take(self, j: int, k: int) -> np.ndarray:
        """The entries at times j, ..., j + k - 1 as one stack, up to the
        first shape change."""
        self._at(j), self._at(j + k - 1)  # range checks
        pos = np.arange(j - 1, j + k - 1) % len(self.items)
        if len(self._stacks) == 1:  # one shape, in list order
            return self._stacks[0][pos]
        g = self._shape[pos]
        other = np.flatnonzero(g != g[0])
        cut = other[0] if other.size else len(pos)
        return self._stacks[g[0]][self._row[pos[:cut]]]


class _KernelList(_List, KernelSchedule):
    """A schedule read from a list of checked kernels: ExplicitKernels ends
    at its last kernel, PeriodicKernels cycles from step 1."""

    cycles = False
    kernel = _List._at
    stack = _List._take

    def __init__(self, kernels: Sequence):
        stacks = _check_kernels(kernels, "kernel", 1)
        super().__init__(stacks, self.cycles, "kernel")
        p, t = len(self.items), _chain_break(stacks, self.cycles)
        if t is not None:
            raise ChainConfigError(
                f"periodic kernels {t + 1} -> {(t + 1) % p + 1} have incompatible shapes" if self.cycles
                else f"kernel {t + 1} has {self.items[t].shape[1]} columns but "
                     f"kernel {t + 2} has {self.items[t + 1].shape[0]} rows"
            )
        self.n_steps, self.period = (None, p) if self.cycles else (p, None)
        ends = [] if self.cycles else [self.items[-1].shape[1]]
        self.state_counts = [k.shape[0] for k in self.items] + ends, self.cycles

    def repeats(self) -> tuple[int, int] | None:
        return None if self.period is None else (1, self.period)


class ExplicitKernels(_KernelList):
    """Kernels of steps 1, ..., n_steps."""


class PeriodicKernels(_KernelList):
    """Kernels of steps 1, ..., period, cycled."""

    cycles = True


class MixtureKernels(KernelSchedule):
    """P_j = (1 - w(j)) K0 + w(j) K1 with a deterministic weight rule."""

    def __init__(self, k0, k1, weight_rule: dict):
        stacks = _check_kernels([k0, k1], "mixture base", 0)
        if len(stacks) != 1 or stacks[0].shape[1] != stacks[0].shape[2]:
            raise ChainConfigError("mixture bases must be square and same shape")
        self.k0, self.k1 = stacks[0]
        self.state_counts = [self.k0.shape[0]], True
        if not isinstance(weight_rule, dict):
            raise ChainConfigError("mixture weights must be an object")
        kind = weight_rule.get("kind")
        # each field of the rule with its default (None: required)
        fields = {
            "constant": {"value": None},
            "linear": {"start": None, "end": None, "length": None},
            "cosine": {"period": None, "center": 0.5, "amplitude": 0.5},
        }.get(kind)
        if fields is None:
            raise ChainConfigError(f"unknown mixture weight kind {kind!r}")
        self.rule = {"kind": kind}
        for key, default in fields.items():
            value = weight_rule.get(key, default)
            if value is None:
                raise ChainConfigError(f"{kind} mixture weight needs {key!r}")
            try:
                x = float(value)
            except (TypeError, ValueError):
                x = math.nan
            if not math.isfinite(x):
                raise ChainConfigError(f"mixture weight {key} {value!r} is not a finite number")
            self.rule[key] = x
        if kind == "linear" and self.rule["length"] < 1:
            raise ChainConfigError(f"mixture weight length {self.rule['length']!r} < 1")
        if kind == "cosine" and self.rule["period"] <= 0:
            raise ChainConfigError(f"mixture weight period {self.rule['period']!r} <= 0")
        # reuses(j) -> the kernel array of every step that reuses it (a
        # schedule that never repeats keeps none)
        self._cache: dict[int, np.ndarray] = {}
        # (j0, period) of repeats(): a constant or linear weight stops
        # changing at its flat step, and a cosine of integer period weighs
        # step j by the phase (j - 1) mod period
        self._repeats = None
        if kind == "constant":
            self._repeats = 1, 1
        elif kind == "linear":
            self._repeats = math.ceil(self.rule["length"]) + 1, 1
        elif self.rule["period"].is_integer():
            self._repeats = 1, int(self.rule["period"])

    def weight(self, j: int) -> float:
        return float(self._weights(np.array([j]))[0])

    def _weights(self, j: np.ndarray) -> np.ndarray:
        """The weight of each of the steps j (math.cos for the cosine); the
        first step outside [0, 1] raises."""
        r = self.rule
        if r["kind"] == "constant":
            w = np.full(len(j), r["value"])
        elif r["kind"] == "linear":
            # ramp from start to end over `length` steps, clipped beyond
            t = np.minimum(np.maximum(j - 1, 0) / r["length"], 1.0)
            w = r["start"] + (r["end"] - r["start"]) * t
        else:
            x = 2.0 * math.pi * self._phase(j) / r["period"]
            w = r["center"] + r["amplitude"] * np.array([math.cos(a) for a in x.tolist()])
        bad = np.flatnonzero((w < 0.0) | (w > 1.0))
        if bad.size:
            w, j = float(w[bad[0]]), int(j[bad[0]])
            raise ChainConfigError(f"mixture weight {w!r} at step {j} outside [0, 1]")
        return w

    def _phase(self, j):
        """The cosine's phase j - 1 of step j (int or array), reduced mod
        an integer period."""
        return j - 1 if self._repeats is None else (j - 1) % self._repeats[1]

    def repeats(self) -> tuple[int, int] | None:
        return self._repeats

    def kernel(self, j: int) -> np.ndarray:
        key = self.reuses(j)
        k = self._cache.get(key)
        if k is None:
            k = self.stack(key or j, 1)[0]  # stack raises for j < 1
            if key is not None:
                self._cache[key] = k
        return k

    def stack(self, j: int, k: int) -> np.ndarray:
        if j < 1:
            raise ChainConfigError(f"kernel index {j} < 1")
        w = self._weights(np.arange(j, j + k))[:, None, None]
        return (1.0 - w) * self.k0 + w * self.k1


class ObservableSchedule(_List):
    """Per-time tables f_j: state -> R^d, shaped (state_size(j), d).  An
    explicit list ends at its last table; a periodic one cycles from time 1,
    and a constant observable is a cycle of one table."""

    table = _List._at

    def __init__(self, tables: Sequence[np.ndarray], cycles: bool):
        super().__init__([t[None] for t in tables], cycles, "observable")
        d = [t.shape[1] for t in self.items]
        i = next((i for i, di in enumerate(d) if di != d[0]), None)
        if i is not None:
            raise ChainConfigError(f"observable {i + 1}: value dimension {d[i]} != "
                                   f"{d[0]} of observable 1")

    @staticmethod
    def _normalize_table(tab, d_hint: int | None, what: str) -> np.ndarray:
        a = _as_numbers(tab, what)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2:
            raise ChainConfigError(f"{what}: expected (states, d) table")
        if not np.all(np.isfinite(a)):
            raise ChainConfigError(f"{what}: non-finite values")
        if d_hint is not None and a.shape[1] != d_hint:
            raise ChainConfigError(f"{what}: value dimension {a.shape[1]} != declared d={d_hint}")
        return a

    @classmethod
    def constant(cls, table, d: int | None = None):
        return cls([cls._normalize_table(table, d, "observable")], True)

    @classmethod
    def periodic(cls, tables, d: int | None = None):
        return cls._listed(tables, d, True)

    @classmethod
    def explicit(cls, tables, d: int | None = None):
        return cls._listed(tables, d, False)

    @classmethod
    def _listed(cls, tables, d: int | None, cycles: bool):
        return cls([cls._normalize_table(t, d, f"observable {i + 1}") for i, t in enumerate(tables)],
                   cycles)

    def stack(self, a: int, b: int) -> np.ndarray:
        """Tables at times a..b, shape (b - a + 1, states, d); raises
        ValueError when the state count changes over [a, b]."""
        tables = self._take(a, b - a + 1)
        if len(tables) <= b - a:
            raise ValueError("the state count changes across the given times")
        return tables

    def period(self) -> int | None:
        """Period of the tables from time 1 on, or None for explicit tables."""
        return len(self.items) if self.cycles else None

    @property
    def d(self) -> int:
        return self.items[0].shape[1]


class ChainSpec:
    """A validated chain: kernel schedule, initial law, observable, bound L.

    Past its marginal table's float cycle (c, P) the chain repeats with one joint period
    L = lcm(P, observable period) (joint_period); a chain of one state count then reads its
    laws and centred tables from arrays of L rows (marginals, centered_stack).

    Parameters
    ----------
    kernels : KernelSchedule
    observable : ObservableSchedule
    initial : array_like
        Law of the state at time 1.
    L : float
        Declared uniform sup-norm bound on observable values.
    name : str
        Label used in reports.
    """

    def __init__(self, kernels, observable, initial, L, name="chain"):
        self.kernels = kernels
        self.observable = observable
        self.initial = _check_probability_vector(initial, "initial law")
        try:
            self.L = float(L)
        except (TypeError, ValueError):
            raise ChainConfigError(f"bound L {L!r} is not a number") from None
        if not self.L > 0:
            raise ChainConfigError("bound L must be positive")
        self.name = str(name)
        self.d = observable.d
        # largest time index, or None: one past the last kernel, at most the explicit tables'
        bounds = [] if kernels.n_steps is None else [kernels.n_steps + 1]
        if not observable.cycles:
            bounds.append(len(observable.items))
        self.max_time = min(bounds, default=None)
        if self.initial.shape[0] != self.state_size(1):
            raise ChainConfigError(
                f"initial law has {self.initial.shape[0]} states, kernel 1 expects "
                f"{self.state_size(1)}"
            )
        top = np.zeros(len(observable.items))  # max |f| of each table, one pass per shape
        for g, s in enumerate(observable._stacks):
            top[observable._shape == g] = np.abs(s).max(axis=(1, 2))
        bad = np.flatnonzero(top > self.L + 1e-12)
        if bad.size:
            raise ChainConfigError(
                f"observable table {bad[0] + 1} exceeds declared bound L={self.L!r} "
                f"(max |f| = {top[bad[0]]!r})"
            )
        counts, cycles = kernels.state_counts
        self._count = counts[0] if len(set(counts)) == 1 else None  # the one state count
        rows = [t.shape[0] for t in observable.items]
        t = _first_mismatch(counts, cycles, rows, observable.cycles)
        if t is not None:
            raise ChainConfigError(
                f"observable at time {t + 1} has {rows[t % len(rows)]} rows, state space has "
                f"{counts[t % len(counts)]}"
            )
        # the marginal table: row t - 1 holds the law at time t, zeros past
        # its state count _counts[t - 1]; rows below _known are filled
        self._table = np.zeros((1, max(counts)))
        self._table[0, : len(self.initial)] = self.initial
        self._counts, self._known = np.array([len(self.initial)]), 1
        # (c, p) once the law at time c + p equals the one at time c bit for
        # bit, p a multiple of the kernel period; the fill then stops, and
        # each later time reads its phase's row.  Until then the fill stops to
        # compare rows when _check_at rows are filled; _checked is the newest
        # row of the last check, whose comparisons all missed.
        self._cycle = self._check_at = self._checked = None
        # (c, laws, centred) at times c, ..., c + L - 1, set with the cycle (_find_cycle)
        self._period = None
        repeats = kernels.repeats()
        if repeats is not None:
            self._checked, self._check_at = repeats[0] - 1, sum(repeats)

    # -- structure ---------------------------------------------------------

    def _check_time(self, j: int) -> None:
        if j < 1:
            raise ChainConfigError(f"time index {j} < 1")
        if self.max_time is not None and j > self.max_time:
            self.observable.table(j)  # names an explicit observable list that ends first
            raise ChainConfigError(f"time index {j} outside horizon {self.max_time}")

    def kernel(self, j: int) -> np.ndarray:
        return self.kernels.kernel(j)

    def state_size(self, j: int) -> int:
        self._check_time(j)
        counts = self.kernels.state_counts[0]
        return counts[(j - 1) % len(counts)]  # j <= len(counts) when they end

    def obs(self, j: int) -> np.ndarray:
        """Observable table at time j, shape (state_size(j), d)."""
        self._check_time(j)
        return self.observable.table(j)

    # -- exact laws --------------------------------------------------------

    def marginal(self, j: int) -> np.ndarray:
        """Exact law of the state at time j, a view of its row of the
        marginal table.  The table is filled forward on demand and grows by
        doubling into a new array, so no row handed out is written again."""
        self._check_time(j)
        if j > self._known:
            self._fill(j)  # no row is added once the cycle is found
        i = self._row(j)
        return self._table[i - 1, : self._counts[i - 1]]

    @property
    def cycle(self) -> tuple[int, int] | None:
        """(c, P) once the table has found its float cycle: from time c on the
        law at t + P equals the law at t bit for bit.  None until then; the
        table fills only as far as the marginals asked for so far need."""
        return self._cycle

    def joint_period(self) -> tuple[int, int] | None:
        """(c, L): from time c on, the kernels, laws and observable tables
        repeat with L = lcm(P, observable period), (c, P) the table's float
        cycle.  None when the observable has no period or the table has no
        cycle after the first call's fill, to the cycle or at most
        _CYCLE_SEARCH steps past the schedule's repeat start."""
        repeats, q = self.kernels.repeats(), self.observable.period()
        if repeats is not None and q is not None and self._cycle is None:
            self.marginal(repeats[0] + _CYCLE_SEARCH)  # no fill after the first call
        if q is None or self._cycle is None:
            return None
        return self._cycle[0], math.lcm(self._cycle[1], q)

    def _row(self, j):
        """The time whose table row holds the law at time j (int or array)."""
        if self._cycle is None:
            return j
        c, p = self._cycle
        return np.minimum(j, c + (j - c) % p)  # j itself up to c

    def _fill(self, j: int) -> None:
        """Fill the table to time j, or until the float cycle is found."""
        while self._cycle is None and self._known < j:
            n, stop = self._known, j if self._check_at is None else min(j, self._check_at)
            if stop > len(self._table):
                rows = max(stop, 2 * len(self._table))
                table, counts = np.zeros((rows, self._table.shape[1])), np.zeros(rows, dtype=int)
                table[:n], counts[:n] = self._table[:n], self._counts[:n]
                self._table, self._counts = table, counts
            table, cols, t = self._table, [], n
            prev = table[n - 1, : self._counts[n - 1]]
            while t < stop:  # a stack ends early where the kernels' shape changes
                for k in self.kernels.stack(t, min(_CYCLE_MAX, stop - t)):
                    cols.append(k.shape[1])
                    prev = np.matmul(prev, k, table[t, : cols[-1]])  # written in place
                    t += 1
            self._counts[n:stop], self._known = cols, stop
            if stop == self._check_at:
                self._find_cycle()

    def _find_cycle(self) -> None:
        """Compare the newest row, at time n = _known, with the rows m P
        earlier, for m P <= _CYCLE_MAX and not before the kernels' j0.  Rows c
        and c + m P that agree agree at every later c, since the same floats
        then meet the same kernels; so the smallest m that matches is bisected
        down to its first c, above the last check's misses, and a miss for
        every m doubles the filled rows before the next check."""
        j0, p = self.kernels.repeats()
        table, n = self._table, self._known
        periods = np.arange(p, min(_CYCLE_MAX, n - j0) + 1, p)
        hits = np.flatnonzero(np.all(table[n - 1 - periods] == table[n - 1], axis=1))
        if not hits.size:
            self._checked, self._check_at = n, 2 * n
            return
        p = int(periods[hits[0]])
        lo, c = max(self._checked - p, j0 - 1), n - p
        while c - lo > 1:
            mid = (lo + c) // 2
            lo, c = (lo, mid) if np.array_equal(table[mid - 1], table[mid + p - 1]) else (mid, c)
        self._cycle, self._known = (c, p), c + p - 1
        # one joint period of laws and centred tables: reads at t >= c gather (t - c) mod L
        joint = self.joint_period()
        if self._count is not None and joint is not None and joint[1] <= _CYCLE_MAX:
            laws = self._table[self._row(np.arange(c, c + joint[1])) - 1]
            self._period = c, laws, _centre(self.observable.stack(c, c + len(laws) - 1), laws)

    def marginals(self, times: np.ndarray) -> np.ndarray:
        """Exact laws at the given times, shape (len(times), states); raises
        ValueError when their state counts differ."""
        if self._period is not None and times.min() >= self._period[0]:
            return self._period[1][(times - self._period[0]) % len(self._period[1])]
        self._check_time(int(times.min()))
        self.marginal(int(times.max()))
        rows = self._row(times) - 1
        if self._count is None and np.any(self._counts[rows] != self._counts[rows[0]]):
            raise ValueError("the state count changes across the given times")
        return self._table[rows, : self._counts[rows[0]]]

    def centered_stack(self, a: int, b: int) -> np.ndarray:
        """f_t - E f_t for t in [a, b], shape (b - a + 1, states, d); [a, b]
        keeps one state count.  Times from the cycle's c on are gathered from
        the joint period's centred tables, and earlier ones are centred from
        their stacked marginals and tables by the same expression, so every
        row holds the same floats either way."""
        self.marginal(b)  # may find the cycle
        c = b + 1 if self._period is None else min(max(a, self._period[0]), b + 1)
        parts = []
        if a < c:
            parts.append(_centre(self.observable.stack(a, c - 1), self.marginals(np.arange(a, c))))
        if c <= b:
            c0, laws, centred = self._period
            parts.append(centred[(np.arange(c, b + 1) - c0) % len(laws)])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def pieces(self, a: int, b: int) -> list[tuple[int, int]]:
        """[a, b] cut where the state count changes: (lo, hi) windows in
        time order, each keeping one state count."""
        self._check_time(a)
        if self._count is not None:
            self._check_time(b)
            return [(a, b)]
        self.marginal(b)
        counts = self._counts[self._row(np.arange(a, b + 1)) - 1]
        cuts = np.flatnonzero(np.diff(counts)) + a + 1
        edges = [a, *cuts.tolist(), b + 1]
        return [(lo, hi - 1) for lo, hi in zip(edges, edges[1:])]

    def step_matrix(self, i: int, j: int) -> np.ndarray:
        """Product P_i ... P_{j-1}; identity when i == j."""
        self._check_time(i)
        self._check_time(j)
        if j < i:
            raise ChainConfigError(f"step_matrix needs i <= j, got {i} > {j}")
        m = np.eye(self.state_size(i))
        for t in range(i, j):
            m = m @ self.kernel(t)
        return m


def _centre(tables: np.ndarray, laws: np.ndarray) -> np.ndarray:
    """f_t - E f_t from stacked tables and laws by one batched product."""
    return tables - laws[:, None, :] @ tables


@dataclass
class JointLaw:
    """Exact joint law of (state at time i, state at time j)."""

    i: int
    j: int
    matrix: np.ndarray  # shape (|X_i|, |X_j|)
    marginal_i: np.ndarray
    marginal_j: np.ndarray


def pair_joint(chain: ChainSpec, i: int, j: int) -> JointLaw:
    """P(xi_i = x, xi_j = y) as diag(marginal(i)) @ P_i ... P_{j-1}."""
    if j < i:
        raise ChainConfigError(f"pair_joint needs i <= j, got {i} > {j}")
    mi = chain.marginal(i)
    mat = mi[:, None] * chain.step_matrix(i, j)
    return JointLaw(i=i, j=j, matrix=mat, marginal_i=mi, marginal_j=chain.marginal(j))


# -- path sampling -----------------------------------------------------------


# times per block of walk; a block holds (block, paths) states and draws
_WALK_BLOCK = 32


def walk(chain: ChainSpec, t0: int, steps: int, n: int, rng: np.random.Generator):
    """Yield (t, states) blocks over the times t0, ..., t0 + steps along n
    paths started from the exact marginal at t0; states has shape (b, n),
    row i holding the states at time t + i.  Each time, the start included,
    draws one row of u; a block draws its rows as one rng.random((b, n)),
    the same floats as b calls of rng.random(n).  The next state is
    #{cumulative probability <= u}, clipped to the last state with positive
    mass in the row, so a u equal to a cumulative value moves on and no path
    enters a zero-mass state."""
    # reused step (KernelSchedule.reuses) -> (threshold columns, last
    # positive state per row, or None when every row's last state has mass);
    # a step that reuses none, and the start, build theirs and drop it.
    # Column i holds the cumulative probability of states 0..i for every
    # row; the last column is left out, since a u at or past it counts every
    # state and the clip to `last` gives the same state.  Without a clip the
    # count is at most the number of columns, the last state.
    tables: dict = {}
    states = np.zeros(n, dtype=np.int64)  # the start law is a one-row kernel
    end = t0 + steps + 1
    for lo in range(t0, end, _WALK_BLOCK):
        u = rng.random((min(_WALK_BLOCK, end - lo), n))
        block = np.zeros(u.shape, dtype=np.int64)
        for t, row, u_t in zip(range(lo, end), block, u):
            key = None if t == t0 else chain.kernels.reuses(t - 1)
            table = tables.get(key)
            if table is None:
                k = chain.marginal(t0)[None, :] if t == t0 else chain.kernel(t - 1)
                last = k.shape[1] - 1 - np.argmax(k[:, ::-1] > 0, axis=1)
                clip = None if np.all(last == k.shape[1] - 1) else last
                table = np.cumsum(k, axis=1)[:, :-1].T.copy(), clip
                if key is not None:
                    tables[key] = table
            cols, last = table
            if len(cols):
                np.less_equal(cols[0][states], u_t, out=row)
            for col in cols[1:]:
                row += col[states] <= u_t
            if last is not None:
                np.minimum(row, last[states], out=row)
            states = row
        yield lo, block


# -- document parsing --------------------------------------------------------


def _parse_kernels(spec) -> KernelSchedule:
    if isinstance(spec, dict):
        if "periodic" in spec:
            if not isinstance(spec["periodic"], (list, tuple)):
                raise ChainConfigError("periodic kernels must be a list of matrices")
            return PeriodicKernels(spec["periodic"])
        if "mixture" in spec:
            mx = spec["mixture"]
            base = mx.get("base")
            if not isinstance(base, (list, tuple)) or len(base) != 2:
                raise ChainConfigError("mixture needs exactly two base kernels")
            return MixtureKernels(base[0], base[1], mx.get("weights", {}))
        raise ChainConfigError(f"unknown kernel schedule keys {sorted(spec)}")
    if isinstance(spec, (list, tuple)):
        return ExplicitKernels(spec)
    raise ChainConfigError("kernels must be a list of matrices or a schedule object")


def _as_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ChainConfigError(f"{what}: {value!r} is not an integer") from None


def _parse_observable(spec, d: int | None) -> ObservableSchedule:
    if isinstance(spec, dict):
        if "constant" in spec:
            return ObservableSchedule.constant(spec["constant"], d)
        if "periodic" in spec:
            return ObservableSchedule.periodic(spec["periodic"], d)
        if "explicit" in spec:
            return ObservableSchedule.explicit(spec["explicit"], d)
        raise ChainConfigError(f"unknown observable keys {sorted(spec)}")
    if isinstance(spec, (list, tuple)):
        # bare list reads as one table per time
        return ObservableSchedule.explicit(spec, d)
    raise ChainConfigError("observable must be a table list or a schedule object")


def build_chain(doc) -> ChainSpec:
    """Build a ChainSpec from a dict, JSON string, or path to a JSON file.

    Recognized fields: states, kernels (list | {periodic} | {mixture}),
    initial, observable (list | {constant} | {periodic} | {explicit}),
    L, d, name.  A faulty document or file raises ChainConfigError, whose
    message names the file.
    """
    # os.path.exists, unlike Path.exists, is False for too long a name
    if isinstance(doc, (str, Path)) and os.path.exists(doc):
        try:
            parsed = json.loads(Path(doc).read_text())
        except OSError as e:  # a directory, say
            raise ChainConfigError(f"cannot read chain file {doc}: {e.strerror or e}") from e
        except ValueError as e:  # invalid JSON
            raise ChainConfigError(f"cannot read chain file {doc}: {e}") from e
        try:
            return build_chain(parsed)
        except ChainConfigError as e:
            raise ChainConfigError(f"chain file {doc}: {e}") from e
    if isinstance(doc, (str, Path)):
        try:
            doc = json.loads(str(doc))
        except json.JSONDecodeError as e:
            raise ChainConfigError(f"chain file not found: {doc}") from e
    if not isinstance(doc, dict):
        raise ChainConfigError("chain document must be a JSON object")
    missing = [k for k in ("kernels", "initial", "observable", "L") if k not in doc]
    if missing:
        raise ChainConfigError(f"chain document missing fields {missing}")
    kernels = _parse_kernels(doc["kernels"])
    d = _as_int(doc["d"], "declared d") if "d" in doc else None
    observable = _parse_observable(doc["observable"], d)
    chain = ChainSpec(
        kernels=kernels,
        observable=observable,
        initial=doc["initial"],
        L=doc["L"],
        name=doc.get("name", "chain"),
    )
    if "states" in doc:
        declared = doc["states"]
        sizes = declared if isinstance(declared, (list, tuple)) else [declared]
        for j, s in enumerate(sizes, start=1):
            if chain.state_size(j) != _as_int(s, f"declared states at time {j}"):
                raise ChainConfigError(
                    f"declared {s} states at time {j}, kernels imply {chain.state_size(j)}"
                )
    if d is not None and chain.d != d:
        raise ChainConfigError(f"declared d={doc['d']}, observable has d={chain.d}")
    return chain
