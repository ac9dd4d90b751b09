"""Balance variances for transition observables and variance-comparison fits.

The balance of a transition observable at position i is the alternating sum of
the six edge values around a hexagon: two three-edge paths sharing a start
vertex (time i-2) and an end vertex (time i+1).  Its variance under a hexagon
law calibrates the growth of Var(S_{n,m} . u) for uniformly elliptic chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainConfigError, ChainSpec
from .moments import engine_for

HEXAGON_ENUM_CAP = 1_000_000


def chain_segment_hexagon_law(chain: ChainSpec, i: int) -> np.ndarray:
    """Built-in hexagon law: two independent chain-path segments.

    The upper path supplies (x_{i-2}, x_{i-1}, x_i) with the chain's law on
    times i-2..i; the lower path supplies (y_{i-1}, y_i, y_{i+1}) with the
    chain's law on times i-1..i+1; the two are independent.  Returned as an
    array of shape (s_{i-2}, s_{i-1}, s_i, s_{i-1}, s_i, s_{i+1}).
    """
    if i < 3:
        raise ChainConfigError("balance position needs i >= 3")
    m0 = chain.marginal(i - 2)
    k0 = chain.kernel(i - 2)
    k1 = chain.kernel(i - 1)
    upper = m0[:, None, None] * k0[:, :, None] * k1[None, :, :]
    m1 = chain.marginal(i - 1)
    k2 = chain.kernel(i)
    lower = m1[:, None, None] * k1[:, :, None] * k2[None, :, :]
    return upper[:, :, :, None, None, None] * lower[None, None, None, :, :, :]


def balance_variance(
    chain: ChainSpec,
    i: int,
    u: np.ndarray,
    pair_observable,
    hexagon_law: np.ndarray | None = None,
) -> float:
    """Variance u_i^2 of the balance of a transition observable at position i.

    pair_observable(j) must return the value table of f_j on
    states(j) x states(j+1), shape (s_j, s_{j+1}, d).  The balance is

        Gamma_i = f_{i-2}(a,b).u + f_{i-1}(b,c).u + f_i(c,g).u
                - f_{i-2}(a,d).u - f_{i-1}(d,e).u - f_i(e,g).u

    over configurations (a,b,c,d,e,g) = (x_{i-2}, x_{i-1}, x_i, y_{i-1},
    y_i, y_{i+1}) distributed by hexagon_law (default: the built-in
    two-independent-segments law for this chain).
    """
    u = np.asarray(u, dtype=float)
    if hexagon_law is None:
        law = chain_segment_hexagon_law(chain, i)
    else:
        law = np.asarray(hexagon_law, dtype=float)
    if law.ndim != 6:
        raise ChainConfigError("hexagon_law must be a 6-axis probability array")
    if law.size > HEXAGON_ENUM_CAP:
        raise ChainConfigError(
            f"hexagon configuration space {law.size} exceeds cap {HEXAGON_ENUM_CAP}"
        )
    mass = float(law.sum())
    if abs(mass - 1.0) > 1e-10:
        raise ChainConfigError(f"hexagon_law mass {mass!r} != 1")

    f0 = np.asarray(pair_observable(i - 2), dtype=float) @ u  # (a, b/d)
    f1 = np.asarray(pair_observable(i - 1), dtype=float) @ u  # (b/d, c/e)
    f2 = np.asarray(pair_observable(i), dtype=float) @ u  # (c/e, g)
    gamma = (
        f0[:, :, None, None, None, None]
        + f1[None, :, :, None, None, None]
        + f2[None, None, :, None, None, :]
        - f0[:, None, None, :, None, None]
        - f1[None, None, None, :, :, None]
        - f2[None, None, None, None, :, :]
    )
    mean = float((law * gamma).sum())
    return float((law * gamma**2).sum() - mean * mean)


@dataclass
class SandwichFit:
    """Fitted constants making A*Sigma - B <= Var <= C*Sigma + D hold on every
    tested window, with the extreme-ratio windows tight."""

    a: float
    b: float
    c: float
    d: float
    rows: list  # (n, m, var, balance_sum)
    low_confidence: bool

    @property
    def passes(self) -> bool:
        return all(
            self.a * s - self.b <= v + 1e-9 and v <= self.c * s + self.d + 1e-9
            for (_, _, v, s) in self.rows
        )


def verify_var2_sandwich(
    chain: ChainSpec,
    u: np.ndarray,
    windows,
    pair_observable,
) -> SandwichFit:
    """Fits sandwich constants for windows of a transition-observable sum.

    For each window (n, m) with m - n >= 3, compares the exact
    Var(sum_{j=n}^m f_j(xi_j, xi_{j+1}) . u) against the balance sum
    sum_{j=n+3}^m u_j^2 under the built-in hexagon law.
    """
    u = np.asarray(u, dtype=float)
    engine = engine_for(chain)
    cache: dict = {}

    def u2(j: int) -> float:
        v = cache.get(j)
        if v is None:
            v = balance_variance(chain, j, u, pair_observable)
            cache[j] = v
        return v

    rows = []
    for (n, m) in windows:
        if m - n < 3:
            raise ChainConfigError(f"window [{n}, {m}] shorter than 4 terms")
        cov = engine.pair_window_cov(pair_observable, n, m)
        var = float(u @ cov @ u)
        total = sum(u2(j) for j in range(n + 3, m + 1))
        rows.append((n, m, var, total))

    positive = [(v, s) for (_, _, v, s) in rows if s > 0]
    if positive:
        a = min(v / s for v, s in positive)
        c = max(v / s for v, s in positive)
    else:
        a = c = 1.0
    b = max([0.0] + [a * s - v for (_, _, v, s) in rows])
    d = max([0.0] + [v - c * s for (_, _, v, s) in rows])
    return SandwichFit(a=a, b=b, c=c, d=d, rows=rows, low_confidence=len(rows) < 2)


def node_pair_observable(chain: ChainSpec):
    """Adapts the chain's own per-state observable to the transition form
    f_j(x, y) = f_j(x), so balance machinery applies to plain chains."""

    def tables(j: int) -> np.ndarray:
        f = chain.obs(j)
        s_next = chain.state_size(j + 1)
        return np.repeat(f[:, None, :], s_next, axis=1)

    return tables
