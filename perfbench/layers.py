"""Per-layer rates measured by direct calls into one layer's public entry
points, on small fixed inputs that do not depend on the workload seed.

Every row reports work done per second of wall time, with the work count and
input size stated next to it; each is the median of REPS fresh repetitions
(fresh chain and engine each time, built outside the timed call).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import asipkit
from asipkit.moments import MomentEngine
from asipkit.util import direction_grid

from workloads import _workers, leaky3_kernel, sym2_kernel

REPS = 3

_LEAKY3 = {"kernels": {"periodic": [leaky3_kernel(0.6)]}, "initial": [1 / 3] * 3,
           "observable": {"constant": [[1.0], [0.0], [-1.0]]}, "L": 1.0}
_CHAIN3_D2 = {"kernels": {"periodic": [[[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]]]},
              "initial": [1 / 3] * 3,
              "observable": {"constant": [[2.0, 0.0], [0.0, 1.0], [-2.0, -1.0]]},
              "L": 2.0, "d": 2}
# stationary (doubly stochastic, uniform start) with rationally independent
# values, so the sum law after t steps has exactly C(t + 2, 2) atoms
_GENERIC3 = {"kernels": {"periodic": [leaky3_kernel(0.6)]}, "initial": [1 / 3] * 3,
             "observable": {"constant": [[1.0], [math.sqrt(2.0) - 1.0], [-(math.sqrt(5.0) - 1.0) / 2.0]]},
             "L": 1.0}
_SYM2 = {"kernels": {"periodic": [sym2_kernel(0.5)]}, "initial": [0.5, 0.5],
         "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0}
_KRON4 = {"kernels": {"periodic": [np.kron(sym2_kernel(0.5), sym2_kernel(0.3)).tolist()]},
          "initial": [0.25] * 4,
          "observable": {"constant": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]},
          "L": 1.0, "d": 2}


def _rate(doc, work: float, call) -> float:
    """Median over REPS of work / seconds for call(fresh chain)."""
    rates = []
    for _ in range(REPS):
        chain = asipkit.build_chain(doc)
        t0 = time.perf_counter()
        call(chain)
        rates.append(work / (time.perf_counter() - t0))
    return statistics.median(rates)


def _build_seconds(docs: list) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for doc in docs:
            asipkit.build_chain(doc)
        times.append((time.perf_counter() - t0) / len(docs))
    return statistics.median(times)


def measure(workload_docs: list) -> list:
    """Rows (name, value, unit, work description)."""
    d1 = np.array([[1.0]])
    dir66 = direction_grid(2, count=64, extra=np.eye(2))
    n1, n66, ncov, nscan, nmarg = 3000, 600, 1500, 4000, 20000
    m_dp = 120
    atom_steps = sum(math.comb(t + 2, 2) for t in range(1, m_dp)) * 3
    j2, j4 = 400, 150
    t_path, p_path = 512, 4096

    rows = [
        ("moments.prefix_steps_per_s.d1",
         _rate(_LEAKY3, n1, lambda c: MomentEngine(c).prefix_variances(1, n1 + 1, d1)),
         f"{n1} steps, 3 states, 1 direction"),
        ("moments.suffix_steps_per_s.d1",
         _rate(_LEAKY3, n1, lambda c: MomentEngine(c).suffix_variances(1, n1 + 1, d1)),
         f"{n1} steps, 3 states, 1 direction"),
        ("moments.prefix_steps_per_s.dir66",
         _rate(_CHAIN3_D2, n66, lambda c: MomentEngine(c).prefix_variances(1, n66 + 1, dir66)),
         f"{n66} steps, 3 states, {dir66.shape[0]} directions"),
        ("moments.suffix_steps_per_s.dir66",
         _rate(_CHAIN3_D2, n66, lambda c: MomentEngine(c).suffix_variances(1, n66 + 1, dir66)),
         f"{n66} steps, 3 states, {dir66.shape[0]} directions"),
        ("moments.cov_steps_per_s.d2",
         _rate(_CHAIN3_D2, ncov, lambda c: MomentEngine(c).cov_partial_sum(1, ncov + 1)),
         f"{ncov} steps, 3 states, d=2"),
        ("moments.dp_atom_steps_per_s",
         _rate(_GENERIC3, atom_steps,
               lambda c: MomentEngine(c).window_distribution(1, m_dp, np.array([1.0]))),
         f"{atom_steps} (atom, next state) pairs over {m_dp} steps, float-grid keys"),
        ("blocks.scan_steps_per_s",
         _rate(_LEAKY3, nscan, lambda c: asipkit.build_blocks(c, 200.0, 10, nscan)),
         f"horizon {nscan}, A=200, r=10, 3 states"),
        ("mixing.pair_laws_per_s.s2",
         _rate(_SYM2, j2, lambda c: asipkit.alpha_phi(c, 1, range(1, j2 + 1))),
         f"{j2} pair laws, 2 states"),
        ("mixing.pair_laws_per_s.s4",
         _rate(_KRON4, j4, lambda c: asipkit.alpha_phi(c, 1, range(1, j4 + 1))),
         f"{j4} pair laws, 4 states"),
        ("chain.marginal_steps_per_s",
         _rate(_LEAKY3, nmarg, lambda c: c.marginal(nmarg + 1)),
         f"{nmarg} steps, 3 states"),
        ("chain.build_s", _build_seconds(workload_docs),
         f"build_chain per document, mean over {len(workload_docs)} workload documents"),
    ]
    for workers in (1, 2):
        with _workers(workers):
            rows.append((
                f"simulate.path_steps_per_s.w{workers}",
                _rate(_SYM2, t_path * p_path,
                      lambda c: asipkit.sample_paths(c, t_path, p_path, 7, [t_path])),
                f"{t_path} steps x {p_path} paths, ASIPKIT_WORKERS={workers}",
            ))
    return [(name, value, "1/s" if "_per_s" in name else "s", what)
            for name, value, what in rows]
