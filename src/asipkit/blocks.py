"""Separated block partitions of the time axis.

Parameter selection (separation r, amplitude A), the greedy block
construction driven by exact variances, and exact verification of the
partition inequalities: the prefix/suffix norm chain, the variance-vs-block
count bracket, the half/three-halves sandwich for unions of blocks, the
block-vs-cover variance ratio, and the between-block covariance bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainConfigError, ChainSpec
from .mixing import Envelope, alpha_phi, mixing_report
from .moments import LpNorm, MomentEngine, _polar_directions, _polarize, engine_for

SEPARATION_MAX = 100_000
# largest horizon the planner sizes for itself
HORIZON_CAP = 500_000


# ---------------------------------------------------------------------------
# parameter selection


def select_separation(envelope: Envelope, p: float, c_p: float = 8.0) -> tuple[int, float]:
    """Minimal separation r with sum_m alpha(rm)^(1-2/p) < 1/(32 c_p).

    The sum is the envelope's exact geometric tail.  Returns (r, achieved
    sum).  A degenerate (all-zero alpha) envelope gives r = 1.
    """
    if p <= 2:
        raise ChainConfigError(f"need p > 2, got {p}")
    if envelope.delta >= 1.0 and not envelope.degenerate and envelope.c > 0:
        raise ChainConfigError("no exponential envelope: delta >= 1")
    threshold = 1.0 / (32.0 * c_p)
    e = 1.0 - 2.0 / p
    for r in range(1, SEPARATION_MAX + 1):
        tail = envelope.geometric_tail(r, e)
        if tail < threshold:
            return r, tail
    raise ChainConfigError(f"no separation r <= {SEPARATION_MAX} meets the tail bound")


def q_zero(r: int, p: float, big_l: float, envelope: Envelope, c_p: float = 8.0) -> float:
    """Q0 = 2 c_p (1 + r L)(1 + L) sum_m alpha(m)^(2 - 2/p), the exponent the
    paper prints; the tail runs over every gap m >= 1, so the separation
    enters the prefactor only."""
    tail = envelope.geometric_tail(1, 2.0 - 2.0 / p)
    return 2.0 * c_p * (1.0 + r * big_l) * (1.0 + big_l) * tail


def q_of_amplitude(amplitude: float, q0: float) -> float:
    """Q(A) = Q0 + 2 sqrt(3 A Q0)."""
    return q0 + 2.0 * math.sqrt(3.0 * amplitude * q0)


def select_amplitude(q0: float) -> tuple[float, float]:
    """Minimal A >= 1 with A >= 4 Q(A) + 1, plus the certificate value.

    Closed form from the quadratic in sqrt(A), then moved one float at a
    time: up while the certificate A - 4 Q(A) - 1 is negative, and down
    while the float below A, still >= 1, certifies.  So the certificate is
    >= 0 at A and < 0 at the float below it.
    """
    if q0 < 0:
        raise ChainConfigError(f"Q0 must be nonnegative, got {q0}")
    if q0 == 0.0:
        return 1.0, 0.0
    root = 4.0 * math.sqrt(3.0 * q0) + math.sqrt(52.0 * q0 + 1.0)
    a = max(1.0, root * root)

    def cert(x: float) -> float:
        return x - 4.0 * q_of_amplitude(x, q0) - 1.0

    while cert(a) < 0.0:
        a = float(np.nextafter(a, math.inf))
    below = float(np.nextafter(a, 0.0))
    while below >= 1.0 and cert(below) >= 0.0:
        a, below = below, float(np.nextafter(below, 0.0))
    return a, cert(a)


# ---------------------------------------------------------------------------
# partition


class VarianceStarvedError(RuntimeError):
    """The greedy scan could not close a block before the horizon."""

    def __init__(self, index: int):
        super().__init__(f"variance starved at index {index}")
        self.index = index


@dataclass
class BlockPartition:
    """Greedy r-separated blocks M_j = [a_j, b_j] with covers I_j = [a_j, b_j + r].

    The I_j are disjoint and tile [1, cover_end]; k_of(n) counts the complete
    covers inside [1, n].  norms[j] is the exact L2 norm of S(M_j) . u0 and
    theta_cov[j] the exact d x d covariance of the cover sum S(I_j).
    """

    u0: np.ndarray
    p: float
    r: int
    amplitude: float
    blocks: list
    norms: np.ndarray
    theta_cov: list
    horizon: int
    q0: float | None = None
    q_at_a: float | None = None
    r_certified: bool = False
    a_certified: bool = False

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def i_blocks(self) -> list:
        return [(a, b + self.r) for a, b in self.blocks]

    @property
    def i_ends(self) -> np.ndarray:
        return np.array([b + self.r for _, b in self.blocks], dtype=np.int64)

    @property
    def cover_end(self) -> int:
        return self.blocks[-1][1] + self.r

    def k_of(self, n: int) -> int:
        """Number of complete covers I_j inside [1, n]."""
        return int(np.searchsorted(self.i_ends, n, side="right"))

    def k_array(self, n_max: int) -> np.ndarray:
        """k_of(n) for n = 1..n_max as a vector."""
        return np.searchsorted(self.i_ends, np.arange(1, n_max + 1), side="right")

    def theta_var(self, u: np.ndarray | None = None) -> np.ndarray:
        u = self.u0 if u is None else np.asarray(u, dtype=float)
        return np.array([float(u @ c @ u) for c in self.theta_cov])

    def to_doc(self) -> dict:
        return {
            "r": self.r,
            "amplitude": self.amplitude,
            "p": self.p,
            "u0": [float(x) for x in np.atleast_1d(self.u0)],
            "blocks": [[int(a), int(b)] for a, b in self.blocks],
            "block_l2_norms": [float(x) for x in self.norms],
            "theta_variance": [float(v) for v in self.theta_var()],
            "cover_end": int(self.cover_end),
            "horizon": int(self.horizon),
            "q0": self.q0,
            "q_at_amplitude": self.q_at_a,
            "certified": bool(self.r_certified and self.a_certified),
            "r_certified": bool(self.r_certified),
            "amplitude_certified": bool(self.a_certified),
        }


def _default_u0(chain: ChainSpec) -> np.ndarray:
    u = np.zeros(chain.d)
    u[0] = 1.0
    return u


def build_blocks(
    chain: ChainSpec,
    amplitude: float,
    r: int,
    horizon: int,
    p: float = 4.0,
    q0: float | None = None,
    q_at_a: float | None = None,
    r_certified: bool = False,
    a_certified: bool = False,
) -> BlockPartition:
    """Greedy construction: each block is the shortest interval starting
    r + 1 past the previous block with Var(S(M) . u0) >= amplitude, u0 the
    first coordinate direction.

    Raises VarianceStarvedError when not even one block closes with its cover
    inside the usable horizon.
    """
    if r < 1:
        raise ChainConfigError(f"separation must be >= 1, got {r}")
    if amplitude < 1.0:
        raise ChainConfigError(f"amplitude must be >= 1, got {amplitude}")
    eng = engine_for(chain)
    u0 = _default_u0(chain)
    max_t = chain.max_time
    scan_top = horizon if max_t is None else min(horizon, max_t)

    blocks: list[tuple[int, int]] = []
    norms: list[float] = []
    a = 1
    while a <= scan_top:
        for t, v in eng.scan(a, scan_top, u0):
            hit = np.flatnonzero(v[:, 0] >= amplitude)
            if hit.size:
                break
        else:
            break
        b = t + int(hit[0])
        blocks.append((a, b))
        norms.append(math.sqrt(float(v[hit[0], 0])))
        a = b + r + 1

    # covers must end inside the horizon
    while blocks and blocks[-1][1] + r > scan_top:
        blocks.pop()
        norms.pop()
    if not blocks:
        raise VarianceStarvedError(scan_top)

    # construction postcondition: sqrt(A) <= ||S(M_j)|| <= sqrt(A) + increment
    root_a = math.sqrt(amplitude)
    for (a_j, b_j), nrm in zip(blocks, norms):
        inc = eng.centered_max(a_j, b_j, u0)
        if not (root_a <= nrm + 1e-9 and nrm <= root_a + inc + 1e-9):
            raise RuntimeError(
                f"block [{a_j}, {b_j}] norm {nrm} outside [sqrt(A), sqrt(A) + L]"
            )

    theta_cov = [eng.cov_partial_sum(a_j, b_j + r) for a_j, b_j in blocks]
    return BlockPartition(
        u0=u0, p=float(p), r=int(r), amplitude=float(amplitude),
        blocks=blocks, norms=np.array(norms), theta_cov=theta_cov,
        horizon=int(horizon), q0=q0, q_at_a=q_at_a,
        r_certified=r_certified, a_certified=a_certified,
    )


# ---------------------------------------------------------------------------
# verification


@dataclass
class BlockVerification:
    """Exact extrema realizing the partition inequalities over n <= horizon
    and every unit direction u.  Each extremum of u^T V u is an eigenvalue of
    a d x d covariance V; r1_witness and r2_witness are (n, unit eigenvector).
    Failures are findings, not errors."""

    a1: float
    a2: float
    c: float
    r1: float | None
    r2: float | None
    r1_witness: tuple | None
    r2_witness: tuple | None
    sandwich_min: float
    sandwich_max: float
    sandwich_pass: bool
    sandwich_gated: bool
    ratio_max_dev: float
    ratio_bound: float | None
    ratio_pass: bool | None
    ratio_hypotheses: bool
    separation_ok: bool
    norms_ok: bool
    coverage_ok: bool
    horizon: int
    per_block: list = field(default_factory=list)

    @property
    def structural_ok(self) -> bool:
        return self.separation_ok and self.norms_ok and self.coverage_ok

    def to_doc(self) -> dict:
        return {
            "a1": self.a1, "a2": self.a2, "c": self.c,
            "r1": self.r1, "r2": self.r2,
            "r1_witness": self.r1_witness, "r2_witness": self.r2_witness,
            "sandwich_min": self.sandwich_min, "sandwich_max": self.sandwich_max,
            "sandwich_pass": self.sandwich_pass, "sandwich_gated": self.sandwich_gated,
            "ratio_max_dev": self.ratio_max_dev, "ratio_bound": self.ratio_bound,
            "ratio_pass": self.ratio_pass, "ratio_hypotheses": self.ratio_hypotheses,
            "separation_ok": self.separation_ok, "norms_ok": self.norms_ok,
            "coverage_ok": self.coverage_ok, "structural_ok": self.structural_ok,
            "horizon": self.horizon, "per_block": self.per_block,
        }


def _masked_prefix_vars(eng: MomentEngine, u0: np.ndarray, blocks) -> np.ndarray:
    """Var(S(M^(k)) . u0) at each block end b_k, from one scan over
    [a_1, b_K] whose mask keeps the blocks' times only."""
    a1 = blocks[0][0]
    ends = np.array([b for _, b in blocks])
    inside = np.zeros(ends[-1] - a1 + 1, dtype=bool)
    for a, b in blocks:
        inside[a - a1 : b - a1 + 1] = True
    var = np.concatenate([v[:, 0] for _, v in eng.scan(a1, int(ends[-1]), u0, inside)])
    return var[ends - a1]


def verify_partition(
    chain: ChainSpec,
    partition: BlockPartition,
    horizon: int | None = None,
) -> BlockVerification:
    """Exact evaluation of the partition inequalities over n <= horizon and
    every unit direction u.

    Each extremum of Var(S . u) over unit u is an eigenvalue of the d x d
    covariance of S, polarized from d(d+1)/2 sweep columns: a1 is the least
    sqrt(lambda_min) of a cover covariance, a2 and c the largest
    sqrt(lambda_max) of a prefix and of a suffix sum inside a cover, r1 and
    r2 the extremes of lambda_min(V_n) / k_n and lambda_max(V_n) / k_n.
    Their witnesses are (n, unit eigenvector).

    The sandwich and the block/cover ratio read Var(S(I^(k)) . u0) as the
    (0, 0) entry of v_curve(cover_end) at the cover ends: the covers tile
    [1, cover_end] and u0 is the first coordinate direction."""
    eng = engine_for(chain)
    part = partition
    horizon = part.cover_end if horizon is None else int(horizon)
    if chain.max_time is not None:
        horizon = min(horizon, chain.max_time)
    polar = _polar_directions(chain.d)

    def top_norm(variances, a: int, b: int) -> float:
        eig = np.linalg.eigvalsh(_polarize(variances(a, b, polar), chain.d))
        return math.sqrt(max(float(eig[:, -1].max()), 0.0))

    # per cover: least cover norm, largest prefix and suffix norms
    a1 = math.inf
    a2 = 0.0
    c = 0.0
    per_block = []
    for (a, b), nrm, tv, cov in zip(part.blocks, part.norms, part.theta_var(), part.theta_cov):
        i_norm = math.sqrt(max(float(np.linalg.eigvalsh(cov)[0]), 0.0))
        peak = top_norm(eng.prefix_variances, a, b + part.r)
        s_peak = top_norm(eng.suffix_variances, a, b + part.r)
        a1 = min(a1, i_norm)
        a2 = max(a2, peak)
        c = max(c, s_peak)
        per_block.append({
            "a": int(a), "b": int(b), "block_norm": float(nrm),
            "theta_variance": float(tv), "cover_norm_min": i_norm,
            "prefix_norm_max": peak, "suffix_norm_max": s_peak,
        })

    # lambda(V_n) / k_n bracket over n <= horizon with k_n >= 1
    kn = part.k_array(horizon)
    r1 = r2 = None
    r1_wit = r2_wit = None
    live = kn >= 1
    if live.any():
        vn = eng.v_curve(horizon)[live]
        ns = np.arange(1, horizon + 1)[live]
        eig = np.linalg.eigvalsh(vn)
        low = eig[:, 0] / kn[live]
        high = eig[:, -1] / kn[live]
        i, j = int(np.argmin(low)), int(np.argmax(high))
        r1, r2 = float(low[i]), float(high[j])
        r1_wit = (int(ns[i]), [float(x) for x in np.linalg.eigh(vn[i]).eigenvectors[:, 0]])
        r2_wit = (int(ns[j]), [float(x) for x in np.linalg.eigh(vn[j]).eigenvectors[:, -1]])

    # masked-variance sandwich and the block/cover ratio, both along u0
    var_m = _masked_prefix_vars(eng, part.u0, part.blocks)
    var_i = eng.v_curve(part.cover_end)[part.i_ends - 1, 0, 0]
    sums = np.cumsum(part.norms**2)
    ratios_m = var_m / sums
    sandwich_min = float(ratios_m.min())
    sandwich_max = float(ratios_m.max())
    sandwich_pass = bool(0.5 - 1e-9 <= sandwich_min and sandwich_max <= 1.5 + 1e-9)
    sandwich_gated = bool(part.r_certified and float(part.norms.min()) >= 1.0 - 1e-12)

    dev = np.abs(var_m / var_i - 1.0)
    ratio_max_dev = float(dev.max())
    bound = None
    if part.q_at_a is not None:
        bound = 2.0 * part.q_at_a / part.amplitude
    block_vars = part.norms**2
    hyp = bool(
        part.r_certified and part.a_certified and part.amplitude > 1.0
        and np.all(block_vars >= part.amplitude - 1e-9)
        and np.all(block_vars <= 2.0 * part.amplitude + 1e-9)
    )
    ratio_pass = None if bound is None else bool(ratio_max_dev <= bound + 1e-12)

    root_a = math.sqrt(part.amplitude)
    seps = [n_a - b for (_, b), (n_a, _) in zip(part.blocks, part.blocks[1:])]
    separation_ok = all(s == part.r + 1 for s in seps)
    norms_ok = bool(
        np.all(part.norms >= root_a - 1e-9)
        and np.all(part.norms <= root_a + chain.L + 1e-9)
    )
    coverage_ok = part.blocks[0][0] == 1 and separation_ok

    return BlockVerification(
        a1=a1, a2=a2, c=c, r1=r1, r2=r2, r1_witness=r1_wit, r2_witness=r2_wit,
        sandwich_min=sandwich_min, sandwich_max=sandwich_max,
        sandwich_pass=sandwich_pass, sandwich_gated=sandwich_gated,
        ratio_max_dev=ratio_max_dev, ratio_bound=bound, ratio_pass=ratio_pass,
        ratio_hypotheses=hyp, separation_ok=separation_ok, norms_ok=norms_ok,
        coverage_ok=coverage_ok, horizon=horizon, per_block=per_block,
    )


# ---------------------------------------------------------------------------
# between-block covariance bound


@dataclass
class CovInequality:
    cov_abs: float
    bound: float
    passes: bool
    r: int
    alpha_r: float
    norm1: float
    norm2: float
    exact: bool


def _as_intervals(m) -> list:
    """Normalize an index set (iterable of ints or (a, b) pairs) to sorted
    disjoint intervals."""
    pts: set[int] = set()
    for item in m:
        if isinstance(item, (tuple, list)):
            a, b = int(item[0]), int(item[1])
            if b < a:
                raise ChainConfigError(f"bad interval [{a}, {b}]")
            pts.update(range(a, b + 1))
        else:
            pts.add(int(item))
    if not pts:
        raise ChainConfigError("empty index set")
    seq = sorted(pts)
    out = []
    a = prev = seq[0]
    for x in seq[1:]:
        if x == prev + 1:
            prev = x
            continue
        out.append((a, prev))
        a = prev = x
    out.append((a, prev))
    return out


def covariance_inequality_check(
    chain: ChainSpec,
    m1,
    m2,
    p: int = 4,
) -> CovInequality:
    """|Cov(S(M1) . u, S(M2) . u)| against 8 ||S(M1)||_p ||S(M2)||_p alpha(r)^(1-2/p),
    u the first coordinate direction.

    Both sides exact: the covariance by masked sweeps, the L^p norms by the
    forward moment recursion (MomentEngine.lp_norm), alpha(r) from its closed
    form over the pair laws at the separating gap r = min M2 - max M1,
    maximized over start times j <= min(max M2, 24).
    """
    eng = engine_for(chain)
    u = _default_u0(chain)
    segs1 = _as_intervals(m1)
    segs2 = _as_intervals(m2)
    r = segs2[0][0] - segs1[-1][1]
    if r < 1:
        raise ChainConfigError(f"index sets must be separated, got gap {r}")
    cov = abs(eng.cross_cov_segments(u, segs1, segs2))

    def lp(segs) -> LpNorm:
        return eng.lp_norm(segs[0][0], segs[-1][1], u, p, segments=segs)

    n1 = lp(segs1)
    n2 = lp(segs2)
    alpha_r, _ = alpha_phi(chain, r, range(1, min(segs2[-1][1], 24) + 1))
    bound = 8.0 * n1.value * n2.value * alpha_r ** (1.0 - 2.0 / p)
    return CovInequality(
        cov_abs=cov, bound=bound, passes=bool(cov <= bound + 1e-12), r=r,
        alpha_r=alpha_r, norm1=n1.value, norm2=n2.value,
        exact=bool(n1.exact and n2.exact),
    )


# ---------------------------------------------------------------------------
# end-to-end planning


@dataclass
class PartitionPlan:
    envelope: Envelope
    n0: int | None
    r: int
    tail_sum: float
    q0: float
    q_at_a: float
    amplitude: float
    certificate: float
    horizon: int
    p: float = 4.0
    c_p: float = 8.0

    def to_doc(self) -> dict:
        return {
            "envelope_c": self.envelope.c,
            "envelope_delta": self.envelope.delta,
            "envelope_degenerate": self.envelope.degenerate,
            "n0": self.n0,
            "p": self.p,
            "c_p": self.c_p,
            "r": self.r,
            "tail_sum": self.tail_sum,
            "q0": self.q0,
            "q_at_amplitude": self.q_at_a,
            "amplitude": self.amplitude,
            "certificate": self.certificate,
            "horizon": self.horizon,
        }


def plan_partition(
    chain: ChainSpec,
    p: float = 4.0,
    c_p: float = 8.0,
    horizon: int | None = None,
    min_blocks: int = 3,
) -> tuple[BlockPartition, PartitionPlan]:
    """Full pipeline: mixing envelope -> separation -> amplitude -> blocks.

    The envelope is mixing_report's default fit (the chain's kept report
    once it has one), and the blocks are built along the first coordinate
    direction u0.  The exact variance growth rate along u0 over the first
    256 times is probed first; a rate <= 1e-12
    raises VarianceStarvedError at the probe index, with or without a given
    horizon.  A given horizon is final: the partition that closes
    there is returned, even with fewer than min_blocks blocks, and
    VarianceStarvedError(horizon) is raised when none closes.  Otherwise the
    horizon is sized from that rate so at least min_blocks blocks close, then
    doubled as needed up to HORIZON_CAP."""
    eng = engine_for(chain)
    u0 = _default_u0(chain)
    rep = mixing_report(chain)
    env = rep.envelope
    r, tail = select_separation(env, p, c_p)
    q0 = q_zero(r, p, chain.L, env, c_p)
    amplitude, cert = select_amplitude(q0)
    q_at_a = q_of_amplitude(amplitude, q0)

    probe = 256
    if chain.max_time is not None:
        probe = min(probe, chain.max_time - 1)
    rate = eng.var_window(1, probe, u0) / probe
    if rate <= 1e-12:
        raise VarianceStarvedError(probe)
    if horizon is None:
        horizon_cap = HORIZON_CAP
        horizon = int(min_blocks * (amplitude / rate) * 1.4)
        horizon += (min_blocks + 1) * (r + 1) + 64
        horizon = max(2048, min(horizon, horizon_cap))
    else:
        horizon_cap = horizon

    while True:
        try:
            part = build_blocks(
                chain, amplitude, r, horizon, p=p, q0=q0, q_at_a=q_at_a,
                r_certified=True, a_certified=True,
            )
        except VarianceStarvedError:
            part = None
        if part is not None and part.count >= min_blocks:
            break
        if horizon >= horizon_cap or (
            chain.max_time is not None and horizon >= chain.max_time
        ):
            if part is None:
                raise VarianceStarvedError(horizon)
            break
        horizon = min(horizon * 2, horizon_cap)

    plan = PartitionPlan(
        envelope=env, n0=rep.n0, r=r, tail_sum=tail, q0=q0, q_at_a=q_at_a,
        amplitude=amplitude, certificate=cert, horizon=horizon, p=p, c_p=c_p,
    )
    return part, plan
