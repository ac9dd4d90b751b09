"""Hard-invariant verification over the built-in chain battery.

Runs the zero-tolerance checks (model consistency, mixing identities,
partition postconditions, covariance inequality, frequency-gap decay) on
every battery chain and reports per-check pass/fail.  Statistical
diagnostics that need Monte Carlo live in `simulate`; this module is fully
deterministic and worker-free, so its output is reproducible byte for byte.

The fault hook deliberately corrupts one kernel row after the chain builds,
bypassing document validation; the model-consistency check must then be the
first failure.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .battery import battery, entry
from .blocks import covariance_inequality_check, plan_partition, verify_partition
from .chain import ChainConfigError, ChainSpec
from .mixing import condition_h_profile, mixing_report

FAULT_KINDS = ("kernel-row",)


@dataclass
class CheckResult:
    chain: str
    check: str
    passed: bool
    detail: str

    def to_doc(self) -> dict:
        return {
            "chain": self.chain, "check": self.check,
            "passed": self.passed, "detail": self.detail,
        }


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)
    fault: str | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def to_doc(self) -> dict:
        first = self.first_failure
        return {
            "fault": self.fault,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "all_passed": self.all_passed,
            "first_failure": None if first is None else first.to_doc(),
            "checks": [c.to_doc() for c in self.checks],
        }


def inject_fault(chain: ChainSpec, kind: str = "kernel-row") -> ChainSpec:
    """Corrupt kernel 1's array in place, bypassing document validation:
    battery chain 0, which run_verification corrupts, is periodic and keeps it."""
    if kind not in FAULT_KINDS:
        raise ChainConfigError(f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")
    k = chain.kernel(1)
    k[0, 0] += 0.05
    return chain


def _check_model(chain: ChainSpec, probe_times) -> tuple[bool, str]:
    for j in probe_times:
        k = chain.kernel(j)
        if np.any(k < -1e-15):
            return False, f"kernel {j} has a negative entry"
        rs = k.sum(axis=1)
        bad = np.argmax(np.abs(rs - 1.0))
        if abs(rs[bad] - 1.0) > 1e-12:
            return False, f"kernel {j} row {bad} sums to {float(rs[bad])!r}"
        m = chain.marginal(j)
        if abs(float(m.sum()) - 1.0) > 1e-9 or np.any(m < -1e-15):
            return False, f"marginal at time {j} is not a probability vector"
        if np.max(np.abs(chain.obs(j))) > chain.L + 1e-12:
            return False, f"observable at time {j} exceeds declared bound L"
    return True, f"kernels, marginals, observable bound checked at {len(list(probe_times))} times"


def verify_chain(name: str, fault: str | None = None) -> list:
    """All hard checks for one battery chain, in fixed order."""
    ent = entry(name)
    chain = ent.build()
    if fault is not None:
        inject_fault(chain, fault)
    out = []

    ok, detail = _check_model(chain, range(1, 9))
    out.append(CheckResult(name, "model-consistency", ok, detail))
    if not ok:
        # downstream exact sweeps would propagate the corrupted law; stop here
        return out

    rep = mixing_report(chain)
    try:
        rep.check_identities()
    except AssertionError as exc:
        out.append(CheckResult(name, "mixing-identities", False, str(exc)))
    else:
        out.append(CheckResult(
            name, "mixing-identities", True,
            f"alpha<=phi, monotone, rho<=sqrt(pi), envelope holds (n0={rep.n0})",
        ))
    out.append(CheckResult(
        name, "envelope-localized", rep.n0 is not None,
        f"n0={rep.n0}" if rep.n0 is not None else "phi never drops below 1/2 in range",
    ))

    part, plan = plan_partition(chain)
    ver = verify_partition(chain, part)
    out.append(CheckResult(
        name, "partition-structure", ver.structural_ok,
        f"r={part.r} A={part.amplitude:.6g} blocks={part.count} "
        f"cover={part.cover_end} separated={ver.separation_ok} covering={ver.coverage_ok}",
    ))
    out.append(CheckResult(
        name, "block-norms", ver.norms_ok,
        f"sqrt(A)={part.amplitude**0.5:.6g} <= norms <= sqrt(A)+L on all blocks",
    ))
    sandwich_ok = ver.sandwich_pass or not ver.sandwich_gated
    out.append(CheckResult(
        name, "variance-sandwich", sandwich_ok,
        f"ratios in [{ver.sandwich_min:.6g}, {ver.sandwich_max:.6g}]"
        + ("" if ver.sandwich_gated else " (not gated: bound not claimed)"),
    ))
    ratio_ok = (ver.ratio_pass is not False) if ver.ratio_hypotheses else True
    out.append(CheckResult(
        name, "block-variance-ratio", ratio_ok,
        f"max dev {ver.ratio_max_dev:.6g}"
        + (f" <= bound {ver.ratio_bound:.6g}" if ver.ratio_hypotheses and ver.ratio_bound is not None
           else " (hypotheses not met: bound not claimed)"),
    ))

    civ = covariance_inequality_check(chain, [(1, 12)], [(18, 29)])
    out.append(CheckResult(
        name, "covariance-inequality", civ.passes and civ.exact,
        f"|cov|={civ.cov_abs:.6g} <= {civ.bound:.6g} (exact={civ.exact})",
    ))

    prof = condition_h_profile(chain)
    if "iid" in ent.tags:
        hok = prof.all_zero
        hdetail = ("gaps identically zero" if hok
                   else f"max gap {max(g for _, g in prof.gaps):.3g} != 0")
    else:
        hok = (not prof.all_zero) and prof.c_prime is not None and prof.c_prime > 0
        hdetail = (f"c'={prof.c_prime:.4g} C'={prof.big_c:.4g}" if hok
                   else f"no certified decay (c'={prof.c_prime})")
    out.append(CheckResult(name, "frequency-gap-decay", hok, hdetail))
    return out


def run_verification(names=None, fault: str | None = None, progress=None) -> VerifyReport:
    """Run the hard-invariant suite; `fault` corrupts the first chain only.

    `progress` is an optional callable taking (chain_name, checks_so_far),
    invoked after each chain; the CLI uses it for stderr status lines.
    """
    if names is None:
        names = [e.name for e in battery()]
    report = VerifyReport(fault=fault)
    for i, name in enumerate(names):
        checks = verify_chain(name, fault=fault if i == 0 else None)
        report.checks.extend(checks)
        if progress is not None:
            progress(name, checks)
    return report
