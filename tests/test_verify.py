"""The hard-invariant checker and its fault injection."""
from asipkit.battery import entry
from asipkit.verify import FAULT_KINDS, inject_fault, run_verification, verify_chain


def test_verify_chain_passes_on_reference():
    checks = verify_chain("sym2_p05")
    assert all(c.passed for c in checks)
    names = [c.check for c in checks]
    assert names[0] == "model-consistency"
    assert "partition-structure" in names and "frequency-gap-decay" in names


def test_injected_fault_breaks_model_consistency():
    checks = verify_chain("sym2_p00", fault="kernel-row")
    first = next(c for c in checks if not c.passed)
    assert first.check == "model-consistency"
    assert "sums to" in first.detail
    # the fault stops the expensive checks from running on a broken model
    assert len(checks) == 1


def test_inject_fault_mutates_kernel():
    ch = entry("sym2_p05").build()
    before = ch.kernel(1).copy()
    inject_fault(ch, "kernel-row")
    after = ch.kernel(1)
    assert abs(after[0, 0] - before[0, 0] - 0.05) < 1e-15
    assert "kernel-row" in FAULT_KINDS


def test_run_verification_report():
    rep = run_verification(names=["sym2_p00", "sym2_p01"])
    assert rep.all_passed and rep.n_failed == 0
    assert rep.first_failure is None
    doc = rep.to_doc()
    assert doc["n_checks"] == len(rep.checks) and doc["n_failed"] == 0
    chains = {c.chain for c in rep.checks}
    assert chains == {"sym2_p00", "sym2_p01"}


def test_run_verification_with_fault():
    # fault applies to the first chain only; the second still passes
    progress = []
    rep = run_verification(
        names=["sym2_p00", "sym2_p01"],
        fault="kernel-row",
        progress=lambda name, checks: progress.append(name),
    )
    assert not rep.all_passed
    ff = rep.first_failure
    assert ff.chain == "sym2_p00" and ff.check == "model-consistency"
    assert all(c.passed for c in rep.checks if c.chain == "sym2_p01")
    assert progress == ["sym2_p00", "sym2_p01"]
    d = rep.to_doc()
    assert d["first_failure"]["check"] == "model-consistency"
