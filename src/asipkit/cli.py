"""Command-line interface.

Subcommands: moments, mixing, blocks, simulate, verify.  Each writes its
`<command>_report.json` (and CSV curve tables) into --out through _write;
--json prints the report file's text to stdout instead of the human summary.
Defaults the reports record as resolved values are declared in the parser.
`blocks` and `simulate` build their partition through _partition, so an
--amplitude/--separation override fails the same way (exit 4) in both.

Exit codes: 0 pass, 1 internal error, 2 input error, 3 hypothesis not met,
4 construction failure.  Reports never contain timestamps or worker counts,
so a fixed seed reproduces them byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .blocks import (
    VarianceStarvedError,
    build_blocks,
    plan_partition,
    q_of_amplitude,
    q_zero,
    select_amplitude,
    select_separation,
    verify_partition,
)
from .chain import ChainConfigError, build_chain
from .mixing import condition_h_profile, mixing_report
from .moments import engine_for
from .simulate import (
    clt_diagnostic,
    gaussian_surrogate,
    rate_scaling_diagnostic,
    sample_paths,
    variance_matching_diagnostic,
)
from .util import direction_grid, fmt_float
from .verify import run_verification

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_CONSTRUCTION = 4


class InputError(Exception):
    """Bad file, bad JSON, or a parameter outside its precondition."""


class ConstructionError(Exception):
    """No block partition for the flags given (exit 4)."""


# -- serialization -----------------------------------------------------------


def _scrub(x):
    """JSON-ready: python scalars only, non-finite floats become null."""
    if isinstance(x, dict):
        return {str(k): _scrub(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_scrub(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _scrub(x.tolist())
    return x


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def _report(command: str, chain_name: str, config: dict,
            seeds: dict | None = None, exactness: dict | None = None) -> dict:
    return {
        "tool": "asipkit",
        "version": __version__,
        "command": command,
        "chain": chain_name,
        "config": config,
        "seeds": seeds or {},
        "exactness": exactness or {},
    }


def _write(args, doc: dict, lines: list, tables=()) -> None:
    """Write `<command>_report.json` and each (file name, header, rows)
    table into --out, then print the report's text (--json) or `lines`
    and one `wrote <path>` line per file."""
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    text = json.dumps(_scrub(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    bodies = {f"{doc['command']}_report.json": text}
    for name, header, rows in tables:
        table = [",".join(header)] + [",".join(_cell(r[h]) for h in header) for r in rows]
        bodies[name] = "\n".join(table) + "\n"
    paths = [os.path.join(out, name) for name in bodies]
    for path, body in zip(paths, bodies.values()):
        with open(path, "w") as fh:
            fh.write(body)
    if args.json:
        sys.stdout.write(text)
    else:
        print("\n".join(lines + [f"wrote {path}" for path in paths]))


# -- input handling ----------------------------------------------------------


def _load_chain(path: str):
    """The chain of the file at `path`; build_chain's ChainConfigError names
    the file and exits 2 through main."""
    if path is None:
        raise InputError("--chain is required")
    if not os.path.exists(path):  # build_chain would read the text as a JSON document
        raise InputError(f"chain file not found: {path}")
    return build_chain(path)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _validate_common(args) -> None:
    if getattr(args, "horizon", None) is not None:
        _require(args.horizon >= 1, f"--horizon must be >= 1, got {args.horizon}")
    if getattr(args, "paths", None) is not None:
        _require(args.paths >= 1, f"--paths must be >= 1, got {args.paths}")
    if getattr(args, "seed", None) is not None:
        _require(0 <= args.seed < 2**64, f"--seed must be a u64, got {args.seed}")
    if getattr(args, "p", None) is not None:
        _require(args.p > 2.0, f"--p must exceed 2, got {args.p}")
    if getattr(args, "cp", None) is not None:
        _require(args.cp > 0.0, f"--cp must be positive, got {args.cp}")
    if getattr(args, "delta", None) is not None:
        _require(0.0 < args.delta <= 0.5, f"--delta must lie in (0, 0.5], got {args.delta}")
    if getattr(args, "amplitude", None) is not None:
        _require(args.amplitude >= 1.0, f"--amplitude must be >= 1, got {args.amplitude}")
    if getattr(args, "separation", None) is not None:
        _require(args.separation >= 1, f"--separation must be >= 1, got {args.separation}")
    if getattr(args, "directions", None) is not None:
        _require(args.directions >= 1, f"--directions must be >= 1, got {args.directions}")


def _partition(chain, args, horizon: int | None):
    """(partition, plan) for the flags of `blocks` and `simulate`.

    Without --amplitude and --separation this is plan_partition's certified
    plan.  Otherwise plan is None, and the partition is built at `horizon`
    (2048 when None).  The mixing envelope is computed only when one of the
    two is missing; the certified r or A then fills it in.  Q0 and Q(A) are
    recorded whenever an envelope exists.  Given both, nothing is certified.
    A partition that cannot be built raises ConstructionError."""
    try:
        if args.amplitude is None and args.separation is None:
            return plan_partition(chain, p=args.p, c_p=args.cp, horizon=horizon)
        amplitude, r = args.amplitude, args.separation
        q0 = qa = None
        if amplitude is None or r is None:
            envelope = mixing_report(chain).envelope
            if r is None:
                r, _ = select_separation(envelope, args.p, c_p=args.cp)
            q0 = q_zero(r, args.p, chain.L, envelope, c_p=args.cp)
            if amplitude is None:
                amplitude, _ = select_amplitude(q0)
            qa = q_of_amplitude(amplitude, q0)
        r_cert = args.separation is None
        part = build_blocks(
            chain, amplitude, r, 2048 if horizon is None else horizon, p=args.p, q0=q0,
            q_at_a=qa, r_certified=r_cert, a_certified=r_cert and args.amplitude is None,
        )
        return part, None
    except (VarianceStarvedError, ChainConfigError) as exc:
        raise ConstructionError(exc) from exc


def _selection(part, args) -> str | None:
    """How r and A were chosen, for `exactness.selection`."""
    if part is None:
        return None
    if part.r_certified and part.a_certified:
        return "certified"
    if args.amplitude is not None and args.separation is not None:
        return "as-given"
    if part.r_certified:
        return "r certified, amplitude as-given"
    return "r as-given, amplitude from Q0 at that r"


# -- subcommands -------------------------------------------------------------


def cmd_moments(args) -> int:
    chain = _load_chain(args.chain)
    horizon = args.horizon
    eng = engine_for(chain)
    vc = eng.v_curve(horizon)
    d = chain.d
    eigs = np.linalg.eigvalsh(vc)
    sc = eigs[:, 0]
    # a rank-deficient V_n leaves rounding noise, of either sign, in eig_min
    singular = eigs[:, 0] <= 1e-14 * np.maximum(1.0, eigs[:, -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(singular, np.inf, eigs[:, -1] / eigs[:, 0])
    cols = [(i, j) for i in range(d) for j in range(i, d)]
    rows = []
    for n in range(1, horizon + 1):
        row = {"n": n}
        for i, j in cols:
            row[f"v_{i}{j}"] = float(vc[n - 1, i, j])
        row["s_n"] = float(sc[n - 1])
        row["eigen_ratio"] = float(ratios[n - 1])
        rows.append(row)
    doc = _report(
        "moments", chain.name,
        {"chain_path": args.chain, "horizon": horizon, "d": d},
        exactness={"moments": "exact"},
    )
    doc["table"] = rows
    header = ["n"] + [f"v_{i}{j}" for i, j in cols] + ["s_n", "eigen_ratio"]
    _write(args, doc, [
        f"exact moments for {chain.name}: horizon {horizon}, d={d}",
        f"s_{horizon} = {fmt_float(sc[-1])}",
    ], [("moments_table.csv", header, rows)])
    return EXIT_OK


def cmd_mixing(args) -> int:
    chain = _load_chain(args.chain)
    rep = mixing_report(chain)
    prof = condition_h_profile(chain)
    h_ks = [int(k) for k, _ in prof.gaps]
    h_gaps = [float(g) for _, g in prof.gaps]
    doc = _report(
        "mixing", chain.name,
        {"chain_path": args.chain, "k_max": len(rep.ks), "j_probe": list(rep.j_probe)},
        exactness={"coefficients": "exact", "envelope": "least-squares fit, sup-corrected"},
    )
    doc["mixing"] = {
        "k": list(rep.ks),
        "alpha": list(rep.alpha),
        "phi": list(rep.phi),
        "pi": list(rep.pi),
        "rho": list(rep.rho),
        "delta_pi": rep.delta_pi,
        "rho_sup": rep.rho_sup,
        "envelope": {
            "c": rep.envelope.c,
            "delta": rep.envelope.delta,
            "degenerate": rep.envelope.degenerate,
        },
        "n0": rep.n0,
    }
    doc["condition_h"] = {
        "k": h_ks,
        "gaps": h_gaps,
        "eps0": prof.eps0,
        "c_prime": prof.c_prime,
        "big_c": prof.big_c,
        "all_zero": prof.all_zero,
    }
    curve = [
        {"k": k, "alpha": a, "phi": p, "envelope": rep.envelope.value(k)}
        for k, a, p in zip(rep.ks, rep.alpha, rep.phi)
    ]
    if rep.n0 is None:
        print("warning: n0 not found in scanned range (phi stays >= 1/2)", file=sys.stderr)
    _write(args, doc, [
        f"mixing report for {chain.name}: alpha(1)={fmt_float(rep.alpha[0])} "
        f"phi(1)={fmt_float(rep.phi[0])} delta_pi={fmt_float(rep.delta_pi)} n0={rep.n0}",
    ], [
        ("mixing_curve.csv", ["k", "alpha", "phi", "envelope"], curve),
        ("condition_h.csv", ["k", "gap"], [{"k": k, "gap": g} for k, g in zip(h_ks, h_gaps)]),
    ])
    return EXIT_HYPOTHESIS if rep.n0 is None else EXIT_OK


def cmd_blocks(args) -> int:
    chain = _load_chain(args.chain)
    part, plan = _partition(chain, args, args.horizon)
    ver = verify_partition(chain, part)
    doc = _report(
        "blocks", chain.name,
        {
            "chain_path": args.chain, "p": args.p, "cp": args.cp,
            "amplitude_override": args.amplitude, "separation_override": args.separation,
            "horizon": args.horizon,
        },
        exactness={"variances": "exact", "selection": _selection(part, args)},
    )
    doc["plan"] = None if plan is None else plan.to_doc()
    doc["partition"] = part.to_doc()
    doc["verification"] = ver.to_doc()
    rows = [
        {"j": j + 1, "a": a, "b": b, "i_end": b + part.r,
         "norm": float(part.norms[j]), "theta_var": float(tv)}
        for j, ((a, b), tv) in enumerate(zip(part.blocks, part.theta_var()))
    ]
    _write(args, doc, [
        f"partition for {chain.name}: r={part.r} A={fmt_float(part.amplitude)} "
        f"blocks={part.count} cover=[1, {part.cover_end}]",
        f"verification: structural={ver.structural_ok} norms={ver.norms_ok} "
        f"sandwich=[{fmt_float(ver.sandwich_min)}, {fmt_float(ver.sandwich_max)}] "
        f"ratio_dev={fmt_float(ver.ratio_max_dev)}",
    ], [("blocks_table.csv", ["j", "a", "b", "i_end", "norm", "theta_var"], rows)])
    if not ver.claims_hold:
        print("warning: partition verification failed a claimed bound", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _checkpoints(eng, horizon: int) -> tuple[list, int | None]:
    pts = np.unique(np.round(np.geomspace(1, horizon, 12)).astype(int))
    sc = eng.s_curve(horizon)
    hits = np.nonzero(sc >= 200.0)[0]
    first200 = int(hits[0]) + 1 if hits.size else None
    if first200 is not None:
        pts = np.union1d(pts, [first200])
    return [int(x) for x in pts], first200


def cmd_simulate(args) -> int:
    chain = _load_chain(args.chain)
    horizon, paths, seed, delta = args.horizon, args.paths, args.seed, args.delta
    checkpoints, first200 = _checkpoints(engine_for(chain), horizon)

    part = part_note = None
    try:
        part, _plan = _partition(chain, args, horizon)
    except ConstructionError as exc:
        # a planned partition that does not fit is noted; an override's
        # failure exits 4, as in `blocks`
        if args.amplitude is not None or args.separation is not None:
            raise
        part_note = f"no partition at this horizon: {exc}"

    batch = sample_paths(chain, horizon, paths, seed, checkpoints, partition=part)
    dirs = None
    if chain.d > 1:
        dirs = direction_grid(chain.d, args.directions if args.directions is not None else 4)
    ks = clt_diagnostic(batch, chain, directions=dirs)

    vm = rate = None
    surrogate_seed = None
    if part is not None and part.count >= 1:
        vm = variance_matching_diagnostic(chain, part, delta=delta)
        surrogate_seed = seed + 1
        sur = gaussian_surrogate(part, paths, surrogate_seed)
        kvals = [int(x) for x in np.unique(
            np.round(np.geomspace(1, part.count, min(12, part.count))).astype(int)
        )]
        rate = rate_scaling_diagnostic(
            batch, chain, part, delta=delta, surrogate=sur, k_values=kvals,
        )

    doc = _report(
        "simulate", chain.name,
        {
            "chain_path": args.chain, "horizon": horizon, "paths": paths,
            "delta": delta, "p": args.p, "cp": args.cp,
            "amplitude_override": args.amplitude,
            "separation_override": args.separation,
            "directions": args.directions, "checkpoints": checkpoints,
            "first_checkpoint_s_ge_200": first200,
        },
        seeds={"paths": seed, "surrogate": surrogate_seed},
        exactness={
            "ks": "monte-carlo", "variance_matching": "exact",
            "rate_w1": "monte-carlo vs surrogate samples",
            "selection": _selection(part, args),
        },
    )
    ks_rows = [
        {"n": pt.n, "direction_id": pt.direction,
         "ks": None if pt.skipped else pt.ks,
         "stderr": None if pt.skipped else pt.stderr}
        for pt in ks.points
    ]
    doc["ks"] = {"max_ks": ks.max_ks, "points": ks_rows}
    tables = [("ks_curve.csv", ["n", "direction_id", "ks", "stderr"], ks_rows)]
    doc["variance_matching"] = None if vm is None else {
        "c_max": vm.c_max, "delta": vm.delta, "points": vm.to_rows(),
    }
    doc["rate"] = None if rate is None else {
        "delta": rate.delta, "bounded": rate.bounded,
        "proxy_note": rate.proxy_note, "points": rate.to_rows(),
    }
    if vm is not None:
        tables.append(("variance_matching.csv", ["k", "n", "gap", "normalizer", "ratio"],
                       vm.to_rows()))
    if rate is not None:
        tables.append(("rate_curve.csv", ["k", "n", "w1", "stderr", "normalizer", "ratio",
                                          "sigma"], rate.to_rows()))
    doc["partition"] = None if part is None else part.to_doc()
    doc["partition_note"] = part_note
    _write(args, doc, [
        f"simulated {paths} paths of {chain.name} to horizon {horizon} (seed {seed})",
        f"ks max over checkpoints: "
        + ("all skipped" if ks.max_ks is None else fmt_float(ks.max_ks)),
    ], tables)
    return EXIT_OK


def cmd_verify(args) -> int:
    fault = "kernel-row" if args.inject_fault else None

    def progress(name, checks):
        bad = [c for c in checks if not c.passed]
        status = "ok" if not bad else f"FAIL ({bad[0].check})"
        print(f"[verify] {name}: {status}", file=sys.stderr)

    rep = run_verification(fault=fault, progress=progress)
    doc = _report(
        "verify", "battery",
        {"fault": fault, "n_chains": len({c.chain for c in rep.checks})},
        exactness={"suite": "exact invariants only"},
    )
    doc.update(rep.to_doc())
    if rep.all_passed:
        lines = [f"all {len(rep.checks)} checks passed on {doc['config']['n_chains']} chains"]
    else:
        ff = rep.first_failure
        lines = [f"{rep.n_failed} of {len(rep.checks)} checks failed",
                 f"first failure: {ff.chain} {ff.check}: {ff.detail}"]
    _write(args, doc, lines)
    return EXIT_OK if rep.all_passed else EXIT_HYPOTHESIS


# -- entry point --------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="asipkit",
        description="Exact moments, mixing coefficients, block partitions, and "
        "simulation diagnostics for non-stationary finite-state chains.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, chain: bool = True):
        if chain:
            sp.add_argument("--chain", help="path to a chain-spec JSON document")
        sp.add_argument("--out", help="output directory (default: .)")
        sp.add_argument("--json", action="store_true", help="print the JSON report to stdout")

    def partition_flags(sp, p_for: str, chosen: str):
        sp.add_argument("--p", type=float, default=4.0,
                        help=f"moment order for {p_for} (default %(default)s)")
        sp.add_argument("--cp", type=float, default=8.0,
                        help="moment constant c_p (default %(default)s)")
        sp.add_argument("--amplitude", type=float,
                        help=f"block variance target A (default: {chosen})")
        sp.add_argument("--separation", type=int, help=f"gap length r (default: {chosen})")

    sp = sub.add_parser("moments", help="exact V_n / s_n / eigen-ratio tables")
    common(sp)
    sp.add_argument("--horizon", type=int, default=100, help="largest n (default %(default)s)")
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("mixing", help="mixing coefficients, envelope, frequency-gap profile")
    common(sp)
    sp.set_defaults(fn=cmd_mixing)

    sp = sub.add_parser("blocks", help="build and verify a variance-balanced partition")
    common(sp)
    partition_flags(sp, "the covariance bound", "certified")
    sp.add_argument("--horizon", type=int,
                    help="cover horizon (default: auto; 2048 with an override)")
    sp.set_defaults(fn=cmd_blocks)

    sp = sub.add_parser("simulate", help="seeded path sampling with CLT/variance diagnostics")
    common(sp)
    sp.add_argument("--horizon", type=int, default=2048, help="path length (default %(default)s)")
    sp.add_argument("--paths", type=int, default=10_000,
                    help="number of paths (default %(default)s)")
    sp.add_argument("--seed", type=int, default=42, help="base seed (default %(default)s)")
    sp.add_argument("--delta", type=float, default=0.1,
                    help="normalizer exponent offset (default %(default)s)")
    partition_flags(sp, "partition planning", "planned")
    sp.add_argument("--directions", type=int, help="KS direction-grid size for d > 1 (default 4)")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("verify", help="run the hard-invariant suite on the built-in battery")
    common(sp, chain=False)
    sp.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one kernel row to demonstrate failure reporting",
    )
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2 (EXIT_INPUT), --help 0
        return exc.code
    try:
        _validate_common(args)
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstructionError, VarianceStarvedError) as exc:
        print(f"block construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ChainConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
