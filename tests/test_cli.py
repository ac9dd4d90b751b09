"""CLI behavior: report files, oracle values, exit codes, flag validation.

Commands run in-process through main(argv); byte-level determinism of the
subprocess entry point is covered by the acceptance suite.
"""
import ast
import csv
import json
import os
from pathlib import Path

import asipkit
from asipkit import __version__
from asipkit.cli import (
    EXIT_CONSTRUCTION,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_OK,
    _build_parser,
    main,
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_moments_report(chain_files, tmp_path):
    out = tmp_path / "m"
    rc = main(["moments", "--chain", chain_files["sym"], "--out", str(out)])
    assert rc == EXIT_OK
    doc = read_json(out / "moments_report.json")
    assert doc["tool"] == "asipkit" and doc["version"] == __version__
    assert doc["chain"] == "sym_ref" and doc["command"] == "moments"
    assert doc["config"]["horizon"] == 100
    rows = {r["n"]: r for r in doc["table"]}
    assert rows[2]["s_n"] == 3.0
    assert rows[100]["s_n"] == 296.0
    assert all(r["eigen_ratio"] == 1.0 for r in doc["table"])
    table = read_csv(out / "moments_table.csv")
    assert table[0] == ["n", "v_00", "s_n", "eigen_ratio"]
    assert table[2] == ["2", "3.0", "3.0", "1.0"]


def test_moments_eigen_ratio_is_inf_where_v_n_is_singular(tmp_path):
    for name, obs, d in (
        # d = 2 with both coordinates equal: every V_n has rank one, so every
        # eig_min is rounding noise next to eig_max
        ("rank1", [[1.0, 1.0], [-1.0, -1.0]], 2),
        # d = 1 with a zero observable: every V_n is 0
        ("zero", [[0.0], [0.0]], 1),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({
            "kernels": {"periodic": [[[0.6, 0.4], [0.4, 0.6]]]}, "initial": [0.5, 0.5],
            "observable": {"constant": obs}, "L": 1.0, "d": d,
        }))
        out = tmp_path / name
        rc = main(["moments", "--chain", str(p), "--horizon", "12", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_json(out / "moments_report.json")["table"]
        assert [r["eigen_ratio"] for r in rows] == [None] * 12, name  # inf is written as null
        table = read_csv(out / "moments_table.csv")
        assert [row[-1] for row in table[1:]] == ["inf"] * 12, name


def test_moments_missing_file(tmp_path, capsys):
    rc = main(["moments", "--chain", "/no/such/chain.json", "--out", str(tmp_path)])
    assert rc == EXIT_INPUT
    assert "/no/such/chain.json" in capsys.readouterr().err


def test_moments_missing_file_says_not_found(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["moments", "--chain", str(missing), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: chain file not found: {missing}\n"


def test_moments_directory_cannot_be_read(tmp_path, capsys):
    rc = main(["moments", "--chain", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read chain file {tmp_path}: ")
    assert err.count(str(tmp_path)) == 1, err


def test_repeated_main_calls_write_identical_reports(chain_files, tmp_path):
    # the parser is built once per process; a second run must not see the first
    assert _build_parser() is _build_parser()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main([
            "simulate", "--chain", chain_files["sym"], "--horizon", "64", "--paths", "200",
            "--seed", "3", "--amplitude", "10", "--separation", "2", "--out", str(out),
        ]) == EXIT_OK
        assert main(["moments", "--chain", chain_files["sym"], "--horizon", "20",
                     "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and len(names) == 6
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_moments_json_flag(chain_files, tmp_path, capsys):
    # --json prints the bytes of the report file each command writes
    sym = ["--chain", chain_files["sym"]]
    for argv in (
        ["moments", *sym, "--horizon", "10"], ["mixing", *sym], ["blocks", *sym],
        ["simulate", *sym, "--horizon", "64", "--paths", "50", "--seed", "3"], ["verify"],
    ):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out), "--json"]) == EXIT_OK, argv
        printed = capsys.readouterr().out
        assert printed.encode() == (out / f"{argv[0]}_report.json").read_bytes(), argv
    assert json.loads(printed)["command"] == "verify"
    assert read_json(tmp_path / "moments" / "moments_report.json")["config"]["horizon"] == 10


def test_mixing_oracles(chain_files, tmp_path):
    out = tmp_path / "x"
    rc = main(["mixing", "--chain", chain_files["sym"], "--out", str(out)])
    assert rc == EXIT_OK
    doc = read_json(out / "mixing_report.json")
    mx = doc["mixing"]
    assert mx["alpha"][0] == 0.125 and mx["phi"][0] == 0.25
    assert mx["pi"][0] == 0.5 and abs(mx["rho"][0] - 0.5) < 1e-12
    assert abs(mx["envelope"]["delta"] - 0.5) < 1e-9
    assert mx["n0"] == 1
    assert doc["condition_h"]["c_prime"] > 0
    curve = read_csv(out / "mixing_curve.csv")
    assert curve[0] == ["k", "alpha", "phi", "envelope"]
    hcsv = read_csv(out / "condition_h.csv")
    assert hcsv[0] == ["k", "gap"]


def test_mixing_iid_degenerate(chain_files, tmp_path):
    out = tmp_path / "xi"
    rc = main(["mixing", "--chain", chain_files["iid"], "--out", str(out)])
    assert rc == EXIT_OK
    mx = read_json(out / "mixing_report.json")["mixing"]
    assert all(a == 0.0 for a in mx["alpha"])
    assert mx["envelope"]["degenerate"] is True


def test_mixing_slow_chain_exit_3(tmp_path, capsys):
    from asipkit.battery import entry

    p = tmp_path / "slow.json"
    p.write_text(json.dumps(entry("slow2").doc))
    rc = main(["mixing", "--chain", str(p), "--out", str(tmp_path / "xs")])
    assert rc == EXIT_HYPOTHESIS
    assert "n0 not found" in capsys.readouterr().err
    doc = read_json(tmp_path / "xs" / "mixing_report.json")
    assert doc["mixing"]["n0"] is None


def test_blocks_override(chain_files, tmp_path):
    out = tmp_path / "b"
    rc = main([
        "blocks", "--chain", chain_files["iid"], "--amplitude", "9",
        "--separation", "2", "--horizon", "200", "--out", str(out),
    ])
    assert rc == EXIT_OK
    doc = read_json(out / "blocks_report.json")
    assert doc["partition"]["blocks"][:2] == [[1, 9], [12, 20]]
    assert doc["exactness"]["selection"] == "as-given"
    assert doc["verification"]["sandwich_pass"] is True
    table = read_csv(out / "blocks_table.csv")
    assert table[0] == ["j", "a", "b", "i_end", "norm", "theta_var"]
    assert table[1] == ["1", "1", "9", "11", "3.0", "11.0"]


def test_blocks_auto_mode(chain_files, tmp_path):
    out = tmp_path / "ba"
    rc = main(["blocks", "--chain", chain_files["sym"], "--out", str(out)])
    assert rc == EXIT_OK
    doc = read_json(out / "blocks_report.json")
    assert doc["plan"]["r"] == 15
    assert doc["plan"]["p"] == 4.0 and doc["plan"]["c_p"] == 8.0
    assert doc["partition"]["certified"] is True
    assert doc["partition"]["r_certified"] and doc["partition"]["amplitude_certified"]
    assert doc["exactness"]["selection"] == "certified"
    assert doc["verification"]["ratio_pass"] is True


def test_blocks_starved_exit_4(chain_files, tmp_path, capsys):
    rc = main(["blocks", "--chain", chain_files["zero"], "--out", str(tmp_path / "bz")])
    assert rc == EXIT_CONSTRUCTION
    assert "variance starved at index" in capsys.readouterr().err


def test_bad_flags_exit_2(chain_files, tmp_path, capsys):
    cases = [
        ["blocks", "--chain", chain_files["iid"], "--p", "1.5"],
        ["simulate", "--chain", chain_files["iid"], "--paths", "0"],
        ["simulate", "--chain", chain_files["iid"], "--delta", "0.9"],
        ["moments", "--chain", chain_files["iid"], "--horizon", "0"],
        # build_blocks needs A >= 1; both commands check it before any work
        ["blocks", "--chain", chain_files["iid"], "--amplitude", "0.5"],
        ["simulate", "--chain", chain_files["iid"], "--amplitude", "0.5"],
    ]
    for argv in cases:
        rc = main(argv + ["--out", str(tmp_path / "bad")])
        assert rc == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert "input error" in err
        if "--amplitude" in argv:
            assert err == "input error: --amplitude must be >= 1, got 0.5\n", argv
    assert not (tmp_path / "bad").exists()


def test_blocks_has_no_direction_grid(chain_files, tmp_path, capsys):
    # verification extrema are eigenvalues over every direction
    rc = main(["blocks", "--chain", chain_files["iid"], "--directions", "8",
               "--out", str(tmp_path / "bd")])
    assert rc == EXIT_INPUT
    assert "--directions" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["blocks", "--help"]) == 0
    assert "--chain" in capsys.readouterr().out


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = main(["moments", "--chain", str(p), "--out", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    assert "broken.json" in capsys.readouterr().err


def test_malformed_documents_exit_2(tmp_path, capsys):
    base = {
        "kernels": {"periodic": [[[0.9, 0.1], [0.1, 0.9]]]}, "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0,
    }
    cases = [
        ({"kernels": [[[0.9, 0.1], [0.1]]]}, "kernel 1"),
        ({"kernels": [[["a", "b"], [0.1, 0.9]]]}, "kernel 1"),
        ({"kernels": {"periodic": [[[0.9, 0.1], [0.1, 0.9]], [[0.9, 0.1], [0.1]]]}},
         "kernel 2"),
        ({"initial": [0.5, "x"]}, "initial law"),
        ({"observable": {"constant": [[1.0], [1.0, 2.0]]}}, "observable"),
        ({"observable": {"explicit": [[[1.0], [-1.0]], [["a"], [1.0]]]}}, "observable 2"),
        ({"L": "big"}, "bound L"),
        ({"d": "x"}, "declared d"),
        ({"states": [2, "q"]}, "declared states at time 2"),
        ({"observable": {"periodic": [[[1.0], [-1.0]], [[1.0, 0.0], [0.0, 1.0]]]}}, "observable 2"),
    ]
    weights = [
        {"kind": "linear", "start": 1.0, "end": 0.0, "length": 0},
        {"kind": "cosine", "period": 0},
        {"kind": "linear", "start": 1.0, "end": 0.0},
        {"kind": "constant"},
        {"kind": "constant", "value": "abc"},
    ]
    for w in weights:
        mixture = {"base": [[[0.9, 0.1], [0.1, 0.9]], [[0.5, 0.5], [0.5, 0.5]]], "weights": w}
        cases.append(({"kernels": {"mixture": mixture}}, "mixture weight"))
    for i, (patch, named) in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps({**base, **patch}))
        rc = main(["moments", "--chain", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT, (patch, err)
        assert "input error" in err and named in err, (patch, err)


def test_observable_rows_are_checked_at_load(tmp_path, capsys):
    # every command rejects the document before any work, blocks included
    doc = {
        "kernels": {"periodic": [[[0.75, 0.25], [0.25, 0.75]]]}, "initial": [0.5, 0.5],
        "observable": {"periodic": [[[1.0], [-1.0]], [[1.0], [0.0], [-1.0]]]}, "L": 1.0,
    }
    p = tmp_path / "rows.json"
    p.write_text(json.dumps(doc))
    for cmd in ("blocks", "moments", "mixing", "simulate"):
        rc = main([cmd, "--chain", str(p), "--out", str(tmp_path / cmd)])
        err = capsys.readouterr().err
        assert rc == EXIT_INPUT, (cmd, err)
        assert "observable at time 2 has 3 rows, state space has 2" in err, (cmd, err)


def test_explicit_observable_list_bounds_every_command(tmp_path, capsys):
    # 40 kernels and 3 tables fail like 2 kernels and 3 tables: horizon 3
    codes, errors = {}, {}
    for n in (40, 2):
        doc = {
            "kernels": [[[0.75, 0.25], [0.25, 0.75]]] * n, "initial": [0.5, 0.5],
            "observable": {"explicit": [[[1.0], [-1.0]]] * 3}, "L": 1.0,
        }
        p = tmp_path / f"k{n}.json"
        p.write_text(json.dumps(doc))
        codes[n], errors[n] = [], []
        for cmd in ("blocks", "moments", "mixing", "simulate"):
            codes[n].append(main([cmd, "--chain", str(p), "--out", str(tmp_path / f"{cmd}{n}")]))
            errors[n].append(capsys.readouterr().err)
    assert codes[40] == codes[2] == [EXIT_CONSTRUCTION, EXIT_INPUT, EXIT_INPUT, EXIT_INPUT]
    for i in range(4):  # each command meets a horizon check, not a kernel read
        assert "passes the horizon 3" in errors[40][i] and errors[40][i] == errors[2][i]


def test_simulate_small_run(chain_files, tmp_path):
    out = tmp_path / "s"
    rc = main([
        "simulate", "--chain", chain_files["sym"], "--horizon", "128",
        "--paths", "400", "--seed", "5", "--amplitude", "30",
        "--separation", "2", "--out", str(out),
    ])
    assert rc == EXIT_OK
    doc = read_json(out / "simulate_report.json")
    assert doc["seeds"] == {"paths": 5, "surrogate": 6}
    assert doc["partition"]["amplitude"] == 30.0
    assert doc["rate"]["bounded"] in (True, False)
    ks = read_csv(out / "ks_curve.csv")
    assert ks[0] == ["n", "direction_id", "ks", "stderr"]
    assert os.path.exists(out / "variance_matching.csv")
    assert os.path.exists(out / "rate_curve.csv")
    # no timestamps anywhere in the report
    assert "time" not in json.dumps(doc).lower()


def test_simulate_and_blocks_share_one_override(chain_files, tmp_path):
    # a missing --separation is the certified r in both commands
    flags = ["--chain", chain_files["sym"], "--amplitude", "30", "--horizon", "512"]
    assert main(["blocks", *flags, "--out", str(tmp_path / "ob")]) == EXIT_OK
    assert main([
        "simulate", *flags, "--paths", "50", "--seed", "3", "--out", str(tmp_path / "os"),
    ]) == EXIT_OK
    blocks_doc = read_json(tmp_path / "ob" / "blocks_report.json")
    simulate_doc = read_json(tmp_path / "os" / "simulate_report.json")
    built, sampled = blocks_doc["partition"], simulate_doc["partition"]
    assert sampled == built
    assert built["r"] > 1 and built["amplitude"] == 30.0 and built["q0"] is not None
    # the reports say that r, not A, was certified
    assert built["r_certified"] is True and built["amplitude_certified"] is False
    assert built["certified"] is False
    for doc in (blocks_doc, simulate_doc):
        assert doc["exactness"]["selection"] == "r certified, amplitude as-given"


def test_override_failure_exits_4_in_blocks_and_simulate(tmp_path, capsys):
    # the identity kernel never contracts, so no separation meets the tail
    # bound; both commands reach that failure through one partition routine
    p = tmp_path / "identity.json"
    p.write_text(json.dumps({
        "kernels": {"periodic": [[[1.0, 0.0], [0.0, 1.0]]]}, "initial": [0.5, 0.5],
        "observable": {"constant": [[1.0], [-1.0]]}, "L": 1.0,
    }))
    flags = ["--chain", str(p), "--amplitude", "30"]
    for argv in (["blocks", *flags], ["simulate", *flags, "--horizon", "256", "--paths", "50"]):
        rc = main([*argv, "--out", str(tmp_path / argv[0])])
        assert rc == EXIT_CONSTRUCTION, argv
        assert capsys.readouterr().err == (
            "block construction failed: no separation r <= 100000 meets the tail bound\n"
        ), argv
        assert not (tmp_path / argv[0]).exists()


def test_simulate_degenerate_chain(chain_files, tmp_path):
    out = tmp_path / "sz"
    rc = main([
        "simulate", "--chain", chain_files["zero"], "--horizon", "32",
        "--paths", "50", "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    doc = read_json(out / "simulate_report.json")
    assert doc["partition"] is None and doc["partition_note"]
    assert doc["ks"]["max_ks"] is None


def test_simulate_short_horizon_drops_plan(chain_files, tmp_path):
    out = tmp_path / "sh"
    rc = main([
        "simulate", "--chain", chain_files["sym"], "--horizon", "64",
        "--paths", "50", "--seed", "3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    doc = read_json(out / "simulate_report.json")
    assert doc["partition"] is None
    assert "index 64" in doc["partition_note"]


def test_report_json_is_sorted_and_newline_terminated(chain_files, tmp_path):
    out = tmp_path / "srt"
    main(["moments", "--chain", chain_files["sym"], "--horizon", "5", "--out", str(out)])
    raw = (out / "moments_report.json").read_text()
    assert raw.endswith("\n")
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


def test_csv_floats_round_trip(chain_files, tmp_path):
    out = tmp_path / "rt"
    main(["moments", "--chain", chain_files["sym"], "--horizon", "20", "--out", str(out)])
    table = read_csv(out / "moments_table.csv")
    from asipkit.chain import build_chain
    from asipkit.moments import engine_for

    eng = engine_for(build_chain(chain_files["sym"]))
    for row in table[1:]:
        n = int(row[0])
        assert float(row[2]) == eng.s_value(n)  # repr floats: exact round trip


def test_public_functions_are_reached():
    """Every function in asipkit.__all__ is named by a package module, a
    script or the benchmark, so none is kept for the tests alone."""
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "asipkit").glob("*.py") if f.name != "__init__.py"]
    files += [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py")]
    named = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    functions = [
        name for name in asipkit.__all__
        if callable(getattr(asipkit, name)) and not isinstance(getattr(asipkit, name), type)
    ]
    assert [name for name in functions if name not in named] == []
