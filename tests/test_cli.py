import io
import json
import subprocess
import sys
from pathlib import Path
from contextlib import redirect_stderr, redirect_stdout

import pytest

from elephantine import __version__, cli


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def test_blowup_reproduces_known_chart_table():
    report = run_json([
        "blowup",
        "--type", "1/4(1,3,2,1)",
        "--weights", "1/4(1,3,2,1)",
        "--divisor", "x^2+y^2+z^3+u^2",
    ])
    result = report["result"]
    assert result["canonical_discrepancy"] == "3/4"
    assert result["divisor_weight"] == "1/2"
    assert result["pair_discrepancy"] == "1/4"
    assert [c["type"] for c in result["charts"]] == [
        "1/1(0,0,0,0)", "1/3(2,1,1,2)", "1/2(1,1,0,1)", "1/1(0,0,0,0)"
    ]
    assert [c["smooth"] for c in result["charts"]] == [True, False, False, True]
    # the z-chart action 1/2(1,1,0,1) fixes a curve: flagged non-isolated
    assert [c["isolated_action"] for c in result["charts"]] == [True, True, False, True]
    assert report["version"] == __version__
    assert report["command"] == "blowup"


def test_charts_subcommand():
    report = run_json(["charts", "--type", "1/2(1,1,1)", "--weights", "1/2(1,1,1)"])
    assert report["command"] == "charts"
    assert report["result"]["canonical_discrepancy"] == "1/2"
    assert len(report["result"]["charts"]) == 3
    assert "divisor" not in report["result"]


def test_duval_subcommand():
    report = run_json(["duval", "--germ", "x^2+y^3+z^4"])
    assert report["result"]["label"] == "E6"
    report = run_json(["duval", "--germ", "x^2+y^3+y*z^4+z^6"])
    assert report["result"]["verdict"] == "not_du_val"
    assert report["result"]["recommendation"] == {"weights": [3, 2, 1], "discrepancy": "-1"}


def test_duval_dense_e8_output_is_byte_identical():
    # E8 (x^2+y^3+z^5) after the dense GL3 change of
    # test_verdict_invariant_under_dense_linear_changes.  The golden file is
    # the complete stdout, so it pins every normalization step, the residual
    # and the quadratic coefficient produced by the substitution path.
    golden = (Path(__file__).parent / "data" / "duval_dense_e8.json").read_text(encoding="utf-8")
    germ = json.loads(golden)["inputs"]["germ"]
    code, out, err = run_cli(["duval", "--germ", germ])
    assert code == 0, err
    assert out == golden


def test_duval_split_branches_output_is_byte_identical():
    # one stdout line per germ: a quadratic part of cross terms only
    # (x*y+y^3+z^3, y*z+x^3+z^5) and a pivot swap (z^2+x*y+x^4), the split
    # branches the dense E8 golden does not reach
    golden = (Path(__file__).parent / "data" / "duval_split.jsonl").read_text(encoding="utf-8")
    lines = golden.splitlines(keepends=True)
    assert len(lines) == 3
    for line in lines:
        germ = json.loads(line)["inputs"]["germ"]
        code, out, err = run_cli(["duval", "--germ", germ])
        assert code == 0, err
        assert out == line


def test_every_subcommand_output_is_byte_identical():
    # complete stdout per call, so the report envelope (command, echo of
    # the inputs, warnings, version) is pinned byte for byte: every
    # subcommand, a wps batch, --pretty before and after the subcommand, and
    # the milnor germs that run the split and the echelon together (a dense
    # mu = tau = 24, x^2+y^2+z^30 past the default cap, the non-isolated xyz)
    data = Path(__file__).parent / "data"
    cases = json.loads((data / "cli_golden.json").read_text(encoding="utf-8"))
    assert len(cases) == 16
    # the argument parser is built once per process: a rejected argv before
    # each case must leave it as it was
    rejected = (["frobnicate"], ["duval"], ["milnor", "--germ", "x^2", "--cap", "many"])
    for k, case in enumerate(cases):
        code, out, _ = run_cli(rejected[k % len(rejected)])
        assert code == 2 and out == ""
        code, out, err = run_cli([arg.replace("{data}", str(data)) for arg in case["argv"]])
        assert code == 0, err
        assert out == case["stdout"], case["argv"]


def test_milnor_subcommand():
    report = run_json(["milnor", "--germ", "x^2+y^3+z^5"])
    assert report["result"]["milnor_number"] == 8
    assert report["result"]["isolated"]
    report = run_json(["milnor", "--germ", "x^2+y^2*z"])
    assert report["result"]["milnor_number"] is None
    assert not report["result"]["isolated"]


def test_milnor_past_the_default_cap():
    # B = 1*1*29 lifts the default cap 24 to 30, where A_29 stabilizes;
    # an explicit --cap keeps its meaning
    report = run_json(["milnor", "--germ", "x^2+y^2+z^30"])
    assert report["result"] == {"isolated": True, "milnor_number": 29, "tjurina_number": 29}
    report = run_json(["milnor", "--germ", "x^2+y^2+z^30", "--cap", "24"])
    assert report["result"]["milnor_number"] is None


def test_t1_subcommand():
    report = run_json(["t1", "--germ", "x^2+y^3+z^4"])
    assert report["result"]["dimension"] == 6
    assert report["result"]["basis"] == ["1", "y", "z", "y*z", "z^2", "y*z^2"]
    report = run_json(["t1", "--germ", "x^3+y^3+z^3", "--type", "1/2(1,1,1)"])
    assert report["result"]["character"] == 1
    assert report["result"]["quotient_dimension"] == 8
    table = {row["character"]: row["dimension"] for row in report["result"]["character_table"]}
    assert table == {0: 4, 1: 4}


def test_wps_subcommand_matches_inventory():
    report = run_json([
        "wps", "--weights", "1,2,3,5,5", "--degree", "15",
        "--equation", "x^15+x*y^7+z^5+w1^3+w2^3",
    ])
    result = report["result"]
    assert result["wellformed"]
    assert result["h0"] == 1
    assert result["elephant"]["equation"] == "z^5+w1^3+w2^3"
    assert result["elephant"]["weights"] == [2, 3, 5, 5]
    inventory = {(e["location"], e["type"], e["count"]) for e in result["inventory"]}
    assert ("vertex y", "1/2(1,1,1)", 1) in inventory
    assert ("stratum (w1,w2)", "1/5(1,2,3)", 3) in inventory


def test_wps_vars_in_weight_order_when_inference_fails():
    report = run_json([
        "wps", "--weights", "1,2,2,3,7", "--degree", "14",
        "--equation", "x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4",
        "--vars", "x,y1,y2,z,w",
    ])
    assert report["result"]["wellformed"]
    code, out, err = run_cli([
        "wps", "--weights", "1,2,2,3,7", "--degree", "14",
        "--equation", "x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4",
    ])
    # inference by first appearance puts w before y2: weighted degrees break
    assert code == 2


def test_wps_complete_intersection_mode():
    report = run_json(["wps", "--weights", "2,3,4,5,6,7", "--degree", "12,14"])
    assert report["result"]["anticanonical_degree"] == 1
    assert report["result"]["h0"] == 0
    assert report["warnings"]


def test_wps_batch_input_file(tmp_path):
    batch = tmp_path / "surfaces.txt"
    batch.write_text(
        "# corpus\n"
        "1,2,3,5,5 | 15 | x^15+x*y^7+z^5+w1^3+w2^3\n"
        "1,2,2,3,7 | 14 | x^14+x^2*y1^6+w^2+y1^3*y2^4+y2^7+y1*z^4 | x,y1,y2,z,w\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(["wps", "--input-file", str(batch)])
    assert code == 0, err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[0]["result"]["h0"] == 1
    assert lines[1]["result"]["h0"] == 1


def test_exit_code_2_on_bad_input():
    for argv in (
        ["duval", "--germ", "x^2+@"],
        ["duval", "--germ", "x^2+q^2"],
        ["blowup", "--type", "1/4(1,3,2,1)", "--weights", "1/2(1,1,1)"],
        ["blowup", "--type", "nonsense", "--weights", "1/2(1,1,1)"],
        ["wps", "--weights", "1,2", "--degree", "3", "--equation", "x+y+z"],
        ["t1", "--germ", "x+y^2", "--type", "1/2(1,1,1)"],
    ):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert err.strip()


def test_duval_truncation_below_two_is_input_error():
    for truncation in ("0", "1"):
        code, out, err = run_cli(["duval", "--germ", "x^2+y^3+z^5", "--truncation", truncation])
        assert code == 2
        assert out == ""
        assert err.strip() and "internal error" not in err


def test_duval_vanishing_residual_exit_codes():
    # an exact square is proven non-isolated; an inexact split stays undecided
    cases = [("x^2", "singular along a surface"), ("(x+y)^2", "singular along a surface"),
             ("x^2+x*z^13", "retry with a larger one")]
    for germ, message in cases:
        code, out, err = run_cli(["duval", "--germ", germ, "--truncation", "12"])
        assert code == 2 and out == ""
        assert message in err, (germ, err)


def test_milnor_cap_below_three_is_input_error():
    # below 3 the stabilization can never decide, so an A1 germ would be
    # reported as non-isolated
    for cap in ("2", "0", "-5"):
        code, out, err = run_cli(["milnor", "--germ", "x^2+y^2+z^2", "--cap", cap])
        assert code == 2
        assert out == ""
        assert "--cap" in err and "internal error" not in err
    report = run_json(["milnor", "--germ", "x^2+y^2+z^2", "--cap", "3"])
    assert report["result"]["milnor_number"] == 1
    assert report["result"]["isolated"]


def test_parse_error_on_a_non_decimal_digit_is_input_error():
    # '²' passes str.isdigit() but is not a decimal digit
    code, out, err = run_cli(["milnor", "--germ", "x^²"])
    assert code == 2
    assert out == ""
    assert "expected a number" in err and "internal error" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads integer literals of any length")
def test_overlong_literal_is_input_error():
    digits = sys.get_int_max_str_digits() + 1
    code, out, err = run_cli(["milnor", "--germ", "x^2+" + "1" * digits + "*y^2+z^2"])
    assert code == 2
    assert out == ""
    assert f"number of {digits} digits is too long (at position 4)" in err
    assert "internal error" not in err


@pytest.mark.parametrize("argv, value", [
    (["duval", "--germ", "x^2+y^2+z^2"], "abc"),
    (["t1", "--germ", "x^3+y^3+z^3", "--type", "1/2(1,1,1)"], "1"),
])
def test_bad_truncation_env_var_is_input_error(monkeypatch, argv, value):
    monkeypatch.setenv("ELEPHANTINE_TRUNCATION", value)
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "ELEPHANTINE_TRUNCATION" in err and "internal error" not in err


def test_wps_unreadable_input_file_is_input_error(tmp_path):
    for path in (tmp_path / "absent.txt", tmp_path):  # missing, and a directory
        code, out, err = run_cli(["wps", "--input-file", str(path)])
        assert code == 2
        assert out == ""
        assert str(path) in err and "internal error" not in err


def test_wps_input_file_not_utf8_is_input_error(tmp_path):
    batch = tmp_path / "latin1.txt"
    batch.write_bytes(b"\xff\n")
    code, out, err = run_cli(["wps", "--input-file", str(batch)])
    assert code == 2
    assert out == ""
    assert str(batch) in err and "internal error" not in err


@pytest.mark.parametrize("argv", [
    # the divisor's a would be read as the second coordinate of a chart labelled a
    ["blowup", "--type", "1/2(1,1,1)", "--weights", "1/2(1,1,1)", "--vars", "a,a,b",
     "--divisor", "a^2+b^2"],
    # chart maps with two keys for three coordinates
    ["charts", "--type", "1/2(1,1,1)", "--weights", "1/2(1,1,1)", "--vars", "a,a,b"],
    ["duval", "--germ", "x^2+y^3+z^4", "--vars", "x,y,x"],
    ["wps", "--weights", "1,1,1", "--degree", "3", "--equation", "x^3+y^3+z^3", "--vars", "x,y,x"],
    ["wps", "--weights", "1,1,1", "--degree", "2", "--vars", "x,y,x"],
], ids=["blowup", "charts", "duval", "wps", "wps-no-equation"])
def test_repeated_variable_names_are_input_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "repeated" in err


def test_unknown_subcommand_is_input_error():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_pretty_flag_both_positions():
    compact = run_json(["duval", "--germ", "x^2+y^3+z^4"])
    code, out, _ = run_cli(["--pretty", "duval", "--germ", "x^2+y^3+z^4"])
    assert code == 0 and json.loads(out) == compact
    code, out, _ = run_cli(["duval", "--germ", "x^2+y^3+z^4", "--pretty"])
    assert code == 0 and json.loads(out) == compact
    assert out.count("\n") > 3


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "elephantine", "milnor", "--germ", "x^2+y^2+z^2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["milnor_number"] == 1


def test_console_output_is_deterministic():
    corpus = [
        ["duval", "--germ", "x^2+y^3+z^4"],
        ["blowup", "--type", "1/4(1,3,2,1)", "--weights", "1/4(1,3,2,1)",
         "--divisor", "x^2+y^2+z^3+u^2"],
        ["t1", "--germ", "x^3+y^3+z^3", "--type", "1/2(1,1,1)"],
        ["milnor", "--germ", "x^2+y^3+z^5"],
        ["wps", "--weights", "1,2,3,5,5", "--degree", "15",
         "--equation", "x^15+x*y^7+z^5+w1^3+w2^3"],
    ]
    for argv in corpus:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_truncation_env_var_reaches_classifier(monkeypatch):
    monkeypatch.setenv("ELEPHANTINE_TRUNCATION", "14")
    code, out, err = run_cli(["duval", "--germ", "x^2+y^13+z^13"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "not_du_val"
    monkeypatch.delenv("ELEPHANTINE_TRUNCATION")
    code, out, err = run_cli(["duval", "--germ", "x^2+y^13+z^13"])
    assert code == 2  # default truncation 12 cannot decide this germ
    assert "truncation" in err or "retry" in err


def test_determinism_across_processes():
    # separate interpreters get different hash seeds; byte-identical output
    # proves nothing leaks through set or hash iteration order
    argv = [
        sys.executable, "-m", "elephantine", "wps",
        "--weights", "1,2,3,5,5", "--degree", "15",
        "--equation", "x^15+x*y^7+z^5+w1^3+w2^3",
    ]
    first = subprocess.run(argv, capture_output=True).stdout
    second = subprocess.run(argv, capture_output=True).stdout
    assert first and first == second


def test_batch_golden_corpus():
    corpus = Path(__file__).parent / "data" / "surfaces.txt"
    code, out, err = run_cli(["wps", "--input-file", str(corpus)])
    assert code == 0, err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 5
    assert [r["result"]["h0"] for r in reports] == [1, 1, 1, 5, 0]
    assert all(r["result"]["wellformed"] for r in reports)
    totals = []
    for r in reports[:4]:
        count = sum(e["count"] for e in r["result"]["inventory"] if e["kind"] == "quotient")
        totals.append(count)
    assert totals == [4, 4, 2, 4]
