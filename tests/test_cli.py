import json
import math
from dataclasses import asdict

import pytest

from spartitions import asymptotics, counting, run_audit
from spartitions.cli import run


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    return code, lines


def run_json(capsys, argv):
    code, lines = run_lines(capsys, argv)
    return code, [json.loads(line) for line in lines]


def test_count(capsys):
    code, recs = run_json(capsys, ["count", "--n", "7"])
    assert code == 0
    assert recs == [{"n": 7, "count": "4"}]


def test_table(capsys):
    code, recs = run_json(capsys, ["table", "--max-n", "10"])
    assert code == 0
    assert [int(r["count"]) for r in recs] == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6]


def test_decompose(capsys):
    code, recs = run_json(capsys, ["decompose", "--n", "7"])
    assert code == 0
    assert recs[0]["exponents"] == [3]
    assert recs[0]["parts"] == ["7"]


def test_estimate_includes_exact(capsys):
    code, recs = run_json(capsys, ["estimate", "--n", "4096"])
    assert code == 0
    rec = recs[0]
    assert {"quad_term", "lin_term", "bline_term", "w_value", "gauss_const",
            "h_const", "total", "exact_ln", "error"} <= set(rec)
    assert abs(rec["total"] - (rec["exact_ln"] + rec["error"])) < 1e-9


def test_constants(capsys):
    code, recs = run_json(capsys, ["constants", "--tol", "1e-7"])
    assert code == 0
    rec = recs[0]
    assert abs(rec["alpha"] - 0.0554929844) <= 1e-6
    assert abs(rec["H"] - (rec["c"] + rec["tail_integral"] / math.log(2))) <= 1e-12
    assert rec["alpha_error_bound"] == rec["c_error_bound"] == 1e-7
    # I is a closed form: its bound is rounding-level, not the tol
    assert rec["tail_integral_error_bound"] == asymptotics.TAIL_I_ERROR_BOUND < 1e-15
    assert rec["H_error_bound"] == 1e-7 + asymptotics.TAIL_I_ERROR_BOUND / math.log(2)


def test_constants_rejects_nan_tol(capsys):
    assert run(["constants", "--tol", "nan"]) == 1
    assert capsys.readouterr().out == ""


def test_w_eval(capsys):
    code, recs = run_json(capsys, ["w-eval", "--points", "8"])
    assert code == 0
    assert len(recs) == 8
    assert recs[0]["z"] == 0.0
    assert all(abs(r["w"]) < 1e-4 for r in recs)


@pytest.mark.parametrize("points", ["0", "-3"])
def test_w_eval_rejects_non_positive_points(capsys, points):
    assert run(["w-eval", "--points", points]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points must be >= 1" in captured.err


def test_bhatt_audit_stream_and_summary(capsys):
    code, recs = run_json(capsys, ["bhatt-audit", "--max-n", "20"])
    assert code == 0
    audit = [r for r in recs if r["record_type"] == "audit"]
    summary = [r for r in recs if r["record_type"] == "summary"]
    assert len(audit) == 20
    assert audit[7] == {"record_type": "audit", "n": 8, "exact": "4",
                        "bound": "16", "violated": False}
    assert len(summary) == 1
    assert summary[0]["first_violation"] is None
    assert "0^-1" in summary[0]["convention"]
    library = asdict(run_audit(20))
    del library["n_max"]
    assert summary[0] == {"record_type": "summary", **library}


def test_estimate_beyond_float_range(capsys):
    code, recs = run_json(capsys, ["estimate", "--n", str(10 ** 400)])
    assert code == 0
    assert recs[0]["n"] == 10 ** 400
    assert "exact_ln" not in recs[0]
    assert math.isfinite(recs[0]["total"])


def test_modexp_check(capsys):
    code, recs = run_json(capsys, ["modexp", "--a", "2", "--n", "10",
                                   "--m", "1000", "--check"])
    assert code == 0
    rec = recs[0]
    assert rec["result"] == "24"
    assert rec["match"] is True


def test_binary_cross_check(capsys):
    code, recs = run_json(capsys, ["binary-cross-check", "--n", "512"])
    assert code == 0
    rec = recs[0]
    assert abs(rec["exact_ln"] + rec["error"] - rec["total"]) < 1e-9


def test_csv_format(capsys):
    code, lines = run_lines(capsys, ["--format", "csv", "table", "--max-n", "3"])
    assert code == 0
    assert lines[0] == "n,count"
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,2"]


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        run(["count"])  # missing --n
    assert info.value.code == 1


def test_domain_error_exit_1(capsys):
    assert run(["count", "--n", "-3"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["count", "--n"], ["table", "--max-n"],
                                  ["binary-cross-check", "--n"]])
def test_exact_tables_stop_at_the_limit(capsys, monkeypatch, argv):
    # rejected before any table is built
    def no_table(n_max):
        raise AssertionError("table built past the limit")

    monkeypatch.setattr(counting, "count_s_partitions_table", no_table)
    monkeypatch.setattr(counting, "count_binary_partitions_table", no_table)
    assert counting.MAX_EXACT_N == 10 ** 6
    for n in (10 ** 6 + 1, 10 ** 9):
        assert run(argv + [str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be <= {10 ** 6}" in captured.err


def test_unknown_command_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 1
