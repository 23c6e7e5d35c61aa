import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import asdict
from itertools import chain

import pytest

from spartitions import AccuracyError, asymptotics, bhatt_bound, cli, counting, run_audit
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


@pytest.mark.parametrize("n", [0, 7, 10 ** 6])
def test_csv_decompose_cells_hold_json_lists(capsys, n):
    # each list-valued CSV cell is the JSON text of the JSON record's list,
    # not a Python repr with single-quoted strings
    code, recs = run_json(capsys, ["decompose", "--n", str(n)])
    assert code == 0
    assert run(["--format", "csv", "decompose", "--n", str(n)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 and rows[0]["n"] == str(n)
    for key in ("exponents", "parts"):
        assert json.loads(rows[0][key]) == recs[0][key]


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
    # the message names the flag the user passed
    for argv in (["constants", "--tol", "nan"], ["estimate", "--n", "5", "--tol", "nan"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "spartitions: error: --tol needs a finite tol >= 1e-10, got nan\n"


def test_w_eval(capsys):
    code, recs = run_json(capsys, ["w-eval", "--points", "8"])
    assert code == 0
    assert len(recs) == 8
    assert recs[0]["z"] == 0.0
    assert all(abs(r["w"]) < 1e-4 for r in recs)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("flags, nu_max", [([], 16), (["--nu-max", "3"], 3)])
def test_w_eval_matches_per_record_oracle(capsys, fmt, flags, nu_max):
    # the grid z = j ln2 / points, each W at the nu_max given, 16 by default
    points = 5
    records = [{"z": j * math.log(2) / points,
                "w": asymptotics.w_oscillation(j * math.log(2) / points, nu_max)}
               for j in range(points)]
    assert run(["--format", fmt, "w-eval", "--points", str(points), *flags]) == 0
    assert capsys.readouterr().out == stream_oracle(fmt, records)


@pytest.mark.parametrize("points", [1, 2 ** 53])
def test_w_eval_takes_points_up_to_2_53(capsys, monkeypatch, points):
    # 2^53 points pass the check: the first W evaluation stops the run
    class FirstPoint(Exception):
        pass

    def first_point(z, nu_max):
        raise FirstPoint(z)

    monkeypatch.setattr(asymptotics, "w_oscillation", first_point)
    with pytest.raises(FirstPoint):
        run(["w-eval", "--points", str(points)])
    assert capsys.readouterr() == ("", "")


# 10^400 points would overflow the grid's float division, and past 2^53
# points the grid has no distinct float points
@pytest.mark.parametrize("points", ["0", "-3", pytest.param(str(10 ** 400), id="10**400"),
                                    pytest.param(str(2 ** 53 + 1), id="2**53+1")])
def test_w_eval_rejects_non_positive_points(capsys, points):
    assert run(["w-eval", "--points", points]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points must be >= 1" in captured.err


# a cheap valid call of every subcommand, flag by flag
CHEAP_CALLS = {
    "count": {"--n": "7"},
    "table": {"--max-n": "10"},
    "estimate": {"--n": "4096", "--tol": "1e-8", "--nu-max": "16"},
    "constants": {"--tol": "1e-8"},
    "w-eval": {"--points": "4", "--nu-max": "16"},
    "bhatt-audit": {"--max-n": "20"},
    "decompose": {"--n": "7"},
    "modexp": {"--a": "2", "--n": "10", "--m": "1000"},
    "binary-cross-check": {"--n": "512", "--nu-max": "16"},
}
# the last two are ints of 4300 and 4301 digits, Python's int-string limit
# and one past it
HOSTILE_ARGS = ["0", "-1", "1.5", "nan", "inf", "-inf", "1e308", "1e-400", "x", "",
                str(10 ** 400), "1" + "0" * 4299, "1" + "0" * 4300]


@pytest.mark.parametrize("command", sorted(CHEAP_CALLS))
def test_hostile_argv_meets_the_contract(capsys, command):
    # the CLI's twin of test_surface's hostile-value sweep: with each value of
    # a cheap valid call replaced by each hostile string, run returns 0, 1 or
    # 2 or argparse exits 1, and nothing else is raised
    flags = CHEAP_CALLS[command]
    for flag in flags:
        for bad in HOSTILE_ARGS:
            argv = [command, *chain.from_iterable({**flags, flag: bad}.items())]
            try:
                assert run(argv) in (0, 1, 2), (flag, bad[:20])
            except SystemExit as exc:
                assert exc.code == 1, (flag, bad[:20])
            capsys.readouterr()


@pytest.mark.parametrize("command", ["estimate", "w-eval", "binary-cross-check"])
def test_nu_max_defaults_to_16(command):
    # W's terms past nu = 5 no longer move a double, so no output shows it
    flags = chain.from_iterable((flag, value) for flag, value in CHEAP_CALLS[command].items()
                                if flag != "--nu-max")
    assert cli._build_parser().parse_args([command, *flags]).nu_max == 16


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
    assert summary[0] == {"record_type": "summary", **library}


def test_bhatt_audit_summary_across_the_crossover(capsys):
    # the bound first fails at n = 3804 and fails at every n up to 4095
    library = asdict(run_audit(5000))
    assert (library["first_violation"], library["violations"],
            library["max_ratio_n"]) == (3804, 292, 4095)
    assert run(["bhatt-audit", "--max-n", "5000"]) == 0
    *rows, summary_line = capsys.readouterr().out.splitlines()
    audit = [json.loads(row) for row in rows]
    assert [r["n"] for r in audit] == list(range(1, 5001))
    assert sum(r["violated"] is True for r in audit) == 292
    assert json.loads(summary_line) == {"record_type": "summary", **library}
    assert run(["--format", "csv", "bhatt-audit", "--max-n", "5000"]) == 0
    assert capsys.readouterr().err == summary_line + "\n"


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


def stream_oracle(fmt, records):
    """The stream built one record at a time by the json and csv modules."""
    if fmt == "json":
        return "".join(json.dumps(rec) + "\n" for rec in records)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0]))
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def table_oracle(fmt, counts):
    return stream_oracle(fmt, [{"n": n, "count": str(c)} for n, c in enumerate(counts)])


# the decode's blocks hold 2^14 entries: 16383 ends the first block, 16384
# opens the second and 32768 the third
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("max_n", [0, 1, 16383, 16384, 16385, 30000, 32768])
def test_table_matches_per_record_oracle(capsys, fmt, max_n):
    counts = counting.count_s_partitions_table(max_n).counts
    assert max_n < 30000 or counts[-1] > 2 ** 64  # first above 2^64 at n = 29781
    assert run(["--format", fmt, "table", "--max-n", str(max_n)]) == 0
    out = capsys.readouterr().out
    assert out == table_oracle(fmt, counts)
    if fmt == "csv":  # every line ends in \r\n, which splitlines() hides
        assert out.count("\r\n") == out.count("\n") == max_n + 2


# the first and last entries of the decode's first blocks, and the limit
POINTS = [16383, 16384, 16385, 32768, 10 ** 6]


@pytest.mark.parametrize("n", [0, 1] + POINTS)
def test_count_reads_the_table_entry(capsys, n):
    expected = counting.count_s_partitions_table(n)[n]
    assert run_json(capsys, ["count", "--n", str(n)]) == (0, [{"n": n, "count": str(expected)}])


@pytest.mark.parametrize("n", POINTS)
def test_estimate_reads_the_table_entry(capsys, n):
    code, recs = run_json(capsys, ["estimate", "--n", str(n)])
    assert code == 0
    assert recs[0]["exact_ln"] == counting.count_s_partitions_table(n).ln(n)


@pytest.mark.parametrize("argv, blocks", [(["count", "--n", "40000"], 1),
                                          (["estimate", "--n", "40000"], 1),
                                          (["table", "--max-n", "40000"], 3)])
def test_cli_decodes_only_the_blocks_it_writes(capsys, monkeypatch, argv, blocks):
    # a point reads the one block that holds n; a table decodes each of its
    # blocks once
    calls = []
    block_ints = counting._block_ints
    monkeypatch.setattr(counting, "_block_ints",
                        lambda *args: calls.append(1) or block_ints(*args))
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == blocks


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command, n", [("estimate", 4096), ("estimate", 10 ** 400),
                                        ("binary-cross-check", 512)])
def test_estimate_records_match_per_record_oracle(capsys, fmt, command, n):
    if command == "estimate":
        bd = asymptotics.ln_ps_estimate(n)
        table = counting.count_s_partitions_table(n) if n <= counting.MAX_EXACT_N else None
    else:
        bd = asymptotics.ln_Ph_estimate(n + 1, asymptotics.binary_partition_params())
        table = counting.count_binary_partitions_table(n)
    record = {"n": n, **asdict(bd)}
    if table is not None:
        record.update(exact_ln=table.ln(n), error=bd.total - table.ln(n))
    assert run(["--format", fmt, command, "--n", str(n)]) == 0
    assert capsys.readouterr().out == stream_oracle(fmt, [record])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("max_n", [1, 16, 5000])
def test_bhatt_audit_matches_per_record_oracle(capsys, fmt, max_n):
    counts = counting.count_s_partitions_table(max_n).counts
    rows = [{"record_type": "audit", "n": n, "exact": str(counts[n]),
             "bound": str(bhatt_bound(n)), "violated": counts[n] > bhatt_bound(n)}
            for n in range(1, max_n + 1)]
    fields = asdict(run_audit(max_n))
    summary = {"record_type": "summary", **fields}
    assert run(["--format", fmt, "bhatt-audit", "--max-n", str(max_n)]) == 0
    captured = capsys.readouterr()
    if fmt == "json":
        assert captured.out == stream_oracle(fmt, rows + [summary])
        assert captured.err == ""
    else:
        assert captured.out == stream_oracle(fmt, rows)
        assert captured.err == json.dumps(summary) + "\n"


def test_csv_w_eval_writes_one_header(capsys):
    code, lines = run_lines(capsys, ["--format", "csv", "w-eval", "--points", "5"])
    assert code == 0
    assert lines[0] == "z,w"
    assert len(lines) == 6 and "z,w" not in lines[1:]


def test_csv_bhatt_audit_sends_the_summary_to_stderr(capsys):
    assert run(["bhatt-audit", "--max-n", "20"]) == 0
    json_summary = capsys.readouterr().out.splitlines()[-1]
    assert run(["--format", "csv", "bhatt-audit", "--max-n", "20"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "record_type,n,exact,bound,violated"
    assert len(lines) == 21 and all(line.startswith("audit,") for line in lines[1:])
    assert captured.err == json_summary + "\n"


@pytest.mark.parametrize("command", ["table", "bhatt-audit"])
def test_reader_closing_early_exits_1_without_traceback(command, src_env):
    # 10^5 lines are megabytes, far past a pipe's buffer
    proc = subprocess.Popen([sys.executable, "-m", "spartitions", command,
                             "--max-n", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env)
    try:
        assert proc.stdout.readline().startswith(b'{"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""  # no BrokenPipeError traceback, nor anything else


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        run(["count"])  # missing --n
    assert info.value.code == 1


def test_binary_cross_check_takes_no_tol(capsys):
    # its estimate's constants are exact, so a tol could only be checked
    with pytest.raises(SystemExit) as info:
        run(["binary-cross-check", "--n", "512", "--tol", "1e-8"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: spartitions")
    assert "unrecognized arguments: --tol 1e-8" in captured.err


def test_accuracy_error_exit_2(capsys, monkeypatch):
    def unmet(tol):
        raise AccuracyError("quadrature stalled")

    monkeypatch.setattr(asymptotics, "alpha_constant", unmet)
    assert run(["constants"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spartitions: numerical tolerance not met: quadrature stalled\n"


def test_domain_error_exit_1(capsys):
    # count checks --n itself, so the message names n, not the table
    # builder's n_max (test_exact_tables_stop_at_the_limit has its ceiling)
    assert run(["count", "--n", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spartitions: error: n must be an int >= 0, got -3\n"
    # the message names the n the user passed and its floor, as estimate's
    # does, not the u = n + 1 that the estimate is evaluated at
    for n in ("1", "0"):
        assert run(["binary-cross-check", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spartitions: error: n must be an int >= 2, got {n}\n"


# valid calls in both formats, a usage error, a DomainError, a valid call
ONE_PROCESS_CALLS = [
    [*fmt, *argv]
    for argv in (["count", "--n", "7"], ["table", "--max-n", "10"],
                 ["estimate", "--n", "4096"], ["bhatt-audit", "--max-n", "20"],
                 ["decompose", "--n", "7"])
    for fmt in ([], ["--format", "csv"])
] + [["count"], ["count", "--n", "-3"], ["modexp", "--a", "2", "--n", "10", "--m", "1000"]]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # run builds its parser once per process; each call through it ends
    # with the stdout, stderr and exit code that a fresh parser gives
    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert cli._build_parser() is cli._build_parser()
    reused = [outcome(argv) for argv in ONE_PROCESS_CALLS]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [outcome(argv) for argv in ONE_PROCESS_CALLS] == reused
    assert [code for code, _, _ in reused[-3:]] == [("SystemExit", 1), 1, 0]


@pytest.mark.parametrize("argv", [["count", "--n"], ["table", "--max-n"],
                                  ["binary-cross-check", "--n"]])
def test_exact_tables_stop_at_the_limit(capsys, argv):
    # the table builder's own limit check, which count and
    # binary-cross-check make themselves to name their --n; that it runs
    # before any allocation is test_tables_stop_at_the_exact_limit's concern
    assert counting.MAX_EXACT_N == 10 ** 6
    name = "n_max" if argv[0] == "table" else "n"
    for fmt in ([], ["--format", "csv"]):  # and CSV's table header stays out
        for n in (10 ** 6 + 1, 10 ** 9):
            assert run(fmt + argv + [str(n)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"exact tables stop at {name} = {10 ** 6}, got {n}\n" in captured.err


def test_unknown_command_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 1
