"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The slow tests run every workload traced, twice, through bench/run.py
(about half a minute on a 2-core machine).
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
from spartitions import asymptotics, bhatt, count_binary_partitions_table  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

# counters that depend on the seed only, never on timing
EXACT = ("counting.dp_additions", "counting.table_bits", "counting.ln_calls",
         "bhatt.bound_calls", "bhatt.bound_failures", "asymptotics.estimate_calls",
         "asymptotics.w_calls", "asymptotics.alpha_calls", "asymptotics.tail_calls",
         "asymptotics.estimate_failures", "quadrature.calls", "quadrature.evaluations",
         "specfun.gamma_calls", "specfun.zeta_calls", "modexp.calls", "modexp.squarings",
         "modexp.multiplies", "modexp.part_calls", "cli.calls", "cli.records_out",
         "cli.bytes_out")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def traced(workload, seed):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def test_bound_formula_matches_library_below_2_64():
    rng = random.Random(0)
    for k in range(1, 65):
        n = rng.randrange(1 << (k - 1), 1 << k)
        assert oracles.bound_formula(n) == bhatt.bhatt_bound(n)


def test_binary_recurrence_accepts_table_and_rejects_a_flip():
    counts = list(count_binary_partitions_table(500).counts)
    assert oracles.binary_recurrence_ok(counts)
    counts[317] += 1
    assert not oracles.binary_recurrence_ok(counts)


def test_estimate_oracle_accepts_library_and_rejects_an_offset():
    oracle = oracles.EstimateOracle(16)
    for n in (10, 10 ** 6, 10 ** 100, 10 ** 300):
        bd = asymptotics.ln_ps_estimate(n)
        assert oracle.estimate_ok(bd.total, bd.w_value, n, 1e-8, 16)
        assert not oracle.estimate_ok(bd.total + 1e-7, bd.w_value, n, 1e-8, 16)
    for z in (0.0, 0.3, 7.7):
        assert abs(asymptotics.w_oscillation(z) - oracle.w(z, 16)) <= 1e-12


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_its_counters_repeat(workload):
    first, rec = traced(workload, 5)
    second, _ = traced(workload, 5)
    assert first["correct"] and first["failed"] == 0
    assert rec["missing_layers"] == []
    assert "trace.overhead_s" in first["metrics"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "modexp":
        assert rec["probe_10e18_mults"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "count", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
