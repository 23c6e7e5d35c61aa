#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the baseline record.

    python3 bench/prove.py [--workloads count,audit] [--seeds 10] [--write]

Runs bench/run.py once per seed on each workload, then prints for every
end-to-end metric the median and the quartile spread (q3 - q1) / median,
as statistics.quantiles(values, n=4) gives them, next to the metric's
bound.  A spread at or above a third of its bound is flagged (setup_s is
compared across medians only, so it is not flagged).  With --write it
also makes one traced run per workload and records medians, spreads,
per-layer numbers, the machine and the commit in bench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    record = json.loads(lines[-2])["record"]
    return json.loads(lines[-1]), record


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    out = {"machine": machine(), "commit": commit(), "seeds": seeds,
           "run_seconds": SPEC["run_seconds"],
           "better": {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]},
           "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, 0) for seed in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r, _ in runs):
            sys.exit(f"{workload}: a run was incorrect or had failed ops")
        summary = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = spread >= m["bound"] / 3 and m["name"] != "setup_s"
            steady &= not flag
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "unit": m["unit"], "bound": m["bound"], "values": values}
            print(f"{workload:9s} {m['name']:14s} median {med:12.6g} {m['unit']:4s} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f}{'  <-- NOT STEADY' if flag else ''}",
                  flush=True)
        entry = {"why": whys[workload], "end_to_end": summary,
                 "error_rate": statistics.median(rec["error_rate"] for _, rec in runs),
                 "known_defects": runs[0][1]["known_defects"]}
        if args.write:
            traced, rec = bench(workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["spans"] = rec["spans"]
        out["workloads"][workload] = entry
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
