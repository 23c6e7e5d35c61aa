#!/usr/bin/env python3
"""Benchmark of the spartitions library.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload runs in a fresh interpreter
(bench/worker.py) against the library in ./src, with inputs made from
--seed, and checks every output against an independent oracle.  Without
--workload all workloads run in turn.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: one seeded
batch, repeated pass after pass until --seconds of timed work.  Each op of
the batch keeps its fastest timing over the passes (worker.best_latencies);
wall_s is their sum, op_p50_ms and op_tail_ms their median and tail.
setup_s is the median of several fresh interpreters started up to their
first timed op.
--trace 1 measures the per-layer metrics instead: the first batch untraced,
traced (spans recorded around every library layer) and untraced again.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 when an output is wrong or a layer the
workload exercises recorded no span, 2 when ./src/spartitions is missing,
and 3 when a worker fails or runs out of time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("count", "audit", "estimate", "modexp")
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def start_worker(args, deadline, setup_only):
    """Start a worker; return (seconds from spawn to its ready line, process)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if line != "ready\n" or code != 0:
        raise BenchError(f"worker {args.workload} exited with code {code}")
    return ready, out


def run_workload(args, spec):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, deadline, True)[0])
    ready, out = start_worker(args, deadline, False)
    setups.append(ready)
    record = json.loads(out.strip().splitlines()[-1])
    metrics = record.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"worker {args.workload} did not report {missing}")
    result = {
        "correct": record["wrong_count"] == 0 and not record.get("missing_layers"),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, record


def report(workload, result, record):
    for name, m in result["metrics"].items():
        print(f"{workload:9s} {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:9s} attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={record['error_rate']:.3g} errors={record['errors']} "
          f"known_defects={record['known_defects']}")
    if record["wrong"]:
        print(f"{workload:9s} WRONG OUTPUT: {record['wrong']}", file=sys.stderr)
    if record.get("missing_layers"):
        print(f"{workload:9s} ERROR: no spans recorded in layers {record['missing_layers']}; "
              f"span counts {record['spans']}", file=sys.stderr)
    print(json.dumps({"workload": workload, "record": record}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spartitions" / "__init__.py").is_file():
        print(f"bench: no library at {ROOT / 'src' / 'spartitions'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        try:
            result, record = run_workload(args, spec)
        except (BenchError, ValueError, KeyError, IndexError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 3
        report(workload, result, record)
        results[workload] = result

    if len(results) == 1:
        final = results[workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
