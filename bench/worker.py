"""One workload in one fresh interpreter; started by run.py.

Prints ``ready`` as soon as set-up is done (run.py times interpreter start
to that line as set-up), then, unless ``--setup-only``, runs the timed
passes and prints one JSON record of the run.
"""

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spartitions  # noqa: E402
from spartitions import asymptotics, bhatt, cli, counting, modexp  # noqa: E402

if Path(spartitions.__file__).resolve().parent != ROOT / "src" / "spartitions":
    sys.exit(f"bench: spartitions imported from {spartitions.__file__}, not from {ROOT / 'src'}")

import spans  # noqa: E402
from workloads import FAILED, WORKLOADS, Pass  # noqa: E402

MODULES = {"counting": counting, "bhatt": bhatt, "asymptotics": asymptotics,
           "modexp": modexp, "cli": cli}


def batch_rng(workload: str, seed: int, batch_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch_no}")


def run_pass(w, batch, pass_no, tracer=None) -> Pass:
    p = Pass()
    t0 = time.perf_counter()
    with tracer or contextlib.nullcontext():
        out = w.run(p, batch, pass_no)
    p.wall = time.perf_counter() - t0
    w.check(p, batch, out)
    return p


def run_probes(w, seed, tracer=None) -> Pass:
    """Known-defect inputs, outside the workload: failures are recorded by
    name and a probe that succeeds must be right."""
    p = Pass()
    with tracer or contextlib.nullcontext():
        probes = w.defect_probes(batch_rng(w.name + "-probes", seed, 0))
        outs = [p.call(fn, *args) for fn, args, _ in probes]
    for (fn, args, ok), out in zip(probes, outs):
        if out is not FAILED and not ok(out, *args):
            p.wrong.append(f"{fn.__name__}{args} = {out}")
    return p


def best_latencies(passes) -> list:
    """Each op's fastest successful timing over the passes of the run.

    On a shared 2-vCPU host the speed drifts by tens of percent over
    seconds (a fixed pure-Python loop read 0.25 s in one 10-s window and
    0.43 s in the next, with CPU time equal to wall time), so a median over
    one stretch of a run follows the host more than the program.  The
    fastest of an op's timings, taken at different moments of the run,
    moves much less from run to run."""
    best = []
    for timings in zip(*(p.latencies for p in passes)):
        ok = [t for t in timings if t is not None]
        if ok:
            best.append(min(ok))
    return best


def timing_metrics(passes) -> dict:
    """Metrics over each op's fastest timing: wall_s is their sum (a pass
    with no op slowed by the host), op_p50_ms and op_tail_ms their median
    and tail.  The tail is the highest percentile that leaves at least ten
    ops beyond it, or the slowest op where a batch has fewer than eleven."""
    ordered = sorted(best_latencies(passes))
    pct = 100.0 * (len(ordered) - 10) / len(ordered) if len(ordered) > 10 else 100.0
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    tail = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return {"wall_s": sum(ordered), "op_p50_ms": 1e3 * statistics.median(ordered),
            "op_tail_ms": 1e3 * tail, "tail_pct": pct, "op_samples": len(ordered),
            "repeats": len(passes)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]()
    w.setup()
    batch = w.make_batch(batch_rng(w.name, args.seed, 0))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {}
    if args.trace:
        # the same batch untraced, traced, untraced: the exact counters depend
        # on the seed only, and untraced passes on both sides of the traced one
        # cancel a steady drift in machine speed from the overhead
        tracer = spans.Tracer(MODULES)
        passes = [run_pass(w, batch, 0), run_pass(w, batch, 1, tracer), run_pass(w, batch, 2)]
        probes = run_probes(w, args.seed, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = passes[1].wall - (passes[0].wall + passes[2].wall) / 2
        record["spans"] = tracer.span_counts()
        record["missing_layers"] = tracer.missing_layers(w.layers)
        record["trace_errors"] = {f"{n}: {e}": c for (n, e), c in tracer.errors.items()}
    else:
        # the same batch, pass after pass, until --seconds of timed work;
        # the first pass also warms the caches a library user keeps warm
        passes, measured = [], 0.0
        while measured < args.seconds:
            passes.append(run_pass(w, batch, len(passes)))
            measured += passes[-1].wall
        probes = run_probes(w, args.seed)
        timing = timing_metrics(passes)
        metrics = {name: timing.pop(name) for name in ("wall_s", "op_p50_ms", "op_tail_ms")}
        metrics["goodput_per_s"] = statistics.mean(p.units for p in passes) / metrics["wall_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(timing)
        record["measured_s"] = measured

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "passes": len(passes),
        "errors": dict(sum((p.errors for p in passes), Counter())),
        "wrong_count": sum(len(p.wrong) for p in passes + [probes]),
        "wrong": [m for p in passes + [probes] for m in p.wrong][:20],
        "known_defects": dict(probes.errors),
        "defect_probes": probes.attempted,
    })
    if w.name == "modexp":
        record["probe_10e18_mults"] = w.probe_mults
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
