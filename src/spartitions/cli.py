"""Command-line surface: every operation, machine-readable output.

JSON-lines by default (one record per line); with --format csv, one
header from the first record's keys, then a row per record.  Every
command writes one record shape to stdout; bhatt-audit's CSV-mode
summary goes to stderr as JSON.  Exact counts are serialized as decimal
strings since they outgrow native integer widths in consumers.  Exit
codes: 0 success, 1 usage error (or, from ``main``, a reader that closed
stdout early), 2 numerical tolerance not met.
"""

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict

from . import asymptotics, bhatt, counting, modexp
from .errors import AccuracyError, DomainError, _check_int

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _writer(fmt: str, stream):
    """The emit function of --format fmt, writing to stream."""
    if fmt == "json":
        return lambda record: stream.write(json.dumps(record) + "\n")
    writer = None

    def emit(record: dict):
        nonlocal writer
        if writer is None:
            writer = csv.DictWriter(stream, fieldnames=list(record))
            writer.writeheader()
        writer.writerow(record)
    return emit


def _exact_count(n: int) -> int:
    """p_s(n) from the DP to n, decoding only the last block, whose last
    entry is n's."""
    counting._check_n_max(n, "n")  # so that a message names --n
    return next(counting._s_blocks(n, n))[-1]


def _cmd_count(args, emit):
    emit({"n": args.n, "count": str(_exact_count(args.n))})


# (header, row) per format: the lines _writer's emit would write for
# {"n": n, "count": str(count)}, without a dict or an encoder per row
_TABLE_LINES = {
    "json": ("", '{"n": %d, "count": "%d"}\n'),
    "csv": ("n,count\r\n", "%d,%d\r\n"),
}


def _cmd_table(args, emit):
    blocks = counting._s_blocks(args.max_n)
    header, row = _TABLE_LINES[args.format]
    sys.stdout.write(header)
    # one string per decoded block, from one % of the row repeated over
    # its (n, count) pairs: no list of every count or every line is built
    start = 0
    for block in blocks:
        stop = start + len(block)
        pairs = [0] * (2 * len(block))
        pairs[::2] = range(start, stop)
        pairs[1::2] = block
        sys.stdout.write(row * len(block) % tuple(pairs))
        start = stop


def _estimate_record(n: int, bd, exact_ln: float | None) -> dict:
    """n and the estimate's terms, then, when the exact count is known,
    its ln and the estimate's error."""
    record = {"n": n, **asdict(bd)}
    if exact_ln is not None:
        record["exact_ln"] = exact_ln
        record["error"] = bd.total - exact_ln
    return record


def _cmd_estimate(args, emit):
    asymptotics._check_tol(args.tol, "--tol")  # so that a message names --tol
    bd = asymptotics.ln_ps_estimate(args.n, tol=args.tol, nu_max=args.nu_max)
    exact_ln = (counting.ln_count(_exact_count(args.n))
                if args.n <= counting.MAX_EXACT_N else None)
    emit(_estimate_record(args.n, bd, exact_ln))


def _cmd_constants(args, emit):
    tol = args.tol
    asymptotics._check_tol(tol, "--tol")  # so that a message names --tol
    alpha = asymptotics.alpha_constant(tol)
    c = asymptotics.c_constant(tol)
    tail = asymptotics.tail_integral_I(tol)
    h = asymptotics.H_constant(tol)
    emit({
        "alpha": alpha, "alpha_error_bound": tol,
        "c": c, "c_error_bound": tol,
        "tail_integral": tail,
        "tail_integral_error_bound": asymptotics.TAIL_I_ERROR_BOUND,
        "H": h,
        "H_error_bound": tol + asymptotics.A * asymptotics.TAIL_I_ERROR_BOUND,
    })


def _cmd_w_eval(args, emit):
    # past 2^53 points the grid j ln2 / points has no distinct float points
    if not 1 <= args.points <= 2 ** 53:
        raise DomainError(f"--points must be >= 1 and <= 2**53, got {args.points}")
    for j in range(args.points):
        z = j * asymptotics.LN2 / args.points
        emit({"z": z, "w": asymptotics.w_oscillation(z, args.nu_max)})


def _cmd_bhatt_audit(args, emit):
    def emitted(pairs):
        for n, (exact, bound) in enumerate(pairs, 1):
            emit({
                "record_type": "audit", "n": n, "exact": str(exact),
                "bound": str(bound), "violated": exact > bound,
            })
            yield exact, bound

    summary = {"record_type": "summary",
               **asdict(bhatt._summarize(emitted(bhatt.audit_scan(args.max_n))))}
    if args.format == "csv":
        print(json.dumps(summary), file=sys.stderr)
    else:
        emit(summary)


def _cmd_decompose(args, emit):
    part = modexp.greedy_decompose(args.n)
    lists = {"exponents": list(part.exponents), "parts": [str(p) for p in part.parts()]}
    if args.format == "csv":  # a CSV cell holds each list as its JSON text
        lists = {key: json.dumps(value) for key, value in lists.items()}
    emit({"n": args.n, **lists})


def _cmd_modexp(args, emit):
    ops = modexp.OpCount()
    result = modexp.modexp_spartition(args.a, args.n, args.m, ops)
    record = {
        "a": str(args.a), "n": str(args.n), "m": str(args.m),
        "result": str(result),
        "squarings": ops.squarings, "multiplies": ops.multiplies,
    }
    if args.check:
        reference = modexp.modexp_reference(args.a, args.n, args.m)
        record["reference"] = str(reference)
        record["match"] = reference == result
    emit(record)


def _cmd_binary_cross_check(args, emit):
    _check_int("n", args.n, 2)
    counting._check_n_max(args.n, "n")  # so that a message names --n
    exact_ln = counting.count_binary_partitions_table(args.n).ln(args.n)
    bd = asymptotics.ln_Ph_estimate(args.n + 1, asymptotics.binary_partition_params(),
                                    nu_max=args.nu_max)
    emit(_estimate_record(args.n, bd, exact_ln))


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="spartitions",
                     description="Exact Mersenne-part partition counts, "
                                 "asymptotics, bound audit, modexp.")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default: json lines)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact p_s(n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="exact p_s(0..max-n)")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("estimate", help="asymptotic ln p_s(n) breakdown")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=asymptotics.DEFAULT_TOL)
    p.add_argument("--nu-max", type=int, default=asymptotics.DEFAULT_NU_MAX)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("constants", help="alpha, c, tail integral, H")
    p.add_argument("--tol", type=float, default=asymptotics.DEFAULT_TOL)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("w-eval", help="oscillation W over one period")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--nu-max", type=int, default=asymptotics.DEFAULT_NU_MAX)
    p.set_defaults(func=_cmd_w_eval)

    p = sub.add_parser("bhatt-audit", help="exact counts vs the claimed bound")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_bhatt_audit)

    p = sub.add_parser("decompose", help="greedy Mersenne-part decomposition")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("modexp", help="a^n mod m via the decomposition")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="also compare against builtin pow")
    p.set_defaults(func=_cmd_modexp)

    p = sub.add_parser("binary-cross-check",
                       help="generic estimate with power-of-two parts vs exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu-max", type=int, default=asymptotics.DEFAULT_NU_MAX)
    p.set_defaults(func=_cmd_binary_cross_check)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args, _writer(args.format, sys.stdout))
    except DomainError as exc:
        print(f"spartitions: error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"spartitions: numerical tolerance not met: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
    except BrokenPipeError:
        # the SIGPIPE note of Python's signal docs: point stdout at devnull
        # so the interpreter's own flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
