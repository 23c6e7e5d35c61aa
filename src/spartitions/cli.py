"""Command-line surface: every operation, machine-readable output.

JSON-lines by default (one record per line), CSV via --format csv.
Exact counts are serialized as decimal strings since they outgrow
native integer widths in consumers.  Exit codes: 0 success, 1 usage
error, 2 numerical tolerance not met.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from . import asymptotics, bhatt, counting, modexp
from .errors import AccuracyError, DomainError

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Emitter:
    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None
        self._fields = None

    def emit(self, record: dict):
        if self.fmt == "json":
            self.stream.write(json.dumps(record) + "\n")
            return
        fields = list(record)
        if fields != self._fields:
            self._csv = csv.DictWriter(self.stream, fieldnames=fields)
            self._csv.writeheader()
            self._fields = fields
        self._csv.writerow(record)


def _exact_n(n: int, flag: str) -> int:
    # checked before the table is allocated: its memory grows with n
    if n > counting.MAX_EXACT_N:
        raise DomainError(f"{flag} must be <= {counting.MAX_EXACT_N}, got {n}")
    return n


def _cmd_count(args, emit):
    table = counting.count_s_partitions_table(_exact_n(args.n, "--n"))
    emit({"n": args.n, "count": str(table[args.n])})


def _cmd_table(args, emit):
    table = counting.count_s_partitions_table(_exact_n(args.max_n, "--max-n"))
    for n in range(args.max_n + 1):
        emit({"n": n, "count": str(table[n])})


def _cmd_estimate(args, emit):
    bd = asymptotics.ln_ps_estimate(args.n, tol=args.tol, nu_max=args.nu_max)
    record = {"n": args.n, **asdict(bd)}
    if args.n <= counting.MAX_EXACT_N:
        exact_ln = counting.count_s_partitions_table(args.n).ln(args.n)
        record["exact_ln"] = exact_ln
        record["error"] = bd.total - exact_ln
    emit(record)


def _cmd_constants(args, emit):
    tol = args.tol
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
        "H_error_bound": tol + asymptotics.TAIL_I_ERROR_BOUND / math.log(2.0),
    })


def _cmd_w_eval(args, emit):
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    period = math.log(2.0)
    for j in range(args.points):
        z = j * period / args.points
        emit({"z": z, "w": asymptotics.w_oscillation(z, args.nu_max)})


def _cmd_bhatt_audit(args, emit):
    def emitted(records):
        for rec in records:
            emit({
                "record_type": "audit", "n": rec.n, "exact": str(rec.exact),
                "bound": str(rec.bound), "violated": rec.violated,
            })
            yield rec

    fields = asdict(bhatt.summarize(emitted(bhatt.audit_scan(args.max_n))))
    del fields["n_max"]
    summary = {"record_type": "summary", **fields}
    if args.format == "csv":
        print(json.dumps(summary), file=sys.stderr)
    else:
        emit(summary)


def _cmd_decompose(args, emit):
    part = modexp.greedy_decompose(args.n)
    emit({
        "n": args.n,
        "exponents": list(part.exponents),
        "parts": [str(p) for p in part.parts()],
    })


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
    table = counting.count_binary_partitions_table(_exact_n(args.n, "--n"))
    exact_ln = table.ln(args.n)
    params = asymptotics.binary_partition_params(args.tol)
    bd = asymptotics.ln_Ph_estimate(float(args.n + 1), params, tol=args.tol,
                                    nu_max=args.nu_max)
    emit({
        "n": args.n, **asdict(bd),
        "exact_ln": exact_ln, "error": bd.total - exact_ln,
    })


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
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--nu-max", type=int, default=16)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("constants", help="alpha, c, tail integral, H")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("w-eval", help="oscillation W over one period")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--nu-max", type=int, default=16)
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
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--nu-max", type=int, default=16)
    p.set_defaults(func=_cmd_binary_cross_check)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    emitter = _Emitter(args.format, sys.stdout)
    try:
        args.func(args, emitter.emit)
    except DomainError as exc:
        print(f"spartitions: error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"spartitions: numerical tolerance not met: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
