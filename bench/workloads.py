"""The four benchmark workloads: seeded inputs, the timed pass, and the
output gate that checks every result against ``oracles``.

A pass is a closed loop of calls from one client: each call starts when
the previous one returns.  Every call goes through ``Pass.call``, which
times it and records an exception by type instead of letting it end the
run.  A run repeats the same batch pass after pass, so the i-th call of
every pass is the same op.  Checks run after the pass, outside its timing.
"""

import contextlib
import io
import itertools
import json
import math
from collections import Counter
from time import perf_counter

from spartitions import asymptotics, bhatt, cli, counting, modexp

import oracles

# The paper's size is 10^6, where each table takes about 2 s.  The host's
# speed swings by tens of percent from one second to the next, and the
# fastest of an op's timings is steady only when the op runs dozens of times
# a run: at 10^6 a run holds four passes, and their fastest timings spread
# 12-25% from run to run.  Tables to 10^5 take about 0.25 s, and the DP's
# big-int additions are of a like size.
TABLE_N = oracles.TABLE_N
CLI_N = 10 ** 4
DEFAULT_TOL = 1e-8
FAILED = object()


class Pass:
    def __init__(self):
        self.attempted = 0
        self.latencies = []      # seconds per call in call order, None where it raised
        self.errors = Counter()  # "function: ExceptionType" -> count
        self.wrong = []          # one message per wrong output
        self.wall = 0.0
        self.units = 0           # correct work units, credited by the check

    def call(self, fn, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self.errors[f"{fn.__name__}: {type(exc).__name__}"] += 1
            self.latencies.append(None)
            return FAILED
        self.latencies.append(perf_counter() - t0)
        return out

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)


def run_cli(sink, argv):
    """One in-process CLI invocation with stdout captured in ``sink``."""
    with contextlib.redirect_stdout(sink):
        return cli.run(argv)


def _cli_output(p, rc, sink, what):
    """An iterator over the captured output lines, or None when the call
    raised (already counted) or exited non-zero (counted here)."""
    if rc is FAILED:
        return None
    if rc != 0:
        p.wrong.append(f"{what}: exit code {rc}")
        return None
    return _iter_lines(sink.getvalue())


def _iter_lines(text):
    # one line at a time: a list of 10^5 lines, or a rewound StringIO
    # (four bytes per character), would set the worker's peak RSS
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _stratified(rng, count, lo, hi):
    """count integers covering [lo, hi] evenly, jittered within each stratum,
    in random order; keeps the size mix the same on every seed."""
    width = (hi - lo + 1) / count
    values = [lo + int((j + rng.random()) * width) for j in range(count)]
    rng.shuffle(values)
    return values


def ln_queries(table, ns):
    return [table.ln(n) for n in ns]


class Workload:
    """name and the layers its passes must reach."""

    def __init__(self):
        self._checked = {}  # kind -> the last output of that kind that passed

    def setup(self):
        """Work done before the first timed op; part of setup_s."""

    def verified(self, kind, value, check) -> bool:
        """Whether value is right: equal to the last output of its kind that
        passed, or passing check(value) now.  Every pass repeats one batch,
        so the full check runs about once a run."""
        if value == self._checked.get(kind):
            return True
        if check(value):
            self._checked[kind] = value
            return True
        return False

    def defect_probes(self, rng):
        """(function, args, check) for inputs that fail on the seed library."""
        return []


class Count(Workload):
    """Exact tables: the big-int DP is most of the pass."""

    name = "count"
    layers = ("counting", "cli")

    def make_batch(self, rng):
        return {
            "ln_s": [rng.randrange(TABLE_N + 1) for _ in range(10 ** 4)],
            "ln_b": [rng.randrange(TABLE_N + 1) for _ in range(10 ** 4)],
            "brute": [rng.randrange(counting.BRUTE_FORCE_LIMIT + 1) for _ in range(4)],
        }

    def run(self, p, batch, pass_no):
        s = p.call(counting.count_s_partitions_table, TABLE_N)
        b = p.call(counting.count_binary_partitions_table, TABLE_N)
        # the 10^4 queries on a table are one op: a single query takes about a
        # microsecond, and its timing follows the host's memory contention of
        # the moment (1.0 or 1.7 us, the same query) more than the library
        ln_s = p.call(ln_queries, s, batch["ln_s"]) if s is not FAILED else FAILED
        ln_b = p.call(ln_queries, b, batch["ln_b"]) if b is not FAILED else FAILED
        sink = io.StringIO()
        rc = p.call(run_cli, sink, ["table", "--max-n", str(CLI_N)])
        return s, b, ln_s, ln_b, rc, sink

    def check(self, p, batch, out):
        s, b, ln_s, ln_b, rc, sink = out
        s_ok = s is not FAILED and self.verified("s", s.counts, lambda c: (
            oracles.table_digest(c) == oracles.S_TABLE_DIGEST
            and all(counting.brute_force_count(n) == c[n] for n in batch["brute"])))
        b_ok = b is not FAILED and self.verified("b", b.counts, lambda c: (
            oracles.table_digest(c) == oracles.B_TABLE_DIGEST and oracles.binary_recurrence_ok(c)))
        for what, table, ok in (("s-table", s, s_ok), ("binary table", b, b_ok)):
            if ok:
                p.units += TABLE_N + 1
            elif table is not FAILED:
                p.wrong.append(f"{what} differs from its pinned digest or independent check")
        for kind, table, values in (("ln_s", s, ln_s), ("ln_b", b, ln_b)):
            ns = batch[kind]
            if values is not FAILED and not self.verified(kind, values, lambda v: all(
                    oracles.ln_close(x, table.counts[n]) for n, x in zip(ns, v))):
                p.wrong.append(f"{kind} queries differ from ln of the table")
        lines = _cli_output(p, rc, sink, "cli table")
        if lines is not None:
            expected = (json.dumps({"n": n, "count": str(s.counts[n])}) + "\n"
                        for n in range(CLI_N + 1))
            if s_ok and self.verified("cli", sink.getvalue(), lambda _: all(
                    a == b for a, b in itertools.zip_longest(lines, expected))):
                p.units += CLI_N + 1
            else:
                p.wrong.append("cli table output differs from the checked s-table")


class Audit(Workload):
    """The bound audit over a prebuilt table: bhatt_bound dominates."""

    name = "audit"
    layers = ("counting", "bhatt", "cli")
    PROBES = 1000
    # A pass audits n <= 2*10^4 (about 0.2 s), not the paper's 10^6 (8 s),
    # for the reason given at TABLE_N: audits to 2*10^5 spread 30% run to run.
    AUDIT_N = 2 * 10 ** 4

    def setup(self):
        self.table = counting.count_s_partitions_table(self.AUDIT_N)

    def make_batch(self, rng):
        # n log-uniform over [1, 2^64): the range bhatt_bound supports today
        bits = _stratified(rng, self.PROBES, 1, 64)
        return {"probes": [rng.randrange(1 << (k - 1), 1 << k) for k in bits]}

    def run(self, p, batch, pass_no):
        summary = p.call(bhatt.run_audit, self.AUDIT_N, self.table)
        bounds = [p.call(bhatt.bhatt_bound, n) for n in batch["probes"]]
        sink = io.StringIO()
        rc = p.call(run_cli, sink, ["bhatt-audit", "--max-n", str(CLI_N)])
        return summary, bounds, rc, sink

    def _summary_ok(self, s: dict, n_max: int) -> bool:
        pins = oracles.AUDIT_PINS[n_max]
        n = s["max_ratio_n"]
        return (all(s[k] == v for k, v in pins.items())
                and oracles.ratio_close(s["max_ratio"], self.table[n], oracles.bound_formula(n)))

    def _cli_ok(self, lines) -> bool:
        counts = self.table.counts
        n, last = 0, None
        for line in lines:
            last = json.loads(line)
            if last["record_type"] != "audit":
                break
            n += 1
            bound = oracles.bound_formula(n)
            if last != {"record_type": "audit", "n": n, "exact": str(counts[n]),
                        "bound": str(bound), "violated": counts[n] > bound}:
                return False
        return (n == CLI_N and last["record_type"] == "summary" and next(lines, None) is None
                and self._summary_ok(last, CLI_N))

    def check(self, p, batch, out):
        summary, bounds, rc, sink = out
        if not self.verified("table", self.table.counts,
                             lambda c: oracles.table_digest(c) == oracles.AUDIT_TABLE_DIGEST):
            p.wrong.append("audit table differs from the pinned digest")
            return
        if summary is not FAILED:
            if self._summary_ok(vars(summary), self.AUDIT_N):
                p.units += self.AUDIT_N
            else:
                p.wrong.append(f"run_audit summary {summary}")
        if self.verified("probes", bounds, lambda v: all(
                x is FAILED or x == oracles.bound_formula(n) for n, x in zip(batch["probes"], v))):
            p.units += sum(x is not FAILED for x in bounds)
        else:
            p.wrong.append("bhatt_bound probes differ from the bound formula")
        lines = _cli_output(p, rc, sink, "cli bhatt-audit")
        if lines is None:
            return
        if self.verified("cli", sink.getvalue(), lambda _: self._cli_ok(lines)):
            p.units += CLI_N
        else:
            p.wrong.append("cli bhatt-audit output differs from the table and bound formula")

    def defect_probes(self, rng):
        # n >= 2^64 raises KeyError on the seed library
        return [(bhatt.bhatt_bound, (rng.randrange(1 << (k - 1), 1 << k),),
                 lambda out, n: out == oracles.bound_formula(n))
                for k in (65, 70, 75, 80, 85, 90, 93, 96)]


class Estimate(Workload):
    """Point queries of the asymptotic estimate and W: asymptotics,
    specfun and, on cold constants, quadrature."""

    name = "estimate"
    layers = ("asymptotics", "quadrature", "specfun", "cli")
    OPS = 1000
    # W keeps frequencies up to 22 (Gamma's band); nu_max spread evenly over
    # 1..22 gives a smooth spread of op costs, so the latency quantiles do not
    # sit in a gap between clusters of equal-cost calls
    NU_MAX = 22
    _oracle = None

    @property
    def oracle(self):
        # built on first use, after the first timed pass
        if self._oracle is None:
            self._oracle = oracles.EstimateOracle(self.NU_MAX)
        return self._oracle

    def make_batch(self, rng):
        ops = []
        for kind, count in (("ps", 600), ("ph", 150)):
            # n from 1 to 308 decimal digits: below the float overflow of n + 1
            digits = _stratified(rng, count, 1, 308)
            for j, (d, nu) in enumerate(zip(digits, _stratified(rng, count, 1, self.NU_MAX))):
                n = rng.randrange(max(2, 10 ** (d - 1)), 10 ** d)
                ops.append((kind, n, nu, j % 4 == 3))  # 1/4 cold tol
        for nu in _stratified(rng, 246, 1, self.NU_MAX):
            ops.append(("w", rng.uniform(0.0, 50.0), nu, False))
        for cold in (False, True):
            ops.append(("cli-estimate", rng.randrange(10 ** 7, 10 ** 308), 16, cold))
        ops.append(("cli-constants", None, None, True))
        ops.append(("cli-w-eval", 64, 16, False))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _tol(cold, pass_no, j):
        # a tol never used before in this process misses the constants' lru_cache
        return DEFAULT_TOL * (1 + (pass_no * Estimate.OPS + j + 1) * 2.0 ** -30) if cold else DEFAULT_TOL

    @staticmethod
    def _ph(n, tol, nu):
        return asymptotics.ln_Ph_estimate(float(n + 1), asymptotics.binary_partition_params(tol),
                                          tol, nu)

    def run(self, p, batch, pass_no):
        outs = []
        for j, (kind, x, nu, cold) in enumerate(batch):
            tol = self._tol(cold, pass_no, j)
            if kind == "ps":
                out = p.call(asymptotics.ln_ps_estimate, x, tol, nu)
            elif kind == "ph":
                out = p.call(self._ph, x, tol, nu)
            elif kind == "w":
                out = p.call(asymptotics.w_oscillation, x, nu)
            else:
                argv = {"cli-estimate": ["estimate", "--n", str(x), "--tol", repr(tol),
                                         "--nu-max", str(nu)],
                        "cli-constants": ["constants", "--tol", repr(tol)],
                        "cli-w-eval": ["w-eval", "--points", str(x), "--nu-max", str(nu)]}[kind]
                sink = io.StringIO()
                out = (p.call(run_cli, sink, argv), sink)
            outs.append((tol, out))
        return outs

    def _ok(self, kind, x, nu, tol, out, p):
        o = self.oracle
        if kind in ("ps", "ph"):
            return o.estimate_ok(out.total, out.w_value, x, tol, nu, binary=kind == "ph")
        if kind == "w":
            return abs(out - o.w(x, nu)) <= 1e-12
        lines = _cli_output(p, *out, kind)
        if lines is None:
            return None
        recs = [json.loads(line) for line in lines]
        if kind == "cli-estimate":
            return len(recs) == 1 and o.estimate_ok(recs[0]["total"], recs[0]["w_value"],
                                                    x, tol, nu)
        if kind == "cli-constants":
            return len(recs) == 1 and o.constants_ok(recs[0], tol)
        return len(recs) == x and all(
            abs(r["z"] - j * math.log(2.0) / x) <= 1e-15 and abs(r["w"] - o.w(r["z"], nu)) <= 1e-12
            for j, r in enumerate(recs))

    def check(self, p, batch, outs):
        for (kind, x, nu, _), (tol, out) in zip(batch, outs):
            if out is FAILED or (isinstance(out, tuple) and out[0] is FAILED):
                continue
            ok = self._ok(kind, x, nu, tol, out, p)
            if ok:
                p.units += 1
            elif ok is not None:
                p.wrong.append(f"{kind} x={x} nu_max={nu} tol={tol!r}")

    def defect_probes(self, rng):
        # n + 1 beyond the float range raises OverflowError on the seed library
        return [(asymptotics.ln_ps_estimate, (rng.randrange(10 ** (d - 1), 10 ** d),),
                 lambda out, n: self.oracle.estimate_ok(out.total, out.w_value, n,
                                                        DEFAULT_TOL, 16))
                for d in (310, 320, 335, 350, 365, 380, 390, 400)]


def modexp_call(a, n, m):
    ops = modexp.OpCount()
    return modexp.modexp_spartition(a, n, m, ops), ops


class Modexp(Workload):
    """a^n mod m through the Mersenne-part decomposition."""

    name = "modexp"
    layers = ("modexp", "cli")
    PROBE = (7, 10 ** 18, 2 ** 61 - 1)
    probe_mults = None  # OpCount total of PROBE in the last checked pass

    def make_batch(self, rng):
        ops = []
        # n bits over 16..512 and m bits over 32..512, 45 sizes each, paired by
        # a fixed permutation: the seed picks the values, never the sizes, so
        # the latency quantiles do not move with the seed.  A pass of 50
        # calls takes under 2 s, so each call is timed about ten times a run.
        for j in range(45):
            nb = 16 + int((j + 0.5) * 497 / 45)
            mb = 32 + int((j * 19 % 45 + 0.5) * 481 / 45)
            m = rng.randrange(1 << (mb - 1), 1 << mb) | 1
            ops.append(("call", rng.randrange(2, m), rng.randrange(1 << (nb - 1), 1 << nb), m))
        for m in (2 ** 61 - 1, 2 ** 127 - 1):
            ops.append(("call", rng.randrange(2, m), rng.randrange(1 << 255, 1 << 256), m))
        ops.append(("call", *self.PROBE))
        for _ in range(2):
            m = rng.getrandbits(128) | 1 | 1 << 127
            ops.append(("cli", rng.randrange(2, m), rng.randrange(1 << 127, 1 << 128), m))
        rng.shuffle(ops)
        return ops

    def run(self, p, batch, pass_no):
        outs = []
        for kind, a, n, m in batch:
            if kind == "call":
                outs.append(p.call(modexp_call, a, n, m))
            else:
                sink = io.StringIO()
                argv = ["modexp", "--a", str(a), "--n", str(n), "--m", str(m), "--check"]
                outs.append((p.call(run_cli, sink, argv), sink))
        return outs

    def check(self, p, batch, outs):
        for (kind, a, n, m), out in zip(batch, outs):
            if out is FAILED:
                continue
            expected = pow(a, n, m)
            if kind == "call":
                result, ops = out
                ok = result == expected
                if (a, n, m) == self.PROBE:
                    self.probe_mults = ops.total
            else:
                lines = _cli_output(p, *out, "cli modexp")
                if lines is None:
                    continue
                recs = [json.loads(line) for line in lines]
                ok = (len(recs) == 1 and recs[0]["result"] == str(expected)
                      and recs[0]["match"] is True)
            if ok:
                p.units += 1
            else:
                p.wrong.append(f"{kind} {a}^{n} mod {m}")


WORKLOADS = {w.name: w for w in (Count, Audit, Estimate, Modexp)}
