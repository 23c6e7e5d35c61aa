"""Span tracer for the traced benchmark run.

The tracer replaces the library's public functions at the module
attributes their callers resolve at call time (``spartitions.bhatt.ln_count``
is what ``run_audit`` calls, ``spartitions.asymptotics.zeta_complex`` is
what ``w_oscillation_complex`` calls).  Each call records one span: name,
start, end, parent and whether it raised.  Spans stay in flat arrays until
the run ends; ``layer_metrics`` then reduces them to per-layer numbers,
where a span's self time is its duration minus the time its child spans
cover.  Nothing under ``src/`` changes.
"""

import io
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, layer); the span of a call is named "module.attribute"
# after the binding it went through.
BINDINGS = (
    ("counting", "count_s_partitions_table", "counting"),
    ("counting", "count_binary_partitions_table", "counting"),
    ("counting", "ln_count", "counting"),
    ("bhatt", "count_s_partitions_table", "counting"),
    ("bhatt", "ln_count", "counting"),
    ("bhatt", "bhatt_bound", "bhatt"),
    ("bhatt", "run_audit", "bhatt"),
    ("asymptotics", "ln_ps_estimate", "asymptotics"),
    ("asymptotics", "ln_Ph_estimate", "asymptotics"),
    ("asymptotics", "w_oscillation_complex", "asymptotics"),
    ("asymptotics", "alpha_constant", "asymptotics"),
    ("asymptotics", "tail_integral_I", "asymptotics"),
    ("asymptotics", "integrate_adaptive", "quadrature"),
    ("asymptotics", "gamma_complex", "specfun"),
    ("asymptotics", "zeta_complex", "specfun"),
    ("modexp", "modexp_spartition", "modexp"),
    ("modexp", "pow_mersenne_part", "modexp"),
    ("modexp", "greedy_decompose", "modexp"),
    ("cli", "run", "cli"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr, _ in BINDINGS)


def _dp_additions(kind: str, n_max: int) -> int:
    """Inner-loop trips of the unbounded DP over 0..N: sum of N - p + 1 over
    the parts p <= N (2^k - 1, k >= 1 for "s"; 2^k, k >= 0 for "b")."""
    offset, k = (1, 1) if kind == "s" else (0, 0)
    total = 0
    while (1 << k) - offset <= n_max:
        total += n_max - ((1 << k) - offset) + 1
        k += 1
    return total


class Tracer:
    """Installs span-recording wrappers over ``modules`` (name -> module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.failed = array("b")
        self.errors = Counter()          # (span name, exception type) -> count
        self.tables = []                 # (parts kind, CountTable) results
        self.evaluations = 0
        self.squarings = 0
        self.multiplies = 0
        self.exponent_bits = 0
        self.records_out = 0
        self.bytes_out = 0
        self._stack = [-1]               # open spans, innermost last
        self._saved = []

    def __enter__(self):
        hooks = {
            "counting.count_s_partitions_table": self._table_hook("s"),
            "bhatt.count_s_partitions_table": self._table_hook("s"),
            "counting.count_binary_partitions_table": self._table_hook("b"),
            "asymptotics.integrate_adaptive": (None, self._quadrature_after),
            "modexp.modexp_spartition": (None, self._modexp_after),
            "cli.run": (self._cli_before, self._cli_after),
        }
        for sid, (module, attr, _) in enumerate(BINDINGS):
            mod = self.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, sid, *hooks.get(NAMES[sid], (None, None))))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, sid, before, after):
        names, parents, starts, ends, failed = (
            self.names, self.parents, self.starts, self.ends, self.failed)
        stack = self._stack
        errors = self.errors
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = before() if before else None
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                failed[idx] = 1
                errors[(NAMES[sid], type(exc).__name__)] += 1
                raise
            finally:
                stack.pop()
            ends[idx] = clock()
            if after:
                after(token, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    # Counters recorded at the same boundaries as the spans; hooks run
    # outside the wrapped call's own span.

    def _table_hook(self, kind):
        def after(token, args, kwargs, table):
            self.tables.append((kind, table))
        return None, after

    def _quadrature_after(self, token, args, kwargs, result):
        self.evaluations += result.evaluations

    def _modexp_after(self, token, args, kwargs, result):
        ops = args[3] if len(args) > 3 else kwargs.get("ops")
        if ops is not None:  # callers pass a fresh OpCount per call
            self.squarings += ops.squarings
            self.multiplies += ops.multiplies
            self.exponent_bits += args[1].bit_length()

    @staticmethod
    def _cli_before():
        out = sys.stdout
        return out.tell() if isinstance(out, io.StringIO) else None

    def _cli_after(self, pos, args, kwargs, code):
        if pos is not None:
            text = sys.stdout.getvalue()[pos:]
            self.records_out += text.count("\n")
            self.bytes_out += len(text.encode())

    def span_counts(self) -> dict:
        counts = np.bincount(np.frombuffer(self.names, dtype=np.uint16), minlength=len(NAMES))
        return {name: int(c) for name, c in zip(NAMES, counts)}

    def missing_layers(self, expected) -> list:
        """Expected layers that recorded no span: a rebound name or a dead path."""
        counts = self.span_counts()
        seen = {layer for (_, _, layer), name in zip(BINDINGS, NAMES) if counts[name]}
        return [layer for layer in expected if layer not in seen]

    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded."""
        names = np.frombuffer(self.names, dtype=np.uint16).astype(np.intp)
        parents = np.frombuffer(self.parents, dtype=np.int32).astype(np.intp)
        dur = (np.frombuffer(self.ends, dtype=np.int64)
               - np.frombuffer(self.starts, dtype=np.int64)) / 1e9
        failed = np.frombuffer(self.failed, dtype=np.int8).astype(float)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        k = len(NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selftime = np.bincount(names, weights=own, minlength=k)
        fails = np.bincount(names, weights=failed, minlength=k)
        idx = {name: i for i, name in enumerate(NAMES)}

        def c(*ns):
            return int(sum(calls[idx[n]] for n in ns))

        def t(*ns):
            return float(sum(total[idx[n]] for n in ns))

        # an estimate is counted once, at its outermost estimate span
        ps, ph = idx["asymptotics.ln_ps_estimate"], idx["asymptotics.ln_Ph_estimate"]
        parent_name = np.where(has_parent, names[np.where(has_parent, parents, 0)], -1)
        inner = (names == ph) & (parent_name == ps)
        outer = ((names == ps) | (names == ph)) & ~inner

        dp = sum(_dp_additions(kind, tb.n_max) for kind, tb in self.tables)
        s_table_s = t("counting.count_s_partitions_table", "bhatt.count_s_partitions_table")
        binary_table_s = t("counting.count_binary_partitions_table")
        asym = [idx[n] for n, (_, _, layer) in zip(NAMES, BINDINGS) if layer == "asymptotics"]
        quad_calls = c("asymptotics.integrate_adaptive")
        mults = self.squarings + self.multiplies
        return {
            "counting.s_table_s": s_table_s,
            "counting.binary_table_s": binary_table_s,
            "counting.additions_per_s": dp / (s_table_s + binary_table_s) if dp else 0.0,
            "counting.dp_additions": dp,
            "counting.table_bits": sum(sum(map(int.bit_length, tb.counts))
                                       for _, tb in self.tables),
            "counting.ln_calls": c("counting.ln_count", "bhatt.ln_count"),
            "counting.ln_s": t("counting.ln_count", "bhatt.ln_count"),
            "bhatt.scan_s": t("bhatt.run_audit"),
            "bhatt.self_s": float(selftime[idx["bhatt.run_audit"]]
                                  + selftime[idx["bhatt.bhatt_bound"]]),
            "bhatt.bound_calls": c("bhatt.bhatt_bound"),
            "bhatt.bound_s": t("bhatt.bhatt_bound"),
            "bhatt.bound_failures": int(fails[idx["bhatt.bhatt_bound"]]),
            "asymptotics.estimate_calls": int(outer.sum()),
            "asymptotics.estimate_s": float(dur[outer].sum()),
            "asymptotics.self_s": float(selftime[asym].sum()),
            "asymptotics.w_calls": c("asymptotics.w_oscillation_complex"),
            "asymptotics.w_s": t("asymptotics.w_oscillation_complex"),
            "asymptotics.alpha_calls": c("asymptotics.alpha_constant"),
            "asymptotics.alpha_s": t("asymptotics.alpha_constant"),
            "asymptotics.tail_calls": c("asymptotics.tail_integral_I"),
            "asymptotics.tail_s": t("asymptotics.tail_integral_I"),
            "asymptotics.estimate_failures": int(failed[outer].sum()),
            "quadrature.calls": quad_calls,
            "quadrature.evaluations": self.evaluations,
            "quadrature.evals_per_call": self.evaluations / quad_calls if quad_calls else 0.0,
            "quadrature.s": t("asymptotics.integrate_adaptive"),
            "specfun.gamma_calls": c("asymptotics.gamma_complex"),
            "specfun.gamma_s": t("asymptotics.gamma_complex"),
            "specfun.zeta_calls": c("asymptotics.zeta_complex"),
            "specfun.zeta_s": t("asymptotics.zeta_complex"),
            "modexp.calls": c("modexp.modexp_spartition"),
            "modexp.s": t("modexp.modexp_spartition"),
            "modexp.squarings": self.squarings,
            "modexp.multiplies": self.multiplies,
            "modexp.mults_per_bit": mults / self.exponent_bits if self.exponent_bits else 0.0,
            "modexp.part_calls": c("modexp.pow_mersenne_part"),
            "modexp.decompose_s": t("modexp.greedy_decompose"),
            "cli.calls": c("cli.run"),
            "cli.s": t("cli.run"),
            "cli.records_out": self.records_out,
            "cli.bytes_out": self.bytes_out,
        }
