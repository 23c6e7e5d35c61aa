import cmath
import importlib
import importlib.util
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spartitions
from spartitions import (
    AccuracyError,
    AsymptoticBreakdown,
    AsymptoticParams,
    AuditSummary,
    CountTable,
    DomainError,
    OpCount,
    QuadratureResult,
    SPartition,
    count_binary_partitions_table,
    count_s_partitions_table,
)

# the package's public non-module names; a new export is added here on purpose
PUBLIC = {
    # counting
    "CountTable", "brute_force_count", "count_binary_partitions_table",
    "count_s_partitions_table", "ln_count",
    # asymptotics
    "AsymptoticBreakdown", "AsymptoticParams", "H_constant", "alpha_constant",
    "binary_partition_params", "c_constant", "ln_Ph_estimate", "ln_ps_estimate",
    "sawtooth_f", "sawtooth_log_integral", "sawtooth_log_integral_series",
    "tail_integral_I", "w_oscillation", "w_oscillation_complex",
    # bound audit
    "AuditSummary", "audit_scan", "bhatt_bound", "run_audit",
    # modexp
    "OpCount", "SPartition", "greedy_decompose", "modexp_reference",
    "modexp_spartition", "pow_mersenne_part",
    # numerics and errors
    "QuadratureResult", "integrate_adaptive", "gamma_complex",
    "gamma_imag_axis_modulus", "zeta_complex",
    "AccuracyError", "DomainError",
}


def test_public_surface_is_pinned():
    exported = {name for name, value in vars(spartitions).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 36
    assert exported == PUBLIC


def test_each_export_is_its_defining_module_s_object():
    # the package republishes each module's __all__: an export is the
    # object of the module that lists it, so a later __all__ that shadows
    # one (asymptotics' memoized gamma_complex, say) shows up here
    homes = {}
    for name in ("asymptotics", "bhatt", "counting", "errors", "modexp", "quadrature",
                 "specfun"):
        module = importlib.import_module(f"spartitions.{name}")
        for attr in module.__all__:
            assert attr not in homes, (attr, name, homes.get(attr))
            homes[attr] = module
    assert set(homes) == PUBLIC
    for attr, module in homes.items():
        assert getattr(spartitions, attr) is getattr(module, attr), attr
    assert spartitions.gamma_complex is spartitions.specfun.gamma_complex
    # no standard-library module rides along on the package
    modules = {name for name, value in vars(spartitions).items()
               if isinstance(value, types.ModuleType)}
    assert all(vars(spartitions)[name].__name__ == f"spartitions.{name}" for name in modules)


def test_bench_bindings_resolve():
    # the traced bench wraps these names in place; one that is gone breaks
    # bench/run.py --trace 1, which the unit tests never run
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    for module, attr, _ in spans.BINDINGS:
        target = importlib.import_module(f"spartitions.{module}")
        assert callable(getattr(target, attr, None)), f"spartitions.{module}.{attr}"


# every argument of the sweep is replaced by each of these in turn
HOSTILE = [
    0, -1, 2 ** 64, 10 ** 400, True, math.nan, math.inf, -math.inf, -0.0, 1e308,
    5e-324, "x", None, 1 + 2j, [1.0], np.float64(0.5), np.float64(math.nan),
    np.int64(7), np.float32(-3.0),
]


def capped(valid, cap):
    """An argument whose cost grows with its size before any check: the
    hostile ints above cap are left out."""
    return valid, [v for v in HOSTILE if not (type(v) is int and v > cap)]


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def finite(v):
    return isinstance(v, float) and math.isfinite(v)


def finite_complex(v):
    return isinstance(v, complex) and cmath.isfinite(v)


def breakdown_ok(bd):
    return isinstance(bd, AsymptoticBreakdown) and all(map(finite, vars(bd).values()))


def record(cls, nargs):
    # plain records hold what they are given: only the type is checked
    return [st.integers(0, 3)] * nargs, lambda v: isinstance(v, cls)


def is_int(v):
    return type(v) is int


TABLE = st.sampled_from([None, count_s_partitions_table(1000),
                         count_binary_partitions_table(10)])
TOL = floats(1e-10, 1.0)
NU = st.integers(1, 40)
BIG_INT = st.integers(-(2 ** 600), 2 ** 600)
EXPONENT = st.integers(0, 2 ** 600)
MODULUS = st.integers(1, 2 ** 600)
OPS = st.builds(OpCount) | st.none()
PARAMS = st.sampled_from([AsymptoticParams(-0.5, 1.0), AsymptoticParams(0.5, 0.06)])
Z = st.complex_numbers(max_magnitude=150.0)

# name -> (valid values of each argument, check of the returned value); the
# sizes that cost time stay near 10^3, 300 for the brute-force oracle
SWEEP = {
    "CountTable": ([st.just(2), st.just([1, 1, 2]), st.sampled_from(["mersenne", "binary"])],
                   lambda v: isinstance(v, CountTable)),
    "brute_force_count": ([st.integers(0, 300)], is_int),
    "count_binary_partitions_table": ([st.integers(0, 1000)],
                                      lambda v: isinstance(v, CountTable)),
    "count_s_partitions_table": ([st.integers(0, 1000)], lambda v: isinstance(v, CountTable)),
    "ln_count": ([st.integers(1, 10 ** 400)], finite),
    "AsymptoticBreakdown": record(AsymptoticBreakdown, 7),
    "AsymptoticParams": record(AsymptoticParams, 2),
    "H_constant": ([TOL], finite),
    "alpha_constant": ([TOL], finite),
    "binary_partition_params": ([TOL], lambda v: isinstance(v, AsymptoticParams)),
    "c_constant": ([TOL], finite),
    "ln_Ph_estimate": ([floats(3.0, 1e300) | st.integers(3, 10 ** 400), PARAMS, TOL, NU],
                       breakdown_ok),
    "ln_ps_estimate": ([st.integers(2, 10 ** 400), TOL, NU], breakdown_ok),
    "sawtooth_f": ([floats(1.0, 1e300)], finite),
    "sawtooth_log_integral": ([floats(1.0, 1e300), TOL], finite),
    "sawtooth_log_integral_series": ([floats(1.0, 1e300), st.integers(1, 10 ** 4)], finite),
    "tail_integral_I": ([TOL], finite),
    "w_oscillation": ([floats(-1e13, 1e13), NU], finite),
    "w_oscillation_complex": ([floats(-1e13, 1e13), NU], finite_complex),
    "AuditSummary": record(AuditSummary, 5),
    "audit_scan": ([st.integers(1, 1000), TABLE],
                   lambda v: all(map(is_int, (x for pair in v for x in pair)))),
    "bhatt_bound": ([st.integers(1, 10 ** 400)], is_int),
    "run_audit": ([st.integers(1, 1000), TABLE],
                  lambda v: isinstance(v, AuditSummary) and finite(v.max_ratio)),
    "OpCount": record(OpCount, 2),
    "SPartition": record(SPartition, 2),
    "greedy_decompose": ([st.integers(0, 10 ** 400)],
                         lambda v: isinstance(v, SPartition) and v.is_valid()),
    "modexp_reference": ([BIG_INT, EXPONENT, MODULUS], is_int),
    "modexp_spartition": ([BIG_INT, EXPONENT, MODULUS, OPS], is_int),
    # its cost is O(k): k = 2^64 would never return
    "pow_mersenne_part": ([BIG_INT, capped(st.integers(1, 1000), 1000), MODULUS, OPS], is_int),
    "QuadratureResult": record(QuadratureResult, 3),
    "integrate_adaptive": ([st.sampled_from([math.sin, math.atan]), floats(-10.0, 0.0),
                            floats(1.0, 10.0), TOL, st.sampled_from([(), [0.5]])],
                           lambda v: (isinstance(v, QuadratureResult) and finite(v.value)
                                      and finite(v.error_estimate))),
    "gamma_complex": ([Z], finite_complex),
    "gamma_imag_axis_modulus": ([floats(0.01, 200.0)], finite),
    "zeta_complex": ([Z], finite_complex),
    "AccuracyError": record(AccuracyError, 2),
    "DomainError": record(DomainError, 1),
}


def meets_contract(name, args, ok):
    try:
        value = getattr(spartitions, name)(*args)
    except (DomainError, AccuracyError):
        return True
    return ok(value)


@pytest.mark.parametrize("name", sorted(PUBLIC))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_hostile_values_meet_the_contract(name, data):
    # every public name returns a finite value of its documented type or
    # raises one of the two contract errors: with each argument of a valid
    # call replaced by each hostile value, and with a mix of both
    specs, ok = SWEEP[name]
    specs = [spec if isinstance(spec, tuple) else (spec, HOSTILE) for spec in specs]
    valid = data.draw(st.tuples(*(v for v, _ in specs)), label="valid")
    assert meets_contract(name, valid, ok), valid
    for i, (_, hostile) in enumerate(specs):
        for bad in hostile:
            args = (*valid[:i], bad, *valid[i + 1:])
            assert meets_contract(name, args, ok), args
    mixed = data.draw(st.tuples(*(v | st.sampled_from(h) for v, h in specs)), label="mixed")
    assert meets_contract(name, mixed, ok), mixed
