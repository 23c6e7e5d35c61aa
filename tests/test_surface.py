import importlib
import importlib.util
import types
from pathlib import Path

import spartitions

# the package's public non-module names; a new export is added here on purpose
PUBLIC = {
    # counting
    "CountTable", "brute_force_count", "count_binary_partitions_table",
    "count_s_partitions_table", "cumulative_P", "ln_count", "mersenne_parts_upto",
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
    "AccuracyError", "DomainError", "PoleError",
}


def test_public_surface_is_pinned():
    exported = {name for name, value in vars(spartitions).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 39
    assert exported == PUBLIC


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
