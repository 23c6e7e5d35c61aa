"""Partitions into Mersenne parts 2^k - 1: exact counts, precise
asymptotics of the log-count, an audit of a published upper bound, and
the modular-exponentiation application of the decomposition."""

from .asymptotics import (
    AsymptoticBreakdown,
    AsymptoticParams,
    H_constant,
    alpha_constant,
    binary_partition_params,
    c_constant,
    ln_Ph_estimate,
    ln_ps_estimate,
    sawtooth_f,
    sawtooth_log_integral,
    sawtooth_log_integral_series,
    tail_integral_I,
    w_oscillation,
    w_oscillation_complex,
)
from .bhatt import AuditSummary, audit_scan, bhatt_bound, run_audit
from .counting import (
    CountTable,
    brute_force_count,
    count_binary_partitions_table,
    count_s_partitions_table,
    ln_count,
)
from .errors import AccuracyError, DomainError
from .modexp import (
    OpCount,
    SPartition,
    greedy_decompose,
    modexp_reference,
    modexp_spartition,
    pow_mersenne_part,
)
from .quadrature import QuadratureResult, integrate_adaptive
from .specfun import gamma_complex, gamma_imag_axis_modulus, zeta_complex

__version__ = "0.1.0"
