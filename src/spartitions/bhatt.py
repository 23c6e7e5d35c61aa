"""Exact evaluation and audit of the claimed s-partition upper bound

    2 + floor(n/3) + sum_{i=0}^{floor(log2 n)} m_i ^ (m_i - 1),
    m_i = floor(log2(n - 3i)),

compared against the exact counts.  All logs are base-2 floors taken
from integer bit lengths; floating point never touches the bound.

Degenerate summands are not defined by the source, so the audit pins a
convention and reports it alongside every scan: a summand with
n - 3i < 2 contributes 0, m_i = 0 would demand 0^-1 and contributes 0,
and m_i = 1 contributes 1^0 = 1.  Any bounded convention leaves the
audit's conclusion intact because the count/bound gap is asymptotic.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .counting import CountTable, _check_s_table, count_s_partitions_table, ln_count
from .errors import DomainError, _check_int

__all__ = ["AuditRecord", "AuditSummary", "bhatt_bound", "audit_scan", "summarize",
           "run_audit"]

TERM_CONVENTION = (
    "summand conventions: n-3i < 2 -> 0; floor(log2(n-3i)) = 0 -> 0 "
    "(avoids 0^-1); floor(log2(n-3i)) = 1 -> 1^0 = 1"
)

# m^(m-1) memo, filled on first use so that no n is out of range;
# computing the power on every call would double bhatt_bound's cost
_POW: dict[int, int] = {}


class AuditRecord(NamedTuple):
    n: int
    exact: int
    bound: int
    violated: bool


@dataclass(frozen=True)
class AuditSummary:
    n_max: int
    first_violation: int | None
    violations: int
    max_ratio: float          # max exact/bound over the scan
    max_ratio_n: int
    bound_monotone_from_16: bool
    convention: str = TERM_CONVENTION


def bhatt_bound(n: int) -> int:
    """Exact value of the claimed upper bound at n >= 1."""
    # _check_int inlined: audit_scan calls this once per n
    if type(n) is not int or n < 1:
        raise DomainError(f"bound needs an int n >= 1, got {n!r}")
    total = 2 + n // 3
    for i in range(n.bit_length()):  # i = 0 .. floor(log2 n)
        x = n - 3 * i
        if x < 2:
            continue
        m = x.bit_length() - 1
        total += _POW.get(m) or _POW.setdefault(m, m ** (m - 1))
    return total


def _bounds(n_max: int) -> Iterator[int]:
    """bhatt_bound(1), ..., bhatt_bound(n_max) in order, O(1) per n.

    From n - 1 to n the summand sum changes only where a summand appears
    (n a power of two) or where x = n - 3i reaches a power of two 2^k, so
    only at n = 2^k + 3i with k, i < bit_length(n_max).  There the
    bound is evaluated in full; elsewhere only floor(n/3) can grow.
    """
    width = n_max.bit_length()
    events = {(1 << k) + 3 * i for k in range(width) for i in range(width)}
    bound = 0  # n = 1 = 2^0 is an event
    for n in range(1, n_max + 1):
        if n in events:
            bound = bhatt_bound(n)
        elif n % 3 == 0:
            bound += 1
        yield bound


def audit_scan(n_max: int, table: CountTable | None = None) -> Iterator[AuditRecord]:
    """Stream AuditRecords for n = 1..n_max against one shared DP table.

    The bound costs O(1) per n: the full formula runs at most
    bit_length(n_max)^2 times over the scan (_bounds).  A table must be
    a Mersenne CountTable; one too short, or none, is built, so an n_max
    past the exact-table limit raises DomainError in the builder.
    """
    _check_int("n_max", n_max, 1)
    _check_s_table(table)
    if table is None or table.n_max < n_max:
        table = count_s_partitions_table(n_max)
    counts = table.counts
    for n, bound in enumerate(_bounds(n_max), 1):
        exact = counts[n]
        yield AuditRecord(n, exact, bound, exact > bound)


def summarize(records: Iterable[AuditRecord]) -> AuditSummary:
    """Fold an audit scan into its summary: minimal violating n (or None)
    and the largest exact/bound ratio observed.  n_max is the n of the
    last record."""
    n = 0  # after the loop, the n of the last record
    first = None
    violations = 0
    best_exact, best_bound = 0, 1
    best_n = 1
    monotone = True
    prev_bound = None
    for n, exact, bound, violated in records:
        if violated:
            violations += 1
            if first is None:
                first = n
        # exact/bound > best_exact/best_bound, cross-multiplied in ints, so
        # a tie keeps the first n
        if exact * best_bound > best_exact * bound:
            best_exact, best_bound, best_n = exact, bound, n
        if n >= 16:
            if prev_bound is not None and bound < prev_bound:
                monotone = False
            prev_bound = bound
    # through logs once: both sides can exceed the float range
    best_ratio = (math.exp(ln_count(best_exact) - ln_count(best_bound))
                  if best_exact else 0.0)
    return AuditSummary(n, first, violations, best_ratio, best_n, monotone)


def run_audit(n_max: int, table: CountTable | None = None) -> AuditSummary:
    """Scan n = 1..n_max and summarize the scan."""
    return summarize(audit_scan(n_max, table))
