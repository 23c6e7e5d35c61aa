"""Exact evaluation and audit of the claimed s-partition upper bound

    2 + floor(n/3) + sum_{i=0}^{floor(log2 n)} m_i ^ (m_i - 1),
    m_i = floor(log2(n - 3i)),

compared against the exact counts.  All logs are base-2 floors taken
from integer bit lengths; floating point never touches the bound.

The sum is evaluated by octaves, not summand by summand: the number of
summands with m_i = k follows from n and k alone, so each octave that
the n - 3i span costs one term.  Since 3i is tiny beside n, the m_i take
at most two values once n >= 32, and a call costs at most two terms
there, whatever the size of n.

Degenerate summands are not defined by the source, so the audit pins a
convention and reports it alongside every scan: a summand with
n - 3i < 2 contributes 0, m_i = 0 would demand 0^-1 and contributes 0,
and m_i = 1 contributes 1^0 = 1.  Any bounded convention leaves the
audit's conclusion intact because the count/bound gap is asymptotic.
"""

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .counting import CountTable, _check_s_table, count_s_partitions_table, ln_count
from .errors import _check_int

__all__ = ["AuditSummary", "bhatt_bound", "audit_scan", "run_audit"]

TERM_CONVENTION = (
    "summand conventions: n-3i < 2 -> 0; floor(log2(n-3i)) = 0 -> 0 "
    "(avoids 0^-1); floor(log2(n-3i)) = 1 -> 1^0 = 1"
)

# m^(m-1) memo, filled on first use so that no n is out of range;
# computing the power on every call would make a 64-bit bhatt_bound call
# 1.25-1.5 times as slow, and one at n = 10^400 (m = 1328) 15 times as slow
_POW: dict[int, int] = {}


@dataclass(frozen=True)
class AuditSummary:
    """A scan of n = 1..n_max: the least violating n (or None), the number
    of violations, the largest exact/bound ratio and the first n at it,
    whether the bound never drops past n = 16, and the summand conventions."""

    first_violation: int | None
    violations: int
    max_ratio: float
    max_ratio_n: int
    bound_monotone_from_16: bool
    convention: str = TERM_CONVENTION


def bhatt_bound(n: int) -> int:
    """Exact value of the claimed upper bound at n >= 1.

    Of the width = bit_length(n) summands (i < width), those with
    n - 3i >= 2^m number min(width, (n - 2^m)//3 + 1).  Walking m down
    from width - 1, each step adds the new ones times m^(m-1), until all
    width summands are placed or m reaches 1 (below it n - 3i < 2, and a
    summand is 0).  That is one term per octave from the largest m_i down
    to the smallest (or to 1 while a summand is 0): at most two for
    n >= 32, where every n - 3i >= 2^(width-2), so O(1) big-int
    operations however large n is.
    """
    _check_int("n", n, 1)
    total = 2 + n // 3
    width = n.bit_length()
    above, m = 0, width - 1  # above: summands with n - 3i >= 2^(m+1)
    while above < width and m >= 1:
        reach = min(width, (n - (1 << m)) // 3 + 1)
        total += (reach - above) * (_POW.get(m) or _POW.setdefault(m, m ** (m - 1)))
        above, m = reach, m - 1
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


def audit_scan(n_max: int, table: CountTable | None = None) -> Iterator[tuple[int, int]]:
    """The pairs (p_s(n), bhatt_bound(n)) for n = 1..n_max, from one
    shared DP table.

    The bound costs O(1) per n: the full formula runs at most
    bit_length(n_max)^2 times over the scan (_bounds).  A table must be
    a Mersenne CountTable; one too short, or none, is built, so an n_max
    past the exact-table limit raises DomainError in the builder.  The
    checks and the table run when audit_scan is called, not at the first
    pair.
    """
    _check_int("n_max", n_max, 1)
    _check_s_table(table)
    if table is None or table.n_max < n_max:
        table = count_s_partitions_table(n_max)
    return zip(islice(table.counts, 1, n_max + 1), _bounds(n_max))


def _summarize(pairs: Iterable[tuple[int, int]]) -> AuditSummary:
    """Fold the (exact, bound) pairs of n = 1, 2, ... into their summary:
    minimal violating n (or None) and the largest exact/bound ratio
    observed.  The pairs are not checked: they come from audit_scan."""
    first, violations = None, 0
    best_exact, best_bound, best_n = 0, 1, 1
    monotone, prev_bound = True, 0
    for n, (exact, bound) in enumerate(pairs, 1):
        if exact > bound:
            violations += 1
            if first is None:
                first = n
        # exact/bound > best_exact/best_bound, cross-multiplied in ints, so
        # a tie keeps the first n
        if exact * best_bound > best_exact * bound:
            best_exact, best_bound, best_n = exact, bound, n
        if bound < prev_bound and n > 16:
            monotone = False
        prev_bound = bound
    # through logs once: both sides can exceed the float range
    best_ratio = (math.exp(ln_count(best_exact) - ln_count(best_bound))
                  if best_exact else 0.0)
    return AuditSummary(first, violations, best_ratio, best_n, monotone)


def run_audit(n_max: int, table: CountTable | None = None) -> AuditSummary:
    """Summarize audit_scan(n_max, table): the first violating n, the
    number of violations and the largest exact/bound ratio."""
    return _summarize(audit_scan(n_max, table))
