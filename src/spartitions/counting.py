"""Exact partition counting for Mersenne parts (2^k - 1) and powers of two.

All counts are exact Python integers; nothing here ever rounds.  The
natural log of a count is recovered from the exact integer via
:func:`ln_count`, which splits off the high bits so that arbitrarily
large counts convert without overflow.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import DomainError, _check_int

__all__ = [
    "CountTable",
    "mersenne_parts_upto",
    "count_s_partitions_table",
    "count_binary_partitions_table",
    "brute_force_count",
    "cumulative_P",
    "ln_count",
]

BRUTE_FORCE_LIMIT = 300
# the largest n whose exact table the audit and the CLI build: a 10^6
# table takes about 1 s and 105 MB, and the cost grows faster than n
MAX_EXACT_N = 10 ** 6
_LN2 = log(2.0)


@dataclass(frozen=True)
class CountTable:
    """Exact counts indexed 0..n_max for a fixed part set."""

    n_max: int
    counts: list  # counts[n] = number of partitions of n

    def __getitem__(self, n: int) -> int:
        # type, not isinstance: a bool would index counts[0] or counts[1]
        if type(n) is not int or not 0 <= n <= self.n_max:
            raise DomainError(f"table holds an int 0 <= n <= {self.n_max}, got {n!r}")
        return self.counts[n]

    def ln(self, n: int) -> float:
        """Natural log of counts[n], accurate to >= 12 significant digits."""
        # checked here, not through self[n]: table scans call ln per n
        if type(n) is not int or not 0 <= n <= self.n_max:
            raise DomainError(f"table holds an int 0 <= n <= {self.n_max}, got {n!r}")
        return ln_count(self.counts[n])

    def cumulative(self, u: int) -> int:
        """Sum of counts[0..u-1]; the solution counter P(u) at integer u."""
        if type(u) is not int or not 1 <= u <= self.n_max + 1:
            raise DomainError(f"cumulative needs an int 1 <= u <= {self.n_max + 1}, "
                              f"got {u!r}")
        return sum(self.counts[: u])


def mersenne_parts_upto(n: int) -> list:
    """All parts 2^k - 1 <= n with k >= 1, in ascending order."""
    _check_int("n", n, 0)
    parts = []
    k = 1
    while (1 << k) - 1 <= n:
        parts.append((1 << k) - 1)
        k += 1
    return parts


def _unbounded_dp(n_max: int, parts: list) -> list:
    # One pass per part of counts[i] += counts[i - p] for ascending i, so
    # each part may repeat and orderings are not counted.  Laid out as rows
    # of length p, that pass adds each finished row into the next: a running
    # sum down the columns, then one slice add for the short last row.  The
    # object dtype makes numpy apply Python's int +, so the counts are the
    # same exact ints the scalar loop gives.
    counts = np.zeros(n_max + 1, dtype=object)
    counts[0] = 1
    for p in parts:
        full = (n_max + 1) // p * p
        head = counts[:full].reshape(-1, p)
        np.add.accumulate(head, axis=0, out=head)
        counts[full:] += counts[full - p : n_max + 1 - p]
    return counts.tolist()


def count_s_partitions_table(n_max: int) -> CountTable:
    """Exact table of p_s(0..n_max): partitions into parts 2^k - 1, k >= 1.

    Runs in O(n_max log n_max) big-integer additions, one numpy pass per
    part.  On a 2-vCPU Xeon with CPython 3.11, n_max = 10^5 takes about
    0.05 s and n_max = 10^6 about 1 s.
    """
    _check_int("n_max", n_max, 0)
    return CountTable(n_max, _unbounded_dp(n_max, mersenne_parts_upto(n_max)))


def count_binary_partitions_table(n_max: int) -> CountTable:
    """Exact table of b(0..n_max): partitions into parts 2^k, k >= 0.

    Uses the halving recurrence b(2m) = b(2m - 1) + b(m), b(2m + 1) = b(2m):
    an odd n has a part 1 to remove, and an even n either has one or halves
    into a partition of m.  That is n_max/2 big-integer additions, and
    b(2m) and b(2m + 1) share one int object.  On a 2-vCPU Xeon with
    CPython 3.11, n_max = 10^5 takes about 5 ms and n_max = 10^6
    0.05-0.07 s.
    """
    _check_int("n_max", n_max, 0)
    counts = [1, 1]
    append = counts.append
    for m in range(1, n_max // 2 + 1):
        b = counts[-1] + counts[m]
        append(b)
        append(b)
    del counts[n_max + 1:]
    return CountTable(n_max, counts)


def brute_force_count(n: int) -> int:
    """Count partitions of n into Mersenne parts by exhaustive iteration.

    Independent oracle for the DP table: iterates over multiplicities of
    the parts 3, 7, 15, ... directly (the multiplicity of the part 1 is
    forced by the remainder).  Shares no code with the table builder.
    Intended for n <= 300 only.
    """
    _check_int("n", n, 0)
    if n > BRUTE_FORCE_LIMIT:
        raise DomainError(
            f"brute_force_count is an oracle for n <= {BRUTE_FORCE_LIMIT}, got {n}"
        )
    parts = [p for p in mersenne_parts_upto(n) if p >= 3]
    parts.reverse()

    def scan(idx: int, remainder: int) -> int:
        if idx == len(parts):
            return 1  # remainder is filled with 1s
        total = 0
        p = parts[idx]
        used = 0
        while used <= remainder:
            total += scan(idx + 1, remainder - used)
            used += p
        return total

    return scan(0, n)


def cumulative_P(u: int, table: CountTable | None = None) -> int:
    """Number of Mersenne-part partitions of all m < u (integer u >= 1).

    This is the solution counter P(u) of r1*1 + r2*3 + r3*7 + ... < u,
    so consecutive differences give back the plain counts.
    """
    _check_int("u", u, 1)
    if table is None or table.n_max < u - 1:
        table = count_s_partitions_table(u - 1)
    return table.cumulative(u)


def ln_count(value: int) -> float:
    """ln of an exact positive integer via bit-length plus mantissa.

    A value of at most 64 bits goes to log whole; a longer one keeps only
    its top 64 bits and adds back the shift times ln 2, so the result is
    exact to ~1e-15 relative regardless of how many digits the count has.
    """
    # _check_int inlined: the audit calls this twice per n
    if type(value) is not int or value < 1:
        raise DomainError(f"ln_count requires a positive int, got {value!r}")
    shift = value.bit_length() - 64
    if shift <= 0:
        return log(value)
    return log(value >> shift) + shift * _LN2
