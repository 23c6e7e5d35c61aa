"""Exact partition counting for Mersenne parts (2^k - 1) and powers of two.

All counts are exact Python integers; nothing here ever rounds.  The
natural log of a count is :func:`ln_count`, math.log of the exact integer,
which converts arbitrarily large counts without overflow.
"""

from dataclasses import dataclass, field
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
# the largest n_max of an exact table: a 10^6 p_s table takes about 0.5 s
# and 113 MB, and the cost grows faster than n.  It also keeps n_max + 1
# below 2^31, which the limb width of _unbounded_dp needs
MAX_EXACT_N = 10 ** 6


@dataclass(frozen=True)
class CountTable:
    """Exact counts indexed 0..n_max for a fixed part set, built only by
    count_s_partitions_table (parts "mersenne") and
    count_binary_partitions_table (parts "binary")."""

    n_max: int
    # counts[n] = number of partitions of n; kept out of the repr, which
    # would otherwise print every count of a large table
    counts: list = field(repr=False)
    parts: str

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


def mersenne_parts_upto(n: int) -> list:
    """All parts 2^k - 1 <= n with k >= 1, in ascending order."""
    _check_int("n", n, 0)
    parts = []
    k = 1
    while (1 << k) - 1 <= n:
        parts.append((1 << k) - 1)
        k += 1
    return parts


def _check_s_table(table) -> None:
    """DomainError unless table is None or a CountTable of Mersenne parts."""
    if not (table is None or isinstance(table, CountTable) and table.parts == "mersenne"):
        kind = (f"{table.parts} parts" if isinstance(table, CountTable)
                else type(table).__name__)
        raise DomainError(f"needs a CountTable of Mersenne parts, got {kind}")


def _check_n_max(n_max) -> None:
    # before any allocation: a table's memory grows with n_max
    _check_int("n_max", n_max, 0)
    if n_max > MAX_EXACT_N:
        raise DomainError(f"exact tables stop at n_max = {MAX_EXACT_N}, got {n_max}")


def _running_sum(counts: np.ndarray, p: int) -> None:
    # One pass of counts[i] += counts[i - p] for ascending i, in place, so
    # part p may repeat and orderings are not counted.  Laid out as rows of
    # length p, that pass adds each finished row into the next: a running
    # sum down the columns, then one slice add for the short last row.
    n = counts.shape[0]
    full = n // p * p
    head = counts[:full].reshape(-1, p)
    np.add.accumulate(head, axis=0, out=head)
    counts[full:] += counts[full - p : n - p]


def _unbounded_dp(n_max: int, parts: list) -> list:
    # Each count is held as base-2^width digits, one uint64 array (limb) per
    # digit, lowest first.  No-overflow invariant: every digit is below
    # 2^width before a pass, and a pass sums at most n_max + 1 digits, so
    # every sum stays below (n_max + 1) * 2^width < 2^63; the carry into the
    # next limb adds less than n_max + 1 < 2^31 more.  After each pass the
    # carries bring every digit back below 2^width; a new limb opens only
    # when the top one carries out.  The uint64 scalars keep numpy's type
    # promotion from turning a shift or mask into float64.
    width = 63 - (n_max + 1).bit_length()
    shift = np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    limbs = [np.zeros(n_max + 1, dtype=np.uint64)]
    limbs[0][0] = 1
    for p in parts:
        for limb in limbs:
            _running_sum(limb, p)
        for low, high in zip(limbs, limbs[1:]):
            high += low >> shift
            low &= mask
        carry = limbs[-1] >> shift
        if carry.any():
            limbs[-1] &= mask
            limbs.append(carry)
    counts = limbs.pop().astype(object)
    while limbs:
        counts <<= width
        counts += limbs.pop()
    return counts.tolist()


def count_s_partitions_table(n_max: int) -> CountTable:
    """Exact table of p_s(0..n_max): partitions into parts 2^k - 1, k >= 1.

    One numpy pass per part over fixed-width uint64 digits, so
    O(n_max log n_max) machine additions per digit; the digits become
    Python ints once, at the end.  On a 2-vCPU Xeon with CPython 3.11 and
    numpy 2.4, n_max = 10^5 takes about 15-25 ms and n_max = 10^6 about
    0.3-0.6 s.  Raises DomainError past MAX_EXACT_N.
    """
    _check_n_max(n_max)
    return CountTable(n_max, _unbounded_dp(n_max, mersenne_parts_upto(n_max)), "mersenne")


def count_binary_partitions_table(n_max: int) -> CountTable:
    """Exact table of b(0..n_max): partitions into parts 2^k, k >= 0.

    Uses the halving recurrence b(2m) = b(2m - 1) + b(m), b(2m + 1) = b(2m):
    an odd n has a part 1 to remove, and an even n either has one or halves
    into a partition of m.  That is n_max/2 big-integer additions, and
    b(2m) and b(2m + 1) share one int object.  On a 2-vCPU Xeon with
    CPython 3.11, n_max = 10^5 takes about 5 ms and n_max = 10^6
    0.05-0.07 s.  Raises DomainError past MAX_EXACT_N.
    """
    _check_n_max(n_max)
    counts = [1, 1]
    append = counts.append
    for m in range(1, n_max // 2 + 1):
        b = counts[-1] + counts[m]
        append(b)
        append(b)
    del counts[n_max + 1:]
    return CountTable(n_max, counts, "binary")


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
    _check_s_table(table)
    if table is None or table.n_max < u - 1:
        table = count_s_partitions_table(u - 1)
    return sum(table.counts[:u])


def ln_count(value: int) -> float:
    """ln of an exact positive integer, to ~2e-16 relative at any size:
    math.log takes an int of any length without overflow."""
    # _check_int inlined: a scan through CountTable.ln calls this once per n
    if type(value) is not int or value < 1:
        raise DomainError(f"ln_count requires a positive int, got {value!r}")
    return log(value)
