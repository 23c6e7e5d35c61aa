"""Exact partition counting for Mersenne parts (2^k - 1) and powers of two.

All counts are exact Python integers; nothing here ever rounds.  The
natural log of a count is :func:`ln_count`, math.log of the exact integer,
which converts arbitrarily large counts without overflow.
"""

from dataclasses import dataclass, field
from itertools import accumulate
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
# the largest n_max of an exact table: a 10^6 p_s table takes about
# 0.35-0.55 s and 113 MB, and the cost grows faster than n.  It also keeps
# n_max + 1 below 2^31, which the limb width of _unbounded_dp needs
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

    def __post_init__(self):
        # the shape only, in O(1): scanning the entries would cost as much
        # as the scans that trust them
        _check_int("n_max", self.n_max, 0)
        if not isinstance(self.counts, list) or len(self.counts) != self.n_max + 1:
            raise DomainError(f"counts must be a list of n_max + 1 = {self.n_max + 1} counts")
        if self.parts not in ("mersenne", "binary"):
            raise DomainError(f"parts must be 'mersenne' or 'binary', got {self.parts!r}")

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
    # length p, that pass adds each finished row into the next.  A table of
    # few long rows takes one add per row, the short last row included;
    # otherwise a running sum down the columns (which costs a few ns per
    # entry when the rows are long), then one slice add for the last row.
    n = counts.shape[0]
    if n <= 64 * p:
        for start in range(p, n, p):
            stop = min(start + p, n)
            np.add(counts[start:stop], counts[start - p : stop - p], out=counts[start:stop])
        return
    full = n // p * p
    head = counts[:full].reshape(-1, p)
    np.add.accumulate(head, axis=0, out=head)
    counts[full:] += counts[full - p : n - p]


def _unbounded_dp(n_max: int, parts: list) -> list:
    # Each count is held as base-2^width digits, one uint64 array (limb) per
    # digit, lowest first, with the parts run in the order given.  bound is
    # a Python int above every digit.  A pass with part p sums at most
    # n_max // p + 1 digits, so it multiplies bound by that many; a pass
    # that would take bound to 2^63 first carries every digit below 2^width
    # (opening a limb when the top one carries out), so a digit never
    # exceeds 2^63 - 1 and the carry adds less than 2^(63 - width) into the
    # next one without wrapping.  After a carry, one pass sums at most
    # n_max + 1 < 2^(63 - width) digits below 2^width, so it always fits.
    # Large parts first leave the digits small, so most passes need no
    # carry.  The digits end unnormalized, which the combine's += allows.
    # The uint64 scalars keep numpy's type promotion from turning a shift
    # or mask into float64.
    width = 63 - (n_max + 1).bit_length()
    shift = np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    limbs = [np.zeros(n_max + 1, dtype=np.uint64)]
    limbs[0][0] = 1
    bound = 1
    for p in parts:
        terms = n_max // p + 1
        if bound * terms >= 1 << 63:
            for low, high in zip(limbs, limbs[1:]):
                high += low >> shift
                low &= mask
            carry = limbs[-1] >> shift
            if carry.any():
                limbs[-1] &= mask
                limbs.append(carry)
            bound = (1 << width) - 1
        for limb in limbs:
            _running_sum(limb, p)
        bound *= terms
    counts = limbs.pop().astype(object)
    while limbs:
        counts <<= width
        counts += limbs.pop()
    return counts.tolist()


def count_s_partitions_table(n_max: int) -> CountTable:
    """Exact table of p_s(0..n_max): partitions into parts 2^k - 1, k >= 1.

    One numpy pass per part, largest part first, over fixed-width uint64
    digits, so O(n_max log n_max) machine additions per digit; the digits
    are carried only when a bound on them says the next pass could
    overflow, and become Python ints once, at the end.  On a 2-vCPU Xeon
    with CPython 3.11 and numpy 2.4, n_max = 10^5 takes about 16-22 ms and
    n_max = 10^6 about 0.35-0.55 s.  Raises DomainError past MAX_EXACT_N.
    """
    _check_n_max(n_max)
    return CountTable(n_max, _unbounded_dp(n_max, mersenne_parts_upto(n_max)[::-1]), "mersenne")


def count_binary_partitions_table(n_max: int) -> CountTable:
    """Exact table of b(0..n_max): partitions into parts 2^k, k >= 0.

    Uses the halving recurrence b(2m) = b(2m - 1) + b(m), b(2m + 1) = b(2m):
    an odd n has a part 1 to remove, and an even n either has one or halves
    into a partition of m.  So b(2m) = b(2m - 2) + b(m) = b(0) + ... + b(m),
    a prefix sum.  Once b(0..2m + 1) are known, the running sum of
    b(m + 1..hi) from b(2m) gives b(2m + 2), b(2m + 4), ..., b(2 hi) for any
    hi <= 2m + 1; each block takes hi = min(2m + 1, m + 4096), which keeps
    its temporary lists small.  That is n_max/2 big-integer additions, run
    in C by itertools.accumulate, and b(2m) and b(2m + 1) share one int
    object.  On a 2-vCPU Xeon with CPython 3.11, n_max = 10^5 takes about
    2.5-5 ms and n_max = 10^6 about 0.04-0.075 s.  Raises DomainError past
    MAX_EXACT_N.
    """
    _check_n_max(n_max)
    half = n_max // 2
    # b(0) = b(1) = 1; the blocks overwrite every later slot
    counts = [1] * (2 * half + 2)
    m = 0
    while m < half:
        hi = min(2 * m + 1, m + 4096, half)
        sums = accumulate(counts[m + 1 : hi + 1], initial=counts[2 * m])
        next(sums)  # b(2m) itself
        counts[2 * m + 2 : 2 * hi + 2 : 2] = counts[2 * m + 3 : 2 * hi + 2 : 2] = list(sums)
        m = hi
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
    parts = []  # 3, 7, 15, ... <= n, largest first
    p = 3
    while p <= n:
        parts.insert(0, p)
        p = 2 * p + 1

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
