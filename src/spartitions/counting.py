"""Exact partition counting for Mersenne parts (2^k - 1) and powers of two.

All counts are exact Python integers; nothing here ever rounds.  The
natural log of a count is :func:`ln_count`, math.log of the exact integer,
which converts arbitrarily large counts without overflow.
"""

import pickle
from dataclasses import dataclass, field
from itertools import accumulate
from math import log

import numpy as np

from .errors import DomainError, _check_int

__all__ = [
    "CountTable",
    "count_s_partitions_table",
    "count_binary_partitions_table",
    "brute_force_count",
    "ln_count",
]

BRUTE_FORCE_LIMIT = 300
# the largest n_max of an exact table: a 10^6 p_s table peaks at about
# 107-118 MB RSS, and the cost grows faster than n.  It also keeps
# n_max + 1 below 2^31, which the limb width of _dp_blocks needs
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
        """Natural log of counts[n] by ln_count, to 1e-15 relative."""
        # checked here, not through self[n]: ln is a point query, called
        # 2 * 10^4 times a pass by the bench's count workload
        if type(n) is not int or not 0 <= n <= self.n_max:
            raise DomainError(f"table holds an int 0 <= n <= {self.n_max}, got {n!r}")
        return ln_count(self.counts[n])


def _check_s_table(table) -> None:
    """DomainError unless table is None or a CountTable of Mersenne parts."""
    if not (table is None or isinstance(table, CountTable) and table.parts == "mersenne"):
        kind = (f"{table.parts} parts" if isinstance(table, CountTable)
                else type(table).__name__)
        raise DomainError(f"needs a CountTable of Mersenne parts, got {kind}")


def _check_n_max(n_max, name: str = "n_max") -> None:
    # before any allocation: a table's memory grows with n_max.  A caller
    # that takes the size under another name passes that name
    _check_int(name, n_max, 0)
    if n_max > MAX_EXACT_N:
        raise DomainError(f"exact tables stop at {name} = {MAX_EXACT_N}, got {n_max}")


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


def _dp_blocks(n_max: int, parts: list, first: int = 0):
    # The DP runs when this is called; the blocks of counts come from the
    # generator it returns, each decoded when it is read, from the block
    # that holds entry first.  Each count is held as base-2^width digits,
    # one uint64 array (limb) per digit, lowest first, with the parts run in
    # the order given.  bound is a Python int above every digit.  A pass
    # with part p sums at most n_max // p + 1 digits, so it multiplies bound
    # by that many; a pass that would take bound to 2^63 first carries every
    # digit below 2^width (_carry opens a limb when the top one carries
    # out), so a digit never exceeds 2^63 - 1 and the carry adds less than
    # 2^(63 - width) into the next one without wrapping.  After a carry, one
    # pass sums at most n_max + 1 < 2^(63 - width) digits below 2^width, so
    # it always fits.  Large parts first leave the digits small, so most
    # passes need no carry.  The uint64 scalars keep numpy's type promotion
    # from turning a shift or mask into float64.
    width = 63 - (n_max + 1).bit_length()
    shift = np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    limbs = [np.zeros(n_max + 1, dtype=np.uint64)]
    limbs[0][0] = 1
    bound = 1
    for p in parts:
        terms = n_max // p + 1
        if bound * terms >= 1 << 63:
            _carry(limbs, shift, mask)
            bound = (1 << width) - 1
        for limb in limbs:
            _running_sum(limb, p)
        bound *= terms
    _carry(limbs, shift, mask)
    return (_block_ints([limb[start:start + _BLOCK] for limb in limbs], width)
            for start in range(first - first % _BLOCK, n_max + 1, _BLOCK))


# entries decoded together: a block's word and record buffers stay small
# beside the table, and each block sizes its records from its own counts
_BLOCK = 1 << 14


def _carry(limbs: list, shift, mask) -> None:
    # carry every digit below 2^width, lowest first; the top one opens a
    # limb when it carries out, tested by a bool array, not a shifted copy
    for low, high in zip(limbs, limbs[1:]):
        high += low >> shift
        low &= mask
    if (limbs[-1] > mask).any():
        limbs.append(limbs[-1] >> shift)
        limbs[-2] &= mask


def _words(digits: list, width: int) -> np.ndarray:
    # the counts as little-endian 64-bit words, lowest word first, with a
    # bit over the top digit for a 0 sign; the carried digit i holds bits
    # width*i up, so it spans at most two words, or sits inside the last
    words = np.zeros((len(digits[0]), width * len(digits) // 64 + 1), dtype="<u8")
    for i, digit in enumerate(digits):
        j, offset = divmod(width * i, 64)
        words[:, j] |= digit << np.uint64(offset)
        if offset and j + 1 < words.shape[1]:
            words[:, j + 1] |= digit >> np.uint64(64 - offset)
    return words


def _block_ints(digits: list, width: int) -> list:
    # One block's counts as Python ints, each built once, in C, from its
    # words, packed once and sized from the highest word not zero
    # everywhere and its largest value.  Counts may fall along a table
    # (forty parts 3 leave 0 off the multiples of 3), so neither the last
    # entry nor the last block stands for the rest.  Counts that fit word 0
    # come from one tolist().  Any others are written as pickle
    # LONG1 records (opcode 0x8a, a length byte, then the value in
    # little-endian two's complement), one length for the whole block with
    # room for a 0 sign bit over its largest count, and one pickle.loads
    # builds the list.  The buffer holds only those records, made here from
    # this function's own words, never from outside input.
    words = _words(digits, width)
    top = words.shape[1] - 1
    while top and not words[:, top].any():
        top -= 1
    if not top:
        return words[:, 0].tolist()
    size = 8 * top + int(words[:, top].max()).bit_length() // 8 + 1
    m = len(words)
    records = bytearray(m * (size + 2) + 5)
    records[:3] = b"\x80\x02("  # PROTO 2, MARK
    records[-2:] = b"l."  # LIST of everything since the MARK, STOP
    fields = np.frombuffer(records, np.uint8, m * (size + 2), 3).reshape(m, size + 2)
    fields[:, 0] = 0x8A
    fields[:, 1] = size
    fields[:, 2:] = words.view(np.uint8)[:, :size]
    return pickle.loads(records)


def count_s_partitions_table(n_max: int) -> CountTable:
    """Exact table of p_s(0..n_max): partitions into parts 2^k - 1, k >= 1.

    One numpy pass per part, largest part first, over fixed-width uint64
    digits, so O(n_max log n_max) machine additions per digit; the digits
    are carried only when a bound on them says the next pass could
    overflow.  At the end each count is built once, in C, in blocks of
    2^14, each packed once into the table's width of 64-bit words and
    sized from its highest nonzero word: one tolist() where that is word
    0, else one pickle.loads of the block's LONG1 records.  The blocks come
    from _s_blocks, the one checked stream of this DP, each decoded when it
    is read: this table collects them into one list, and the CLI's table
    and count read the same stream without it, a block at a time or the
    one block that holds n.  Raises DomainError past MAX_EXACT_N.
    """
    # extended a block at a time, so a loop of builds reuses freed heap
    # pages: a [0] * (n_max + 1) list filled by slice assignment faulted
    # fresh ones on each build, though it peaks lower at 10^6
    counts = []
    for block in _s_blocks(n_max):
        counts += block
    return CountTable(n_max, counts, "mersenne")


def _s_blocks(n_max: int, first: int = 0):
    """The counts of count_s_partitions_table(n_max) in blocks of 2^14 (the
    last may be shorter), from the block that holds entry first, with the
    parts 2^k - 1 <= n_max largest first.  The checks and the DP run when
    this is called; a block is decoded only when it is read, so no list of
    every count is built."""
    _check_n_max(n_max)
    parts = [(1 << k) - 1 for k in range((n_max + 1).bit_length() - 1, 0, -1)]
    return _dp_blocks(n_max, parts, first)


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
    object.  Raises DomainError past MAX_EXACT_N.
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


def ln_count(value: int) -> float:
    """ln of an exact positive integer, to ~2e-16 relative at any size:
    math.log takes an int of any length without overflow."""
    # _check_int inlined: every CountTable.ln point query calls this once
    if type(value) is not int or value < 1:
        raise DomainError(f"ln_count requires a positive int, got {value!r}")
    return log(value)
