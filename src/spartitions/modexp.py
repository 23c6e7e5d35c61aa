"""Greedy decomposition of n into Mersenne parts and its use for a^n mod m.

The chain x -> x^2 * a takes a^(2^k - 1) to a^(2^(k+1) - 1) with one
squaring and one multiply, so a single chain climbing from a passes
through every part on its way to the largest (Knuth, TAOCP vol. 2,
4.6.3).  A gap of d links can also be jumped: a^(2^t - 1) =
(a^(2^k - 1))^(2^d) * a^(2^d - 1) with d = t - k, that is d squarings and
one multiply by y_d = a^(2^d - 1) (Itoh & Tsujii, Inform. Comput. 78,
1988).  modexp_spartition walks the greedy exponents in increasing order,
jumps every gap of at most D links through a table y_1..y_D built once
per call, climbs longer gaps link by link, and seeds the result with the
first part.  D = 1 is the plain chain: 2 (K - 1) + #parts - 1 modular
multiplications, K the largest exponent.  From 16 parts on, D is chosen
from the gaps to minimize the count; below that, the table would save
fewer operations than choosing it costs, and D = 1.  Either way the count
is O(log n), at most 3 * bit_length(n) - 2 for n >= 1, and 133 for
n = 10^18.
"""

from dataclasses import dataclass, field
from operator import sub

from .errors import DomainError, _check_int

__all__ = [
    "SPartition",
    "OpCount",
    "greedy_decompose",
    "pow_mersenne_part",
    "modexp_spartition",
    "modexp_reference",
]


@dataclass
class OpCount:
    """Modular-multiplication counter for instrumented runs."""

    squarings: int = 0
    multiplies: int = 0

    @property
    def total(self) -> int:
        return self.squarings + self.multiplies


@dataclass(frozen=True)
class SPartition:
    """Multiset of exponents k, each standing for a part 2^k - 1."""

    n: int
    exponents: tuple = field(default_factory=tuple)

    def parts(self) -> list:
        return [(1 << k) - 1 for k in self.exponents]

    def is_valid(self) -> bool:
        return (
            all(k >= 1 for k in self.exponents)
            and sum(self.parts()) == self.n
        )


def greedy_decompose(n: int) -> SPartition:
    """Repeatedly subtract the largest part 2^k - 1 <= remainder.

    The exponents come out strictly decreasing except for at most one
    terminal repeat, so at most floor(log2(n+1)) + 1 parts are produced.
    """
    _check_int("n", n, 0)
    exponents = []
    remainder = n
    while remainder > 0:
        k = (remainder + 1).bit_length() - 1  # largest k with 2^k - 1 <= remainder
        exponents.append(k)
        remainder -= (1 << k) - 1
    return SPartition(n, tuple(exponents))


def _check_ops(ops) -> None:
    if not (ops is None or isinstance(ops, OpCount)):
        raise DomainError(f"ops must be an OpCount or None, got {ops!r}")


def _climb(x: int, a: int, steps: int, m: int, ops: OpCount | None) -> int:
    """Advance x = a^(2^k - 1) mod m by ``steps`` links of x -> x^2 * a."""
    for _ in range(steps):
        x = (x * x) % m
        x = (x * a) % m
    if ops is not None:
        ops.squarings += steps
        ops.multiplies += steps
    return x


def pow_mersenne_part(a: int, k: int, m: int, ops: OpCount | None = None) -> int:
    """a^(2^k - 1) mod m via k-1 rounds of square-then-multiply-by-a."""
    _check_int("modulus", m, 1)
    _check_int("exponent index", k, 1)
    _check_int("base", a)
    _check_ops(ops)
    a = a % m
    return _climb(a, a, k - 1, m, ops)


def _table_depth(exponents: tuple) -> int:
    """The least depth D of the jump table with the least operation count.

    A gap of d <= D links costs d + 1 operations, a longer one 2d, and the
    table y_1..y_D costs 2 (D - 1).  Raising D by one costs two operations
    and saves D - 1 on each gap of length D, so the best D is 1 or a gap
    length, and one pass over the sorted gaps finds it.  Fewer than 16
    parts (n below about 32 bits) get D = 1 without the pass: there the
    best table saves a few operations, fewer than the sort and pass cost.
    """
    if len(exponents) < 16:
        return 1
    depth, best, saved = 1, 0, 0
    for d in sorted(map(sub, exponents, exponents[1:] + (1,))):
        if d > 1:
            saved += d - 1
            if saved - 2 * (d - 1) > best:
                depth, best = d, saved - 2 * (d - 1)
    return depth


def modexp_spartition(a: int, n: int, m: int, ops: OpCount | None = None) -> int:
    """a^n mod m through the greedy Mersenne-part decomposition of n.

    The exponents are taken in increasing order, so each part extends the
    chain from the previous one, by a jump through the table or, past its
    depth, link by link.  The first part is the result's first factor.
    """
    _check_int("modulus", m, 1)
    _check_int("exponent", n, 0)
    _check_int("base", a)
    _check_ops(ops)
    a = a % m
    exponents = greedy_decompose(n).exponents
    if not exponents:
        return 1 % m
    depth = _table_depth(exponents)
    table = [a]  # table[d - 1] = y_d = a^(2^d - 1) mod m
    for _ in range(depth - 1):
        y = table[-1] * table[-1] % m
        table.append(y * a % m)
    # the table's squarings and multiplies, and one multiply per part after
    # the first; each gap adds one multiply for a jump or d for a climb
    squarings = len(table) - 1
    multiplies = squarings + len(exponents) - 1
    x, k, result = a, 1, None  # x = a^(2^k - 1) mod m
    for t in reversed(exponents):
        d = t - k
        k = t
        if d > depth:
            x = _climb(x, a, d, m, None)
            multiplies += d
        elif d == 1:  # about half the gaps: the jump without its loop
            x = x * x % m * a % m
            multiplies += 1
        elif d:
            for _ in range(d):
                x = x * x % m
            x = x * table[d - 1] % m
            multiplies += 1
        result = x if result is None else result * x % m
    if ops is not None:
        # every gap of d links runs d squarings, jumped or climbed
        ops.squarings += squarings + k - 1
        ops.multiplies += multiplies
    return result


def modexp_reference(a: int, n: int, m: int) -> int:
    """a^n mod m by builtin pow; the independent oracle."""
    _check_int("modulus", m, 1)
    _check_int("exponent", n, 0)
    _check_int("base", a)
    return pow(a, n, m)
