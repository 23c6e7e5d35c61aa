"""Greedy decomposition of n into Mersenne parts and its use for a^n mod m.

The chain x -> x^2 * a takes a^(2^k - 1) to a^(2^(k+1) - 1) with one
squaring and one multiply, so a single chain climbing from a passes
through every part on its way to the largest (Knuth, TAOCP vol. 2,
4.6.3).  modexp_spartition walks the greedy exponents in increasing
order along that one chain and multiplies each part into the result as
the chain reaches it: 2 (K - 1) + #parts modular multiplications, K the
largest exponent.  That is O(log n), at most 3 * bit_length(n) - 1 for
n >= 1, and 144 for n = 10^18.
"""

from dataclasses import dataclass, field

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


def modexp_spartition(a: int, n: int, m: int, ops: OpCount | None = None) -> int:
    """a^n mod m through the greedy Mersenne-part decomposition of n.

    One chain serves every part: the exponents are taken in increasing
    order, so each part extends the chain from the previous one.
    """
    _check_int("modulus", m, 1)
    _check_int("exponent", n, 0)
    _check_int("base", a)
    _check_ops(ops)
    a = a % m
    result = 1 % m
    x, k = a, 1  # x = a^(2^k - 1) mod m
    for target in reversed(greedy_decompose(n).exponents):
        x = _climb(x, a, target - k, m, ops)
        k = target
        result = (result * x) % m
        if ops is not None:
            ops.multiplies += 1
    return result


def modexp_reference(a: int, n: int, m: int) -> int:
    """a^n mod m by builtin pow; the independent oracle."""
    _check_int("modulus", m, 1)
    _check_int("exponent", n, 0)
    _check_int("base", a)
    return pow(a, n, m)
