"""Greedy decomposition of n into Mersenne parts and its use for a^n mod m.

A part 2^k - 1 costs k-1 squarings and k-1 multiplies via the chain
x -> x^2 * a.  Each part rebuilds its own chain from a, and one more
multiply folds it into the result, so parts k_1, k_2, ... cost
2 * sum(k_i - 1) + #parts modular multiplications in all: O(log^2 n),
1844 for n = 10^18 where square-and-multiply needs about 84.  A chain
shared across the parts would bring this to O(log n) (ROADMAP item 3).
"""

from dataclasses import dataclass, field

from .errors import DomainError

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
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    exponents = []
    remainder = n
    while remainder > 0:
        k = (remainder + 1).bit_length() - 1  # largest k with 2^k - 1 <= remainder
        exponents.append(k)
        remainder -= (1 << k) - 1
    return SPartition(n, tuple(exponents))


def pow_mersenne_part(a: int, k: int, m: int, ops: OpCount | None = None) -> int:
    """a^(2^k - 1) mod m via k-1 rounds of square-then-multiply-by-a."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if k < 1:
        raise DomainError(f"exponent index must be >= 1, got {k}")
    a = a % m
    x = a
    for _ in range(k - 1):
        x = (x * x) % m
        x = (x * a) % m
        if ops is not None:
            ops.squarings += 1
            ops.multiplies += 1
    return x


def modexp_spartition(a: int, n: int, m: int, ops: OpCount | None = None) -> int:
    """a^n mod m through the greedy Mersenne-part decomposition of n."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if n < 0:
        raise DomainError(f"exponent must be nonnegative, got {n}")
    result = 1 % m
    for k in greedy_decompose(n).exponents:
        result = (result * pow_mersenne_part(a, k, m, ops)) % m
        if ops is not None:
            ops.multiplies += 1
    return result


def modexp_reference(a: int, n: int, m: int) -> int:
    """Left-to-right binary square-and-multiply; the independent oracle."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if n < 0:
        raise DomainError(f"exponent must be nonnegative, got {n}")
    result = 1 % m
    a = a % m
    for i in range(n.bit_length() - 1, -1, -1):
        result = (result * result) % m
        if (n >> i) & 1:
            result = (result * a) % m
    return result
