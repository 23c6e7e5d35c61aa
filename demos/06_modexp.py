"""Modular exponentiation through the greedy Mersenne-part decomposition.

Each part 2^k - 1 evaluates with k-1 square-and-multiply rounds of its
own, so the whole exponent costs 2 * sum(k_i - 1) + #parts modular
multiplications, O(log^2 n) rather than the ~2 log2 n of a shared chain.
"""

from spartitions import (
    OpCount,
    greedy_decompose,
    modexp_reference,
    modexp_spartition,
)

for n in (10, 100, 2 ** 20 - 2, 10 ** 18 + 9):
    part = greedy_decompose(n)
    print(f"n = {n}: exponents {list(part.exponents)} "
          f"-> parts {part.parts() if n < 10**6 else '...'}")

a, n, m = 7, 10 ** 18 + 9, 2 ** 61 - 1
ops = OpCount()
ours = modexp_spartition(a, n, m, ops)
ref = modexp_reference(a, n, m)
print(f"\n{a}^{n} mod {m}")
print(f"  decomposition route: {ours}")
print(f"  binary reference:    {ref}")
print(f"  agreement: {ours == ref}")
print(f"  cost: {ops.squarings} squarings + {ops.multiplies} multiplies "
      f"= {ops.total} modular multiplications (exponent has {n.bit_length()} bits)")
