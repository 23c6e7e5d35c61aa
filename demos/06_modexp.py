"""Modular exponentiation through the greedy Mersenne-part decomposition.

One chain x -> x^2 * a climbs from a to the largest part 2^K - 1 and
passes every smaller part on the way, so the whole exponent costs
2 (K - 1) + #parts modular multiplications: O(log n), 144 for n = 10^18
where rebuilding the chain for every part took 1844.
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
print(f"  builtin pow:         {ref}")
print(f"  agreement: {ours == ref}")
print(f"  cost: {ops.squarings} squarings + {ops.multiplies} multiplies "
      f"= {ops.total} modular multiplications (exponent has {n.bit_length()} bits)")
