"""Modular exponentiation through the greedy Mersenne-part decomposition.

One chain climbs from a to the largest part 2^K - 1 and passes every
smaller part on the way.  From one part to the next, d exponent steps
up, it jumps with d squarings and one multiply by a^(2^d - 1) from a
table built per call, and the first part seeds the result: at most
2 (K - 1) + #parts - 1 modular multiplications, O(log n), 133 for
n = 10^18.  The last lines compare the count with the plain chain
x -> x^2 * a and with square-and-multiply over 200 seeded n per size.
"""

import random

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

print("\nmean modular multiplications over 200 seeded n of each size:")
print("  bits   this chain   plain chain   square-and-multiply")
rng = random.Random(0)
for bits in (64, 256, 1024):
    chain = plain = binary = 0
    for _ in range(200):
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        ops = OpCount()
        modexp_spartition(a, n, m, ops)
        exponents = greedy_decompose(n).exponents
        chain += ops.total
        plain += 2 * (exponents[0] - 1) + len(exponents)
        binary += n.bit_length() - 1 + bin(n).count("1") - 1
    print(f"  {bits:4d}   {chain / 200:10.1f}   {plain / 200:11.1f}   {binary / 200:19.1f}"
          f"   ({chain / binary:.2f}x and {plain / binary:.2f}x)")
