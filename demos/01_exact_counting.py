"""Exact counting of partitions into Mersenne parts 1, 3, 7, 15, ...

Builds the DP table and spot-checks it against the independent
brute-force enumerator.  The asymptotic estimate of demo 03 tracks these
point counts p_s(n), not their running sums.
"""

from spartitions import brute_force_count, count_s_partitions_table

N = 300

print(f"parts available up to {N}: {[2 ** k - 1 for k in range(1, (N + 1).bit_length())]}")

table = count_s_partitions_table(N)
print(f"\np_s(n) for n = 0..15: {table.counts[:16]}")
print(f"p_s({N}) = {table[N]}")

print("\nbrute-force cross-check (independent enumeration):")
for n in (7, 10, 100, 300):
    bf = brute_force_count(n)
    mark = "ok" if bf == table[n] else "MISMATCH"
    print(f"  n={n:>4}: dp={table[n]} brute={bf}  [{mark}]")
