import math
import random
from fractions import Fraction

import pytest

from spartitions import bhatt
from spartitions import (
    AuditSummary,
    DomainError,
    audit_scan,
    bhatt_bound,
    brute_force_count,
    count_binary_partitions_table,
    count_s_partitions_table,
    ln_count,
    run_audit,
)


def test_bound_examples():
    # n=3: 2 + 1 + (1^0 for i=0; zero for n-3 < 2)
    assert bhatt_bound(3) == 4
    # n=8: 2 + 2 + (3^2 + 2^1 + 1^0 + nothing)
    assert bhatt_bound(8) == 16
    # n=1: the lone summand has floor(log2 1) = 0, convention 0
    assert bhatt_bound(1) == 2


def test_bound_beyond_64_bits():
    def floor_log2(x):  # exact; float log2 rounds up just below 2^64
        m = 0
        while 2 ** (m + 1) <= x:
            m += 1
        return m

    # every n - 3i here is >= 2^63, so no degenerate summand arises
    for n in (2 ** 64, 2 ** 64 + 5, 2 ** 100):
        direct = 2 + n // 3
        for i in range(floor_log2(n) + 1):
            m = floor_log2(n - 3 * i)
            direct += m ** (m - 1)
        assert bhatt_bound(n) == direct, n


# SUMMAND[b] = m^(m-1) with m = b - 1, the summand of an x of bit length
# b >= 2; an x < 2 adds nothing.  Up to 1401 bits
SUMMAND = [0, 0] + [(b - 1) ** (b - 2) for b in range(2, 1402)]


def direct_bound(n):
    # the formula summand by summand, as it is written: x = n - 3i for
    # i = 0 .. floor(log2 n), stopping before x < 2
    xs = range(n, max(n - 3 * n.bit_length(), 1), -3)
    return 2 + n // 3 + sum(map(SUMMAND.__getitem__, map(int.bit_length, xs)))


def test_bound_matches_the_summand_loop():
    ns = set(range(1, 2 ** 14 + 1))
    # every n within 3 bit_length(n) of a power of two 2^k, where a summand
    # appears (n = 2^k) or one of the x = n - 3i crosses 2^k
    for k in range(1, 131):
        ns.update(range(max(1, 2 ** k - 3 * k), 2 ** k + 3 * (k + 1) + 1))
    rng = random.Random(29)
    ns.update(rng.getrandbits(rng.randrange(64, 1401)) for _ in range(40))
    for n in sorted(ns):
        assert bhatt_bound(n) == direct_bound(n), n


def test_bound_takes_one_term_per_octave(monkeypatch):
    class Terms(dict):  # the _POW memo, noting each m the bound reads
        def get(self, m, default=None):
            seen.append(m)
            return super().get(m, default)

    monkeypatch.setattr(bhatt, "_POW", Terms())
    rng = random.Random(32)
    ns = [*range(1, 2 ** 12),
          *(2 ** k + d for k in range(12, 80) for d in range(-3 * k, 3 * k + 4)),
          *(rng.getrandbits(1400) | 1 << 1399 for _ in range(5))]
    for n in ns:
        seen = []
        bhatt_bound(n)
        top = n.bit_length() - 1
        # m = top, top - 1, ..., one step per octave
        assert seen == list(range(top, top - len(seen), -1)), n
        if n >= 32:
            # every x = n - 3i lies in [2^(top-1), 2^(top+1)): one term for
            # each distinct m, and so at most two, whatever the size of n
            octaves = {x.bit_length() - 1 for x in range(n, n - 3 * (top + 1), -3)}
            assert len(seen) == len(octaves) <= 2, n


def test_bound_domain():
    # bool is an int subclass: True would give bhatt_bound(1) = 2
    for n in (0, -1, 2.5, 8.0, True, False):
        with pytest.raises(DomainError):
            bhatt_bound(n)


def test_bound_monotone():
    previous = bhatt_bound(1)
    for n in range(2, 4000):
        value = bhatt_bound(n)
        assert value >= previous, n
        previous = value


def test_incremental_bounds_match_the_formula():
    n_max = 2 * 10 ** 5
    formula = [bhatt_bound(n) for n in range(1, n_max + 1)]
    assert list(bhatt._bounds(n_max)) == formula
    # every short scan, and scans that stop at or just past a power of two,
    # where a summand appears or one of x = n - 3i crosses 2^k
    ends = set(range(1, 301))
    for k in range(2, 17):
        ends.update((2 ** k - 1, 2 ** k, 2 ** k + 1, 2 ** k + 3))
    for end in sorted(ends):
        assert list(bhatt._bounds(end)) == formula[:end], end


def test_scan_evaluates_the_formula_rarely(monkeypatch):
    calls = []
    formula = bhatt.bhatt_bound

    def counting_bound(n):
        calls.append(n)
        return formula(n)

    monkeypatch.setattr(bhatt, "bhatt_bound", counting_bound)
    n_max = 10 ** 5
    table = count_s_partitions_table(n_max)
    for _ in audit_scan(n_max, table):
        pass
    assert 0 < len(calls) <= n_max.bit_length() ** 2
    calls.clear()
    run_audit(n_max, table)
    assert 0 < len(calls) <= n_max.bit_length() ** 2


def test_scan_pairs_are_the_table_and_the_bound(table500):
    for n_max, table in ((500, table500), (2 * 10 ** 4, count_s_partitions_table(2 * 10 ** 4))):
        expected = [(table[n], bhatt_bound(n)) for n in range(1, n_max + 1)]
        assert list(audit_scan(n_max, table)) == expected, n_max
    # a longer table is read only to n_max
    assert list(audit_scan(3, table500)) == [(1, 2), (1, 3), (2, 4)]


def test_scan_record_at_8(table500):
    pairs = list(audit_scan(16, table500))
    assert len(pairs) == 16
    assert pairs[7] == (4, 16)  # n = 8: 4 partitions against a bound of 16


def test_scan_exact_matches_brute_force(table500):
    for n, (exact, _) in enumerate(audit_scan(300, table500), 1):
        assert exact == brute_force_count(n), n


def test_scan_bounds(binary500):
    # every check runs when audit_scan is called, before the first pair
    with pytest.raises(DomainError):
        audit_scan(0)
    # a binary table would audit b(n) against the bound and report a first
    # violation at 474, and a plain list has no n_max
    for table in (binary500, count_binary_partitions_table(10), [1, 2, 3]):
        with pytest.raises(DomainError):
            audit_scan(5, table)
        with pytest.raises(DomainError):
            run_audit(5, table)
    # the table builder holds the size limit; a prebuilt table is too
    # short, so the scan reaches the builder either way
    with pytest.raises(DomainError):
        audit_scan(10 ** 6 + 1)
    with pytest.raises(DomainError):
        audit_scan(10 ** 6 + 1, count_s_partitions_table(10))
    # n_max must be an int: True would audit n = 1, and a float or str
    # would reach range(...)'s or the comparison's TypeError
    table = count_s_partitions_table(10)
    for n_max in (5.0, "5", True, None, 2.0):
        with pytest.raises(DomainError):
            audit_scan(n_max)
        with pytest.raises(DomainError):
            run_audit(n_max, table)


@pytest.mark.parametrize("drop_at, monotone", [(16, True), (17, False)])
def test_summary_checks_monotone_from_16(drop_at, monotone):
    # bounds 10, 11, ... with one step down at n = drop_at; only a drop
    # past n = 16 counts
    bounds = [10 + n - 2 * (n >= drop_at) for n in range(1, 31)]
    summary = bhatt._summarize((1, bound) for bound in bounds)
    assert summary.bound_monotone_from_16 is monotone
    assert summary.first_violation is None


def test_summary_counts_only_strict_violations():
    # a tie exact == bound is no violation; n = 2 and 4 exceed their bounds
    summary = bhatt._summarize([(5, 5), (6, 5), (4, 6), (9, 5), (5, 5)])
    assert (summary.first_violation, summary.violations) == (2, 2)


def test_no_violation_below_3000():
    summary = run_audit(3000)
    assert summary.first_violation is None
    assert summary.violations == 0
    assert 0.0 < summary.max_ratio < 1.0
    assert summary.bound_monotone_from_16
    assert "0^-1" in summary.convention


def test_first_violation_is_found():
    # development run of the full scan put the crossover at n = 3804;
    # the audit rediscovers it rather than trusting that number
    summary = run_audit(4000)
    assert summary.first_violation is not None
    assert summary.first_violation <= 4000
    rec_n = summary.first_violation
    table = count_s_partitions_table(rec_n)
    assert table[rec_n] > bhatt_bound(rec_n)
    assert table[rec_n - 1] <= bhatt_bound(rec_n - 1) or rec_n == 1
    # every n from the first violation to 4095 violates (the set below 10^6
    # is pinned in the next test), so the summary counts each of them
    assert summary.violations == 4000 - rec_n + 1


def test_log_ratio_increasing_small_grid():
    table = count_s_partitions_table(10 ** 4)
    ratios = [ln_count(table[n]) / ln_count(bhatt_bound(n))
              for n in (10 ** 3, 10 ** 4)]
    assert ratios[0] < ratios[1]


def test_max_ratio_tracks_scan(table500):
    summary = run_audit(500, table500)
    assert summary == AuditSummary(None, 0, 0.5, 1, True)
    best = max(
        math.exp(ln_count(exact) - ln_count(bound))
        for exact, bound in audit_scan(500, table500)
    )
    assert abs(summary.max_ratio - best) <= 1e-12 * best


def test_max_ratio_tie_keeps_the_first_n(table500):
    # exact/bound is exactly 1/2 at n = 1, 3 and 7 and below 1/2 at every
    # other n < 3463; the fold compares ratios exactly, so n = 1 holds the
    # maximum and the reported ratio is 1/2 itself
    ratios = {n: Fraction(exact, bound)
              for n, (exact, bound) in enumerate(audit_scan(500, table500), 1)}
    assert [n for n, r in ratios.items() if r == Fraction(1, 2)] == [1, 3, 7]
    assert max(ratios.values()) == Fraction(1, 2)
    for n_max in (1, 3, 7, 8, 500):
        summary = run_audit(n_max, table500)
        assert (summary.max_ratio_n, summary.max_ratio) == (1, 0.5), n_max
    table = count_s_partitions_table(3463)
    assert run_audit(3462, table).max_ratio_n == 1
    assert run_audit(3463, table).max_ratio_n == 3463


def test_violation_set_exact_below_1e6_and_certified_to_2_201():
    # the exact scan fixes the violation set of n <= 10^6
    table = count_s_partitions_table(10 ** 6)
    violated = bytes(exact > bound for exact, bound in audit_scan(10 ** 6, table))
    assert all(violated[3803:4095])            # every n in [3804, 4095]
    assert sum(violated[4095:9109]) == 2265     # 12^11 joins the bound at 4096
    assert all(violated[9109:])                # every n in [9110, 10^6]
    assert sum(violated) == 993448
    assert violated[3803:].count(0) == 2749

    # Block certificate for n in [2^j, 2^(j+1)).  Upper lemma: the bound
    # adds j + 1 summands m_i^(m_i - 1) with m_i <= j (or a convention's 0
    # or 1) to 2 + floor(n/3), so bhatt_bound(n) <= UB_j, as m^(m-1)
    # increases with m.  Lower lemma: multiplicities r_k of 2^k - 1,
    # k = 2..K, with r_k <= n / (K (2^k - 1)) fill at most n, and 1s fill
    # the rest, so p_s(n) >= LB_K(n).  p_s never decreases in n (add a 1),
    # so LB_{j//2}(2^j) > UB_j puts the whole block in the violation set.
    def ub(j):
        return 2 + ((1 << (j + 1)) - 1) // 3 + (j + 1) * j ** (j - 1)

    def lb(K, n):
        return math.prod(n // (K * ((1 << k) - 1)) + 1 for k in range(2, K + 1))

    for j in range(19, 201):
        assert lb(j // 2, 1 << j) > ub(j), j

    # spot checks of both lemmas against the library
    for j in (12, 15, 19):
        lo, hi = 1 << j, 1 << (j + 1)
        for n in (*range(lo, hi, 997), lo + 1, hi - 2, hi - 1):
            assert bhatt_bound(n) <= ub(j), n
    for j in range(4, 20):
        n = 1 << j
        for K in range(2, j + 1):
            assert lb(K, n) <= table[n], (j, K)
