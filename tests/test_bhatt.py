import math
from fractions import Fraction

import pytest

from spartitions import bhatt
from spartitions import (
    AuditRecord,
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


def test_scan_record_at_8(table500):
    records = {rec.n: rec for rec in audit_scan(16, table500)}
    rec = records[8]
    assert rec.exact == 4
    assert rec.bound == 16
    assert not rec.violated


def test_records_are_immutable_tuples(table500):
    rec = next(audit_scan(8, table500))
    assert rec == AuditRecord(n=1, exact=1, bound=2, violated=False)
    assert tuple(rec) == (1, 1, 2, False)
    assert AuditRecord._fields == ("n", "exact", "bound", "violated")
    assert hash(rec) == hash(AuditRecord(1, 1, 2, False))
    with pytest.raises(AttributeError):
        rec.exact = 5


def test_scan_exact_matches_brute_force(table500):
    for rec in audit_scan(300, table500):
        assert rec.exact == brute_force_count(rec.n), rec.n


def test_scan_bounds(binary500):
    with pytest.raises(DomainError):
        list(audit_scan(0))
    # a binary table would audit b(n) against the bound and report a first
    # violation at 474, and a plain list has no n_max
    for table in (binary500, count_binary_partitions_table(10), [1, 2, 3]):
        with pytest.raises(DomainError):
            list(audit_scan(5, table))
        with pytest.raises(DomainError):
            run_audit(5, table)
    # the table builder holds the size limit; a prebuilt table is too
    # short, so the scan reaches the builder either way
    with pytest.raises(DomainError):
        list(audit_scan(10 ** 6 + 1))
    with pytest.raises(DomainError):
        list(audit_scan(10 ** 6 + 1, count_s_partitions_table(10)))
    # n_max must be an int: True would audit n = 1, and a float or str
    # would reach range(...)'s or the comparison's TypeError
    table = count_s_partitions_table(10)
    for n_max in (5.0, "5", True, None):
        with pytest.raises(DomainError):
            list(audit_scan(n_max))
        with pytest.raises(DomainError):
            run_audit(n_max, table)


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


def test_log_ratio_increasing_small_grid():
    table = count_s_partitions_table(10 ** 4)
    ratios = [ln_count(table[n]) / ln_count(bhatt_bound(n))
              for n in (10 ** 3, 10 ** 4)]
    assert ratios[0] < ratios[1]


def test_max_ratio_tracks_scan(table500):
    summary = run_audit(500, table500)
    best = max(
        math.exp(ln_count(rec.exact) - ln_count(rec.bound))
        for rec in audit_scan(500, table500)
    )
    assert abs(summary.max_ratio - best) <= 1e-12 * best


def test_max_ratio_tie_keeps_the_first_n(table500):
    # exact/bound is exactly 1/2 at n = 1, 3 and 7 and below 1/2 at every
    # other n < 3463; the fold compares ratios exactly, so n = 1 holds the
    # maximum and the reported ratio is 1/2 itself
    ratios = {rec.n: Fraction(rec.exact, rec.bound) for rec in audit_scan(500, table500)}
    assert [n for n, r in ratios.items() if r == Fraction(1, 2)] == [1, 3, 7]
    assert max(ratios.values()) == Fraction(1, 2)
    for n_max in (1, 3, 7, 8, 500):
        summary = run_audit(n_max, table500)
        assert (summary.max_ratio_n, summary.max_ratio) == (1, 0.5), n_max
    table = count_s_partitions_table(3463)
    assert run_audit(3462, table).max_ratio_n == 1
    assert run_audit(3463, table).max_ratio_n == 3463
