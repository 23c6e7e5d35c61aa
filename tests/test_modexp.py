import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spartitions import (
    DomainError,
    OpCount,
    SPartition,
    greedy_decompose,
    modexp_reference,
    modexp_spartition,
    pow_mersenne_part,
)

SEED = 20250808


def test_greedy_examples():
    assert greedy_decompose(0).exponents == ()
    assert greedy_decompose(7).exponents == (3,)
    assert greedy_decompose(10).exponents == (3, 2)
    assert greedy_decompose(10).parts() == [7, 3]
    # valid takes both: every k >= 1 and parts that sum to n
    assert not SPartition(5, (2,)).is_valid()
    assert not SPartition(3, (0, 2)).is_valid()


def test_greedy_terminal_repeat():
    # n = 2^(k+1) - 2 forces one repeated exponent at the end
    assert greedy_decompose(6).exponents == (2, 2)
    assert greedy_decompose(14).exponents == (3, 3)


def test_greedy_invariants_exhaustive():
    for n in range(20001):
        part = greedy_decompose(n)
        assert part.is_valid(), n
        assert len(part.exponents) <= (n + 1).bit_length(), n
        # strictly decreasing except at most one terminal repeat
        exps = part.exponents
        for i in range(len(exps) - 1):
            if i < len(exps) - 2:
                assert exps[i] > exps[i + 1], n
            else:
                assert exps[i] >= exps[i + 1], n


def test_greedy_domain():
    with pytest.raises(DomainError):
        greedy_decompose(-1)


def test_pow_mersenne_examples():
    assert pow_mersenne_part(2, 1, 1000) == 2
    assert pow_mersenne_part(2, 3, 1000) == 128
    assert pow_mersenne_part(3, 4, 100) == pow(3, 15, 100) == 7
    assert pow_mersenne_part(7, 5, 1) == 0  # the smallest modulus


def test_pow_mersenne_operation_count():
    for k in (1, 2, 5, 11):
        ops = OpCount()
        pow_mersenne_part(3, k, 2 ** 61 - 1, ops)
        assert ops.squarings == k - 1
        assert ops.multiplies == k - 1
        assert ops.total == 2 * (k - 1)


def test_pow_mersenne_domain():
    with pytest.raises(DomainError):
        pow_mersenne_part(2, 3, 0)
    with pytest.raises(DomainError):
        pow_mersenne_part(2, 0, 5)


def test_modexp_operation_count():
    # parts in increasing order, the first seeding the result: with D = 1
    # (below 16 parts) K - 1 squarings and K - 1 + #parts - 1 multiplies;
    # 10^18 has 28 parts and a table of depth 3
    for n, total in ((0, 0), (1, 0), (12345, 30), (2 ** 64 - 1, 126),
                     (10 ** 18, 133)):
        ops = OpCount()
        modexp_spartition(7, n, 2 ** 61 - 1, ops)
        assert ops.total == total, n
    ops = OpCount()
    modexp_spartition(7, 10 ** 18, 2 ** 61 - 1, ops)
    assert (ops.squarings, ops.multiplies) == (60, 73)
    ops = OpCount()
    modexp_spartition(7, 12345, 2 ** 61 - 1, ops)
    assert (ops.squarings, ops.multiplies) == (12, 18)


def _gaps(n: int) -> list:
    """The gaps between the parts of n in increasing order, the first from
    k = 1, where the chain starts at a = a^(2^1 - 1)."""
    targets = sorted(greedy_decompose(n).exponents)
    return [t - k for k, t in zip([1] + targets, targets)]


def _model_count(gaps: list, depth: int) -> int:
    """Operations of the chain with a table of depth D: 2 (D - 1) for the
    table, d + 1 for a jump of d <= D links, 2d for a longer climb and one
    multiply per part after the first."""
    return (2 * (depth - 1) + sum(d + 1 if d <= depth else 2 * d for d in gaps if d)
            + max(len(gaps) - 1, 0))


def _old_count(gaps: list) -> int:
    """The plain chain's count 2 (K - 1) + #parts, every part multiplied
    into 1 % m; the gaps add up to K - 1."""
    return 2 * sum(gaps) + len(gaps)


def test_modexp_every_small_exponent():
    # m = 1 maps everything to 0; the 512-bit modulus has full-size residues
    rng = random.Random(SEED)
    moduli = (1, 2, 3, 1000, 2 ** 61 - 1, rng.getrandbits(512) | 1 << 511 | 1)
    bases = (-7, 3, rng.getrandbits(600), 2)
    for n in range(1 << 14):
        a = bases[n % 4]
        for m in moduli:
            ops = OpCount()
            assert modexp_spartition(a, n, m, ops) == pow(a, n, m), (a, n, m)
        assert ops.total == _model_count(_gaps(n), 1), n
        assert ops.total <= _old_count(_gaps(n)) - (n > 0), n
        assert ops.total <= 3 * n.bit_length() - 2 or n == 0, n


def test_modexp_never_costs_more_than_the_plain_chain():
    # the count depends on n alone, so m = 1 keeps every product small; the
    # first 100 calls also run with a 64-bit modulus
    rng = random.Random(SEED + 1)
    for i in range(2000):
        n = rng.randrange(1, 1 << rng.randrange(1, 4097))
        ops = OpCount()
        assert modexp_spartition(3, n, 1, ops) == 0
        assert ops.total <= _old_count(_gaps(n)) - 1, n
        assert ops.total <= 3 * n.bit_length() - 2, n
        if i < 100:
            m = rng.getrandbits(64) | 1
            again = OpCount()
            assert modexp_spartition(-5, n, m, again) == pow(-5, n, m), (n, m)
            assert again == ops, n


def test_modexp_table_depth_is_the_least_best():
    # exponents built from seeded gaps, 12 to 40 parts; each palette makes
    # a different table win: none, depth 2, a deep one, or two depths tie.
    # From 16 parts on the depth, seen as squarings - (K - 1) + 1, is the
    # least D of least count
    rng = random.Random(SEED + 2)
    palettes = ((1,), (1, 2), (1, 1, 1, 1, 1, 2, 3), (1, 1, 1, 1, 3, 8),
                (0, 1, 1, 2, 2, 3, 4, 6, 9, 12))
    depths = set()
    for case in range(500):
        palette = palettes[case % len(palettes)]
        gaps = [rng.choice(palette) for _ in range(rng.randrange(12, 41))]
        exponents, k = [], 1
        for d in gaps:
            k += d
            if exponents and k == exponents[-1]:
                k += 1  # greedy repeats only the smallest part
            exponents.append(k)
        if gaps[0] == 0:  # the smallest part is 1, and repeated
            exponents.insert(0, 1)
        n = sum((1 << e) - 1 for e in exponents)
        gaps = _gaps(n)
        assert sorted(greedy_decompose(n).exponents) == exponents
        counts = {depth: _model_count(gaps, depth) for depth in range(1, max(gaps) + 2)}
        depth = min(counts, key=lambda d: (counts[d], d)) if len(gaps) >= 16 else 1
        depths.add(depth)
        ops = OpCount()
        m = rng.getrandbits(127) | 1
        assert modexp_spartition(5, n, m, ops) == pow(5, n, m), n
        assert ops.total == counts[depth], (n, gaps)
        assert ops.squarings == depth - 1 + max(exponents) - 1, (n, gaps)
    assert {1, 2, 3, 8} <= depths


def test_modexp_cost_is_linear_in_bits():
    rng = random.Random(SEED)
    sizes = list(range(1, 65)) + rng.sample(range(65, 4096), 60) + [4096]
    for bits in sizes:
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        ops = OpCount()
        modexp_spartition(3, n, 2 ** 61 - 1, ops)
        assert ops.total <= 3 * n.bit_length() - 1, (bits, n)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(), n=st.integers(min_value=0), m=st.integers(min_value=1))
def test_modexp_matches_pow_property(a, n, m):
    assert modexp_spartition(a, n, m) == pow(a, n, m)
    part = greedy_decompose(n)
    exps = part.exponents
    assert part.is_valid()
    assert len(exps) <= (n + 1).bit_length()
    assert all(x > y for x, y in zip(exps, exps[1:-1]))
    assert list(exps) == sorted(exps, reverse=True)


def test_modexp_examples():
    assert modexp_spartition(5, 0, 7) == 1
    assert modexp_spartition(2, 10, 1000) == 24
    assert modexp_spartition(9, 1, 1) == 0  # 1 mod 1


def test_modexp_reference_examples():
    assert modexp_reference(5, 1, 3) == 2
    assert modexp_reference(2, 10, 1000) == 24
    assert modexp_reference(7, 0, 13) == 1
    assert modexp_reference(7, 5, 1) == 0  # the smallest modulus


def test_modexp_matches_reference_random():
    rng = random.Random(SEED)
    for _ in range(1000):
        a = rng.randrange(0, 1 << 64)
        n = rng.randrange(0, 1 << 64)
        m = rng.randrange(1, 1 << 48)
        ours = modexp_spartition(a, n, m)
        assert ours == modexp_reference(a, n, m) == pow(a, n, m), (a, n, m)


def test_modexp_huge_exponent():
    a, n, m = 3, 10 ** 40 + 7, 10 ** 12 + 39
    assert modexp_spartition(a, n, m) == pow(a, n, m)


def test_modexp_domain():
    with pytest.raises(DomainError):
        modexp_spartition(2, 3, 0)
    # the message names modexp's own argument, not greedy_decompose's n
    with pytest.raises(DomainError, match="^exponent must be an int >= 0, got -1$"):
        modexp_spartition(2, -1, 5)
    with pytest.raises(DomainError):
        modexp_reference(2, 3, 0)
    with pytest.raises(DomainError):
        modexp_reference(2, -1, 5)
    # non-int arguments, which would fail in bit_length or in %, or (a
    # float modulus) give a float answer
    for call, args in [
        (greedy_decompose, (2.5,)),
        (modexp_spartition, (3, 2.5, 7)),
        (modexp_spartition, (3, 5, 7.0)),
        (modexp_spartition, (3.0, 5, 7)),
        (pow_mersenne_part, (3, 2.5, 7)),
        (pow_mersenne_part, (3, 2, 7.0)),
        (modexp_reference, (3, 2.5, 7)),
        (modexp_reference, (3, 5, 7.0)),
        # an ops counter that is not an OpCount would fail in +=
        (modexp_spartition, (3, 5, 7, 0)),
        (pow_mersenne_part, (3, 2, 7, "x")),
    ]:
        with pytest.raises(DomainError):
            call(*args)


def test_bool_exponent_rejected():
    # bool is an int subclass, so True and False pass an n >= 0 check
    for flag in (True, False):
        with pytest.raises(DomainError):
            greedy_decompose(flag)
        with pytest.raises(DomainError):
            modexp_spartition(3, flag, 7)
        with pytest.raises(DomainError):
            pow_mersenne_part(3, flag, 7)
        with pytest.raises(DomainError):
            modexp_reference(3, flag, 7)
        with pytest.raises(DomainError):
            modexp_spartition(flag, 5, 7)
        with pytest.raises(DomainError):
            modexp_spartition(3, 5, flag)
