import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spartitions import (
    DomainError,
    OpCount,
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
    # one shared chain up to the largest exponent K: K - 1 squarings and
    # K - 1 multiplies, plus one multiply per part into the result
    for n, total in ((0, 0), (1, 1), (12345, 31), (2 ** 64 - 1, 127),
                     (10 ** 18, 144)):
        ops = OpCount()
        modexp_spartition(7, n, 2 ** 61 - 1, ops)
        exponents = greedy_decompose(n).exponents
        assert ops.total == 2 * (max(exponents, default=1) - 1) + len(exponents)
        assert ops.total == total, n


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
    with pytest.raises(DomainError):
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
