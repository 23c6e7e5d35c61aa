"""The README's computed figures, each read out of its sentence and checked
against the library in the README's own rounding: the estimates and the
exact logs they are compared with, criteria 2, 8 and 9's differences, the
alpha slices, the modexp means of demo 06, the violation set of Bhatt's
bound and the log margin of its block certificate."""

import itertools
import math
import random
import re
from pathlib import Path

import pytest

from spartitions import (
    OpCount,
    audit_scan,
    binary_partition_params,
    count_binary_partitions_table,
    count_s_partitions_table,
    greedy_decompose,
    integrate_adaptive,
    ln_count,
    ln_Ph_estimate,
    ln_ps_estimate,
    modexp_spartition,
    sawtooth_f,
)

# the README with every run of whitespace as one space, so that a sentence
# matches however its lines wrap
TEXT = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
NS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)


def figures(template: str) -> list:
    """The numbers that stand at the {} of template in the README."""
    number = r"([-+]?\d+(?:\.\d+)?)"
    pattern = number.join(map(re.escape, template.split("{}")))
    found = re.search(pattern, TEXT)
    assert found, template
    return list(found.groups())


def rounded(values, places: int) -> list:
    return [f"{v:.{places}f}" for v in values]


@pytest.fixture(scope="module")
def mersenne():
    return count_s_partitions_table(10 ** 6)


@pytest.fixture(scope="module")
def binary():
    return count_binary_partitions_table(10 ** 6)


def ln_running_sums(table) -> list:
    # ln of table[0] + ... + table[n] at each n of NS
    return [ln_count(sum(itertools.islice(table.counts, n + 1))) for n in NS]


def test_estimates_against_the_exact_logs(mersenne, binary):
    estimate = [ln_ps_estimate(n).total for n in NS]
    exact = [mersenne.ln(n) for n in NS]
    bin_estimate = [ln_Ph_estimate(n + 1, binary_partition_params()).total for n in NS]
    bin_exact = [binary.ln(n) for n in NS]
    assert figures(
        "at n = 10^3, 10^4, 10^5 and 10^6 it is {}, {}, {} and {}, against "
        "ln p_s(n) = {}, {}, {} and {} and ln of the running sum {}, {}, {} and {} "
        "(for binary parts at 10^6: {}, against ln b(n) = {} and {});"
    ) == rounded([*estimate, *exact, *ln_running_sums(mersenne),
                  bin_estimate[-1], bin_exact[-1], ln_running_sums(binary)[-1]], 3)

    # criterion 2: (estimate - exact)_Mersenne - (estimate - exact)_binary
    differences = [e - x - (be - bx)
                   for e, x, be, bx in zip(estimate, exact, bin_estimate, bin_exact)]
    assert figures("(estimate − exact)_binary is {}, {}, {}, {} at n = 10^3 … 10^6"
                   ) == rounded(differences, 3)
    # criteria 8 and 9: the errors at 10^3..10^6, and the binary one at 10^6
    assert figures("The o(1) gap genuinely shrinks ({} → {} → {} → {} over 10^3..10^6)"
                   ) == rounded([e - x for e, x in zip(estimate, exact)], 3)
    assert figures("the measured deviation is {},") == rounded(
        [bin_estimate[-1] - bin_exact[-1]], 4)


def test_alpha_slices():
    # the slice [2^k, 2^(k+1)] of f(v)/(v(v-1)), for k = 1, 2, 3
    slices = [integrate_adaptive(lambda v: sawtooth_f(v) / (v * (v - 1.0)),
                                 2.0 ** k, 2.0 ** (k + 1), tol=1e-12).value
              for k in (1, 2, 3)]
    assert figures("so every slice is positive ({}, {}, {}, … for k = 1, 2, 3)"
                   ) == rounded(slices, 4)


def test_modexp_means_of_demo_06():
    # demo 06's loop: seed 0, a = 7, m = 2^61 - 1, 200 n of each size
    a, m, rng = 7, 2 ** 61 - 1, random.Random(0)
    means = []
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
        means += [chain / 200, plain / 200, binary / 200]
    assert figures(
        "Over 200 seeded n each (`demos/06_modexp.py`): {} (plain chain {}) against {} "
        "at 64 bits, {} ({}) against {} at 256 bits and {} ({}) against {} at 1024 bits"
    ) == rounded(means, 0)


def test_violation_set_and_margin(mersenne):
    first, block_end, some, lo, hi, rest, total = map(int, figures(
        "exceeds the bound at every n in [{}, {}], at {} of the n in [{}, {}] "
        "(the summand 12^11 joins the bound at 4096), and at every n in [{}, 10^6], "
        "{} n in all; it holds at every other n."))
    violated = bytes(exact > bound for exact, bound in audit_scan(10 ** 6, mersenne))
    assert violated.index(1) + 1 == first
    assert all(violated[first - 1:block_end])
    assert sum(violated[lo - 1:hi]) == some
    assert all(violated[rest - 1:])
    assert sum(violated) == total

    # ln LB_{j//2}(2^j) - ln UB_j at j = 100, in exact ints (README's lemmas)
    j, K = 100, 50
    ub = 2 + ((1 << (j + 1)) - 1) // 3 + (j + 1) * j ** (j - 1)
    lb = math.prod((1 << j) // (K * ((1 << k) - 1)) + 1 for k in range(2, K + 1))
    assert figures("the margin between them, already {} at j = 100") == [
        f"{ln_count(lb) - ln_count(ub):+.0f}"]
