import hashlib
import math
import random
import time
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spartitions import (
    CountTable,
    DomainError,
    brute_force_count,
    count_binary_partitions_table,
    count_s_partitions_table,
    ln_count,
)
from spartitions import counting
from spartitions.counting import BRUTE_FORCE_LIMIT, MAX_EXACT_N

# (builder, offset): the family's parts are 2^k - offset <= n_max, k >= offset
FAMILIES = ((count_s_partitions_table, 1), (count_binary_partitions_table, 0))

# sha256 of the length-prefixed little-endian encoding (_digest) of each
# table 0..2*10^4, pinned from the scalar-loop builder
DIGEST_N = 20_000
S_DIGEST = "c2451afb8c2e09c8d7f0279d7f80d95599d1388ff4264ba895738a6f7d95325f"
B_DIGEST = "3344dd36b27230ff0d2c0b8e33c25abfb8e0007a43fa5b996d5346721e511d51"


def _family_parts(n_max, offset):
    return [(1 << k) - offset for k in range(offset, n_max.bit_length() + 1)
            if (1 << k) - offset <= n_max]


def _loop_dp(n_max, parts):
    # the scalar builder the numpy one replaced, kept as its oracle
    counts = [0] * (n_max + 1)
    counts[0] = 1
    for p in parts:
        for i in range(p, n_max + 1):
            counts[i] += counts[i - p]
    return counts


def _dp(n_max, parts):
    # the engine's counts for any parts, in the order given, as one list:
    # stress inputs such as [1] * 40 reach the DP only through this
    return sum(counting._dp_blocks(n_max, parts), [])


def _object_dp(n_max, parts):
    # the object-dtype running sum the uint64 limbs replaced, kept as their
    # oracle: the same rows-of-length-p layout, with numpy applying Python's
    # int + so no digit can wrap
    counts = np.zeros(n_max + 1, dtype=object)
    counts[0] = 1
    for p in parts:
        full = (n_max + 1) // p * p
        head = counts[:full].reshape(-1, p)
        np.add.accumulate(head, axis=0, out=head)
        counts[full:] += counts[full - p : n_max + 1 - p]
    return counts.tolist()


def _powers_of_two_upto(n):
    # the binary family's parts 2^k <= n, k >= 0
    return [1 << k for k in range(n.bit_length())] if n >= 1 else []


def _digest(counts):
    h = hashlib.sha256()
    for c in counts:
        raw = c.to_bytes((c.bit_length() + 8) // 8, "little")
        h.update(len(raw).to_bytes(2, "little") + raw)
    return h.hexdigest()


def test_mersenne_parts_examples():
    assert _family_parts(0, 1) == []
    assert _family_parts(7, 1) == [1, 3, 7]
    assert _family_parts(100, 1) == [1, 3, 7, 15, 31, 63]
    assert _family_parts(6, 1) == [1, 3]


def test_powers_of_two():
    assert _powers_of_two_upto(0) == []
    assert _powers_of_two_upto(10) == [1, 2, 4, 8]


def test_table_small_values(table500):
    assert count_s_partitions_table(0).counts == [1]
    # hand-enumerated: p_s(7) has {7},{3,3,1},{3,1^4},{1^7}
    assert table500[7] == 4
    assert table500[10] == 6
    assert table500.counts[:11] == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6]


@pytest.mark.parametrize("build, offset", FAMILIES)
def test_table_matches_loop_oracle_to_300(build, offset):
    for n_max in range(301):
        assert build(n_max).counts == _loop_dp(n_max, _family_parts(n_max, offset)), n_max


@pytest.mark.parametrize("build, offset", FAMILIES)
def test_table_matches_loop_oracle_at_row_edges(build, offset):
    # n_max + 1 a multiple of every part, of some, or of none: the row
    # layout's short last row is then empty or not, part by part.  At
    # n_max + 1 = 64p and 64p + 1 a pass of p switches from one add per row
    # to the running sum down the columns.  The DP runs the parts in the
    # order given: it carries seldom largest first, often smallest first
    sizes = [(1 << k) + d for k in range(2, 13) for d in (-2, -1, 0)]
    sizes += [64 * ((1 << k) - 1) + d for k in range(1, 7) for d in (-1, 0)]
    sizes += random.Random(7).sample(range(301, 5001), 12)
    for n_max in sizes:
        parts = _family_parts(n_max, offset)
        expected = _loop_dp(n_max, parts)
        assert build(n_max).counts == expected, n_max
        for order in (parts, parts[::-1]):
            assert _dp(n_max, order) == expected, (n_max, order)


@pytest.mark.parametrize("n_max, limbs", [(9710, 1), (9711, 2), (9712, 2),
                                           (16382, 2), (16383, 2), (16384, 2),
                                           (29780, 2), (29781, 2),
                                           (32766, 2), (32767, 2), (32768, 2)])
def test_table_matches_loop_oracle_at_limb_edges(n_max, limbs):
    # the digits are 63 - bit_length(n_max + 1) bits wide: 49 up to
    # n_max = 16382 and 48 from 16383; p_s(9711) is the first count that
    # needs a second digit.  The counts become ints in blocks of 2^14
    # entries: n_max + 1 = 2^14 - 1, 2^14, 2^14 + 1 and the same about
    # 2^15, where the block holding p_s(29781), the first count of 2^64 or
    # more, ends.  p_s(29780) is the last table all of whose counts fit
    # one 64-bit word
    width = 63 - (n_max + 1).bit_length()
    parts = _family_parts(n_max, 1)
    expected = _loop_dp(n_max, parts)
    counts = count_s_partitions_table(n_max).counts
    assert -(-counts[-1].bit_length() // width) == limbs
    assert counts == expected
    # smallest part first, the DP carries before most passes
    assert _dp(n_max, parts) == expected
    # twenty passes of the part 1 ahead of the parts leave every digit
    # large before the first carry; each of them is one more prefix sum
    for _ in range(20):
        expected = list(accumulate(expected))
    assert _dp(n_max, [1] * 20 + parts) == expected


def test_limb_digits_never_wrap():
    # k passes of the part 1 are k prefix sums, so every digit of every
    # entry is summed into the last one: the no-overflow bound of the digit
    # width is nearly reached.  The counts are comb(n + k - 1, k - 1), up
    # to 315 bits here
    n_max, k = 4095, 40
    expected = [math.comb(n + k - 1, k - 1) for n in range(n_max + 1)]
    assert _dp(n_max, [1] * k) == expected


@pytest.mark.parametrize("n_max, k, bits", [(4095, 40, 254), (4097, 40, 254), (32768, 7, 72)])
def test_limb_digits_of_falling_counts(n_max, k, bits):
    # k passes of the part 3: comb(n/3 + k - 1, k - 1) at multiples of 3
    # and 0 between, so the counts fall along the table.  The last count of
    # the tables to 4097 and 32768 is 0, and so is that of the block ending
    # at 32767, while counts before them need records of several words
    expected = _loop_dp(n_max, [3] * k)
    assert max(expected).bit_length() == bits
    assert _dp(n_max, [3] * k) == expected


@pytest.mark.parametrize("n_max, carries", [(10 ** 5, 5), (MAX_EXACT_N, 9)])
def test_s_table_carries_as_often_as_the_readme_says(n_max, carries, monkeypatch):
    # the README's counts: 5 carries among the 16 passes of a 10^5 table and
    # 9 among the 19 of a 10^6 one, then the last carry; a bound that grew
    # faster or slower than the digits can would carry more or less often
    calls = []
    carry = counting._carry
    monkeypatch.setattr(counting, "_carry", lambda *args: calls.append(carry(*args)))
    count_s_partitions_table(n_max)
    assert len(calls) == carries + 1


@pytest.mark.parametrize("n_max", [7, 14])
def test_dp_carries_where_a_doubling_bound_reaches_2_63(n_max, monkeypatch):
    # a pass of the part n_max sums two terms, so the bound doubles: it
    # reaches 2^63 before pass 63.  The digits are 63 - bit_length(n_max + 1)
    # = 59 bits wide for n_max + 1 = 8 and 15, so that carry restarts the
    # bound at 2^59 - 1; (2^59 - 1) * 2^4 < 2^63 <= (2^59 - 1) * 2^5, so the
    # next carry comes before pass 67.  Every count fits one digit
    events = []
    running_sum, carry = counting._running_sum, counting._carry
    monkeypatch.setattr(counting, "_running_sum",
                        lambda *args: events.append("+") or running_sum(*args))
    monkeypatch.setattr(counting, "_carry", lambda *args: events.append("c") or carry(*args))
    assert _dp(n_max, [n_max] * 70) == [1] + [0] * (n_max - 1) + [70]
    assert "".join(events) == "+" * 62 + "c" + "+" * 4 + "c" + "+" * 4 + "c"


@pytest.mark.parametrize("width, digits, opens", [
    # one limb whose top digit is the largest a pass leaves, 2^63 - 1
    (43, [[(1 << 63) - 1, 5, 0]], True),
    # a top digit equal to the mask stays; no limb opens
    (43, [[(1 << 43) - 1, 1 << 42, 7]], False),
    # the lower digits carry into an all-zero top limb, which takes them
    (49, [[(1 << 63) - 1, 3], [0, 0]], False),
    # several limbs: the carries chain up and the top one carries out
    (48, [[(1 << 63) - 1, 1 << 50, 1], [(1 << 62) - 5, 3, 0], [1 << 48, 0, (1 << 48) - 1]], True),
    # several limbs whose carries stay below the top mask
    (48, [[(1 << 62) - 1, 9, 0], [(1 << 47) + 2, 0, 1], [(1 << 47) - 1, 4, 0]], False),
])
def test_carry_keeps_the_counts_and_opens_a_limb_on_carry_out(width, digits, opens):
    limbs = [np.array(d, dtype=np.uint64) for d in digits]

    def values():
        return [sum(int(limb[j]) << (width * i) for i, limb in enumerate(limbs))
                for j in range(len(limbs[0]))]

    before = values()
    counting._carry(limbs, np.uint64(width), np.uint64((1 << width) - 1))
    assert values() == before
    assert all(int(limb.max()) < 1 << width for limb in limbs)
    assert len(limbs) == len(digits) + opens
    # a limb opens exactly when some count needs more digits than there were
    assert opens == (max(before) >> (width * len(digits)) > 0)


@pytest.mark.parametrize("width, limbs", [(62, 1), (49, 2), (43, 3), (48, 4), (50, 5)])
def test_words_hold_every_digit_below_a_zero_sign_bit(width, limbs):
    # random digits below 2^width, and rows of 2^width - 1 in every digit.
    # At (48, 4) the digits fill three words, so the spare fourth is 0; at
    # (50, 5) the top digit, bits 200-249, sits inside the last word, and
    # the LONG1 records of 2^250 - 1 take all 32 bytes of the four words
    rng = random.Random(width * limbs)
    rows = [[rng.randrange(1 << width) for _ in range(limbs)] for _ in range(40)]
    rows[::8] = [[(1 << width) - 1] * limbs] * 5
    expected = [sum(d << (width * i) for i, d in enumerate(row)) for row in rows]
    digits = [np.array(d, dtype=np.uint64) for d in zip(*rows)]
    words = counting._words(digits, width)
    assert [int.from_bytes(w.tobytes(), "little") for w in words] == expected
    assert not (words[:, -1] >> np.uint64(63)).any()
    assert counting._block_ints(digits, width) == expected


@pytest.mark.parametrize("n_max, bits", [(47740, 71), (47741, 72), (79377, 79), (79378, 80)])
def test_table_matches_object_oracle_at_record_lengths(n_max, bits):
    # counts past 64 bits become ints from little-endian two's complement
    # records of bits // 8 + 1 bytes: a count of 8j bits needs its own
    # byte for the 0 sign bit, one of 8j - 1 bits just fits.  p_s(n_max),
    # the largest count of its block, is the last of 8j - 1 bits or the
    # first of 8j
    counts = count_s_partitions_table(n_max).counts
    assert counts[-1].bit_length() == bits
    assert counts == _object_dp(n_max, _family_parts(n_max, 1))


def test_table_matches_object_oracle_at_the_limit():
    # three digits of 43 bits from n = 121030; p_s(10^6) has 127 bits
    counts = count_s_partitions_table(MAX_EXACT_N).counts
    assert counts[121029].bit_length() == 86 and counts[121030].bit_length() == 87
    assert counts == _object_dp(MAX_EXACT_N, _family_parts(MAX_EXACT_N, 1))


@pytest.mark.parametrize("first", [0, 1, 16383, 16384, 32767, 32768, 40000])
def test_blocks_read_from_the_one_that_holds_first(first):
    # blocks of 2^14 entries, the last one short, from the block that holds
    # entry first: together the table's counts from that block on
    counts = count_s_partitions_table(40000).counts
    blocks = list(counting._s_blocks(40000, first))
    assert [len(block) for block in blocks[:-1]] == [1 << 14] * (len(blocks) - 1)
    assert sum(blocks, []) == counts[first - first % (1 << 14):]


@pytest.mark.parametrize("n_max", [0, 16383, 16384, 40000])
def test_table_runs_the_dp_once_and_decodes_each_block_once(n_max, monkeypatch):
    # the table collects the block stream: one DP, then ceil((n_max + 1) /
    # 2^14) decodes, whose blocks in the order decoded are the table
    runs, decoded = [], []
    dp_blocks, block_ints = counting._dp_blocks, counting._block_ints
    monkeypatch.setattr(counting, "_dp_blocks",
                        lambda *args: runs.append(1) or dp_blocks(*args))
    monkeypatch.setattr(counting, "_block_ints",
                        lambda *args: decoded.append(block_ints(*args)) or decoded[-1])
    counts = count_s_partitions_table(n_max).counts
    assert len(runs) == 1
    assert len(decoded) == -(-(n_max + 1) // (1 << 14))
    assert sum(decoded, []) == counts


@pytest.mark.parametrize("build, offset", FAMILIES)
def test_table_entries_are_python_ints(build, offset):
    # the p_s digits: 5000 fits one, 2*10^4 needs two; past 29780 the
    # counts outgrow 64 bits
    for n_max in (5000, DIGEST_N, 10 ** 5):
        table = build(n_max)
        assert type(table.counts) is list
        assert all(type(c) is int for c in table.counts)


@pytest.mark.parametrize("build, expected", [(count_s_partitions_table, S_DIGEST),
                                             (count_binary_partitions_table, B_DIGEST)])
def test_table_digest_pinned(build, expected):
    assert _digest(build(DIGEST_N).counts) == expected


def test_brute_force_examples():
    assert brute_force_count(0) == 1
    assert brute_force_count(3) == 2      # {3}, {1,1,1}
    assert brute_force_count(9) == 5
    # the docstring's limit, written out: a smaller BRUTE_FORCE_LIMIT
    # would reject it
    assert brute_force_count(300) == 87977


def test_brute_force_shares_no_code_with_the_builder(table500, monkeypatch):
    def unavailable(*args):
        raise AssertionError("the oracle called the builder's DP")

    monkeypatch.setattr(counting, "_dp_blocks", unavailable)
    assert [brute_force_count(n) for n in range(121)] == table500.counts[:121]


def test_brute_force_rejects_oracle_misuse():
    with pytest.raises(DomainError):
        brute_force_count(301)
    with pytest.raises(DomainError):
        brute_force_count(-1)


def test_dp_matches_brute_force_to_120(table500):
    for n in range(121):
        assert table500[n] == brute_force_count(n), n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=0, max_value=BRUTE_FORCE_LIMIT))
def test_dp_matches_brute_force_property(table500, n):
    # table500 is session-scoped, so hypothesis may share it across examples
    expected = brute_force_count(n)
    assert table500[n] == expected
    assert count_s_partitions_table(n)[n] == expected


def test_counts_nondecreasing(table500):
    for n in range(1, 501):
        assert table500[n] >= table500[n - 1]


def test_table_bounds():
    table = count_s_partitions_table(10)
    assert table[0] == 1 and table[10] == 6
    assert table.ln(0) == 0.0 and table.ln(10) == math.log(6)
    # non-int and bool indices too: a float index fails inside the list
    # lookup, and True would read counts[1]
    for n in (-1, 11, 1000, 2.0, 2.5, True, False):
        with pytest.raises(DomainError):
            table[n]
        with pytest.raises(DomainError):
            table.ln(n)


def test_table_shape_is_checked():
    # a table whose counts miss entries below n_max would raise IndexError
    # at t[3] and t.ln(3)
    for n_max, counts, parts in (
        (5, [1], "mersenne"), (1, [1, 1, 2], "binary"), (2, (1, 1, 2), "mersenne"),
        (-1, [], "mersenne"), (True, [1, 1], "mersenne"), (1.0, [1, 1], "binary"),
        (1, [1, 1], "powers"), (1, [1, 1], None),
    ):
        with pytest.raises(DomainError):
            CountTable(n_max, counts, parts)
    assert CountTable(1, [1, 1], "binary")[1] == 1


def test_table_repr_is_short():
    # the repr names the table, not its 10^5 counts (2.3 MB)
    text = repr(count_s_partitions_table(10 ** 5))
    assert text == "CountTable(n_max=100000, parts='mersenne')"


def test_binary_small_values(binary500):
    assert binary500[0] == 1
    assert binary500[4] == 4          # {4},{2,2},{2,1,1},{1,1,1,1}
    assert binary500[10] == 14
    assert binary500.counts[:11] == [1, 1, 2, 2, 4, 4, 6, 6, 10, 10, 14]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, DIGEST_N, DIGEST_N + 1]
                         + [(1 << k) + d for k in range(2, 13) for d in (-1, 0, 1)
                            if (1 << k) + d > 3]
                         + [24574, 24575, 24576])
def test_binary_table_matches_powers_of_two_dp(n_max):
    # the prefix-sum blocks against an independent route, the unbounded DP
    # over the parts 1 << k.  The doubling blocks end at b(2^k - 1), so
    # n_max = 2^k - 1 ends a block and 2^k, 2^k + 1 end one and two entries
    # into the next; the first block that the 4096-sum cap shortens ends at
    # b(24575)
    expected = _loop_dp(n_max, _powers_of_two_upto(n_max))
    assert count_binary_partitions_table(n_max).counts == expected


@pytest.mark.parametrize("n_max", [DIGEST_N, DIGEST_N + 1])
def test_binary_pairs_share_one_int(n_max):
    # b(2m + 1) = b(2m): the table stores that count once
    b = count_binary_partitions_table(n_max).counts
    assert all(b[2 * m] is b[2 * m + 1] for m in range((n_max + 1) // 2))


def test_binary_table_cost():
    # n_max/2 additions of ints of at most 141 bits at 10^6: well under 0.3 s
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        count_binary_partitions_table(10 ** 6)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.3


def test_s_table_cost():
    # a 10^5 build, with room for a host that drifts
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        count_s_partitions_table(10 ** 5)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.1


def test_binary_recurrence(binary500):
    # classical: b(2m) = b(2m-1) + b(m), b(2m+1) = b(2m), so b(2m) is the
    # prefix sum b(0) + ... + b(m)
    b = binary500.counts
    for n in range(1, 501):
        if n % 2 == 0:
            assert b[n] == b[n - 1] + b[n // 2], n
            assert b[n] == sum(b[:n // 2 + 1]), n
        else:
            assert b[n] == b[n - 1], n


def test_ln_count_small():
    assert ln_count(1) == 0.0
    assert abs(ln_count(87977) - math.log(87977)) < 1e-13


def test_ln_count_huge():
    value = 3 ** 2000
    assert abs(ln_count(value) - 2000 * math.log(3)) < 1e-10 * 2000


@settings(max_examples=200, deadline=None)
@given(v=st.integers(min_value=2, max_value=20_000).flatmap(
    lambda bits: st.integers(min_value=max(2, 1 << (bits - 1)), max_value=(1 << bits) - 1)))
def test_ln_count_matches_mpmath_property(v):
    with mpmath.workdps(40):
        ref = mpmath.log(mpmath.mpf(v))
        assert abs(mpmath.mpf(ln_count(v)) - ref) <= 1e-15 * ref


def test_ln_count_matches_its_general_expression():
    # ln_count is math.log of the int, bit for bit, on every size from
    # table entries and the 64-bit edge up to 10^4 bits
    rng = random.Random(11)
    values = (count_s_partitions_table(DIGEST_N).counts
              + count_binary_partitions_table(DIGEST_N).counts
              + [rng.getrandbits(rng.randrange(1, 10_001)) | 1 for _ in range(2000)]
              + [(1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 1])
    for v in values:
        assert ln_count(v) == math.log(v), v


def test_ln_count_domain():
    with pytest.raises(DomainError):
        ln_count(0)


def test_negative_inputs_rejected():
    # and non-int sizes, which would otherwise fail inside bit_length or
    # np.zeros, or pass the range test and give an answer
    for call, arg in [
        (count_s_partitions_table, -1),
        (count_binary_partitions_table, -2),
        (count_binary_partitions_table, -1),
        (count_s_partitions_table, 10.0),
        (count_binary_partitions_table, 10.0),
        (count_binary_partitions_table, 8.0),
        (brute_force_count, 3.0),
        (ln_count, 2.5),
        (ln_count, 4.0),
    ]:
        with pytest.raises(DomainError):
            call(arg)


def test_tables_stop_at_the_exact_limit():
    # refused before anything is allocated: at 2^40 numpy would raise
    # MemoryError and the binary list would grow until memory ran out
    for n_max in (MAX_EXACT_N + 1, 2 ** 40):
        for build in (count_s_partitions_table, count_binary_partitions_table):
            start = time.perf_counter()
            with pytest.raises(DomainError):
                build(n_max)
            assert time.perf_counter() - start < 0.1


def test_bool_table_size_rejected():
    # bool is an int subclass; True would otherwise build a table with n_max True
    for build in (count_s_partitions_table, count_binary_partitions_table,
                  brute_force_count, ln_count):
        for flag in (True, False):
            with pytest.raises(DomainError):
                build(flag)
