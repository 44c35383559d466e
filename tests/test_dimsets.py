
import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from math import isqrt

import pytest
from conftest import oracle_step, step_build

from reinhardt import (
    DegenerateInputWarning,
    DimSet,
    DimTable,
    build_table,
    compact_count,
    dimensions_bruteforce,
    is_realizable,
    noncompact_count,
    noncompact_set,
    smooth_bounded_sets,
    square_sums_bruteforce,
    two_block_dimensions,
)
from reinhardt import dimsets, lemma, sequences
from reinhardt.classify import _member
from reinhardt.cli import BUILD_LIMIT
from reinhardt.dimsets import (
    _step,
    _stepped,
    full_set_limit,
    marked_set_rows,
    set_bit_length,
)
from reinhardt.partitions import iter_partition_tuples, iter_square_sums
from reinhardt.sequences import _growth_walk, growth_sequence


class TestDimSet:
    def test_round_trip_membership(self):
        s = DimSet.from_values(4, [4, 6, 16])
        assert 6 in s and 8 not in s and 5 not in s and 100 not in s
        assert list(s.values()) == [4, 6, 16]
        assert len(s) == 3

    @pytest.mark.parametrize("n", [400, 401])
    def test_values_equal_membership_scan(self, n):
        length = set_bit_length(n)
        s = DimSet(n, random.Random(n).getrandbits(length - 1) | 1 << (length - 1))
        assert list(s.values()) == [v for v in range(n, n * n + 1, 2) if v in s]

    @pytest.mark.parametrize(
        "n,bits,low,tail",
        [
            (0, 1, 1, 0),
            (3, 0, 0, 0),
            (3, 0b1011, 2, 0b10),
            (4, 0b1001111, 4, 0b100),
            (4, 0b10, 0, 0b10),
        ],
    )
    def test_normalises_to_run_of_ones_and_tail(self, n, bits, low, tail):
        s = DimSet(n, bits)
        assert (s.low, s.tail, s.bits) == (low, tail, bits)
        assert s == DimSet.from_prefix_tail(n, low, tail)
        assert hash(s) == hash(DimSet.from_prefix_tail(n, low, tail))
        assert len(s) == bits.bit_count()

    @pytest.mark.parametrize("n", [2, 3, 299, 300])
    def test_built_sets_agree_with_their_bits(self, table300, n):
        s = table300.sets[n]
        assert s.low > 1 and s.tail & 1 == 0
        assert DimSet(n, s.bits) == s and len(s) == s.bits.bit_count()
        scan = [v for v in range(n, n * n + 1, 2) if (s.bits >> (v - n) // 2) & 1]
        assert list(s.values()) == scan
        assert [v for v in range(n - 2, n * n + 3) if v in s] == scan

    def test_prefix_tail_refusals(self):
        with pytest.raises(ValueError, match="bit 0"):
            DimSet.from_prefix_tail(4, 2, 0b11)  # not canonical: the run is 4 long
        with pytest.raises(ValueError, match="range"):
            DimSet.from_prefix_tail(4, 6, 0b10)  # 6 + 2 bits, over the 7 of n = 4
        with pytest.raises(ValueError, match="must be non-negative"):
            DimSet.from_prefix_tail(4, -1, 0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DimSet.from_values(4, [5])  # wrong parity
        with pytest.raises(ValueError):
            DimSet.from_values(4, [18])  # above n^2
        with pytest.raises(ValueError):
            DimSet(3, 1 << set_bit_length(3))


class TestBuild:
    def test_small_goldens(self, table64):
        assert table64.sets[4].to_set() == {4, 6, 8, 10, 16}
        assert table64.sets[2].to_set() == {2, 4}
        assert table64.sets[5].to_set() == {5, 7, 9, 11, 13, 17, 25}
        assert table64.sets[0].to_set() == {0}

    def test_counts_small(self, table64):
        assert compact_count(table64, 4) == 4
        assert noncompact_count(table64, 4) == 1
        assert compact_count(table64, 20) == 117
        assert noncompact_count(table64, 20) == 11

    def test_count_range_errors(self, table64):
        with pytest.raises(ValueError, match="2 <= n <= 64"):
            compact_count(table64, 1)
        with pytest.raises(ValueError, match="2 <= n <= 63"):
            noncompact_count(table64, 64)

    def test_n_max_zero(self):
        t = build_table(0)
        assert t.n_max == 0 and t.sets[0].to_set() == {0}
        with pytest.raises(ValueError, match="2 <= n <= 0"):
            compact_count(t, 2)
        with pytest.raises(ValueError, match="2 <= n <= -1"):
            noncompact_count(t, 2)

    def test_deterministic(self):
        a = build_table(30)
        b = build_table(30)
        assert all(x.bits == y.bits for x, y in zip(a.sets, b.sets))

    def test_equals_plain_recurrence_to_1001(self, big_table):
        plain = _plain_recurrence(1001)
        mismatched = [n for n, s in enumerate(big_table.sets) if s.bits != plain[n]]
        assert big_table.n_max == 1001 and mismatched == []
        # the lemma a step starts from: S(n-1) lies in S(n) index for index,
        # so low[n-1] is a run of ones in S(n)
        assert [n for n in range(1, 1002) if plain[n - 1] & ~plain[n]] == []

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3])
    def test_tiny_tables(self, n_max):
        assert [s.bits for s in build_table(n_max).sets] == _plain_recurrence(n_max)

    @pytest.mark.parametrize("k", [0, 1, 7, 64, 299])
    def test_prefix_closed(self, table300, k):
        assert tuple(build_table(k).sets) == table300.sets[: k + 1]

    def test_equals_full_scan_build_to_1500(self):
        low, tail = _full_scan_prefix_tail_sets(1500)
        built = build_table(1500).sets
        mismatched = [
            n for n in range(1501) if DimSet(n, ((tail[n] + 1) << low[n]) - 1) != built[n]
        ]
        assert mismatched == []

    def test_steps_read_only_the_sets_a_table_keeps(self, table4097):
        # J(n) <= 2 isqrt(n) + 5 for 41 < n <= 4096: a step given only
        # S(0..2 isqrt(n) + 5) rebuilds S(n), so S(0..K) covers every step
        table = table4097
        full = [s.bits for s in table.sets[: full_set_limit(4096) + 1]]
        wrong = []
        for n in range(42, 4097):
            reach = table.low[n - 1]
            acc = _step(n, reach, full[: 2 * isqrt(n) + 6])
            low = reach + (acc ^ (acc + 1)).bit_length() - 1
            if (low, reach + acc.bit_count()) != (table.low[n], table.count[n]):
                wrong.append(n)
        assert wrong == []
        assert full_set_limit(4096) == 160 >= 2 * isqrt(4096) + 5

    def test_equals_the_step_build_to_4097(self, table4097):
        # table4097 takes a step at every row (conftest.step_build); the
        # build sizes most rows above K from the small sets' counts
        built = build_table(4097)
        wrong = [
            n
            for n in range(4098)
            if (built.low[n], built.count[n]) != (table4097.low[n], table4097.count[n])
        ]
        # the step of a row it cannot size, less the pieces apart at its
        # top, from low[n - 1] at every n (at n = 2 what is left is one run)
        full = [s.bits for s in table4097.sets[: full_set_limit(4097) + 1]]
        sizes = [0, *accumulate(bits.bit_count() for bits in full)]
        for n in range(1, 4098):
            start = table4097.low[n - 1]
            if _stepped(n, start, full, sizes) != (table4097.low[n], table4097.count[n]):
                wrong.append(n)
        assert wrong == []

    def test_rows_from_any_start_up_to_low(self, table4097, monkeypatch):
        # a row of _rows from any start below which S(n) is whole: r0(n),
        # low[n - 1], low[n] and seeded starts between, at every 9th n past
        # K + 1, against the step build.  Its docstring argues that the
        # start always lies in piece b's run; every row past 471 is sized
        k = full_set_limit(4097)
        full = [s.bits for s in table4097.sets[: k + 1]]
        stepped, real = [], dimsets._stepped
        monkeypatch.setattr(dimsets, "_stepped", lambda n, *args: stepped.append(n) or real(n, *args))
        low, count = table4097.low, table4097.count
        wrong, pairs = [], 0
        for n in range(k + 2, 4098, 9):
            starts = {lemma.r0(n), low[n - 1], low[n]}
            starts.update(random.Random(n).sample(range(min(starts), low[n]), 3))
            for start in starts:
                pairs += 1
                row = dimsets._rows(n, n, full, start)
                if row != ([low[n]], [count[n]]):
                    wrong.append((n, start))
        assert wrong == [] and pairs > 2000
        assert max(stepped) <= 471

    def test_step_carries_the_offsets_from_any_first_piece(self, table4097):
        # _step carries off(n - j) and off(j) from the closed form at
        # ``first``; the oracle reads them from a list.  Both must give the
        # same bits from the same pieces (a late stop reads more, with no
        # change to the bits).  Every first < n to n = 120, and to 4097 the
        # firsts _stepped takes: 0 and its c, from low[n - 1] and from r0(n)
        class Pieces(list):  # records the pieces a step reads
            def __getitem__(self, j):
                self.read.append(j)
                return super().__getitem__(j)

        full = Pieces(s.bits for s in table4097.sets[: full_set_limit(4097) + 1])
        offs = [(d * d - d) // 2 for d in range(4099)]
        wrong = []
        for n in range(1, 4098):
            for start in (table4097.low[n - 1], lemma.r0(n)):
                big = 2 * (n + 2 * start) > n * (n + 1)
                c = (isqrt(8 * n - 3) - 1) // 2 if big else 0
                while c and offs[n - c + 1] < start:
                    c -= 1
                for first in range(n) if n <= 120 else {0, c}:
                    full.read = []
                    got = _step(n, start, full, first), full.read
                    full.read = []
                    if got != (oracle_step(n, start, full, offs, first), full.read):
                        wrong.append((n, start, first))
        assert wrong == []

    def test_the_step_oracle_shares_no_code_with_the_build(self, monkeypatch):
        # conftest.step_build, which makes table4097, takes its own steps
        # and keeps its own S(0..K): with the engine's step gone it still
        # gives the build's table
        built = build_table(300)

        def no_step(*args):
            raise AssertionError("the oracle used the build's step")

        monkeypatch.setattr(dimsets, "_step", no_step)
        assert step_build(300) == built

    def test_builds_without_the_growth_lemma(self, table4097, monkeypatch):
        # lemma.square_sum_counts runs the build's own row loop, from r0 at
        # a window's first row, so comparing the two checks only that start.
        # The build's independent checks are the step build to 4097, the
        # plain recurrence to 1001, the full scan to 1500 and the digests
        def no_lemma(*args):
            raise AssertionError("the build used the growth lemma")

        monkeypatch.setattr(lemma, "reach", no_lemma)
        monkeypatch.setattr(sequences, "_growth_walk", no_lemma)
        assert build_table(4097) == table4097

    @pytest.mark.parametrize(
        "n_max, digest", [(16384, "177c497215831660"), (32768, "d3b404d3e4ace2f4")]
    )
    def test_digests_of_the_step_build(self, n_max, digest):
        # sha256(repr((low, count))) as the step build gave them (482 s at 32768)
        table = build_table(n_max)
        data = repr((list(table.low), list(table.count))).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_a_table_rebuilds_its_sets_and_checks_them(self, table300):
        # the rows are checked when the table is made (test_storage's
        # test_a_wrong_row_fails_when_the_table_is_made); its sets are the build's
        made = DimTable(table300.low, table300.count)
        assert made == table300 and made.sets[:] == table300.sets[:]
        assert len(table300.sets) == 301 and table300.sets[-1] == table300.sets[300]
        with pytest.raises(IndexError):
            table300.sets[301]
        with pytest.raises(ValueError, match="one low and one count"):
            DimTable((1, 1), (1,))

    @pytest.mark.parametrize("n", range(2, 61))
    def test_parts_below_half_stay_below_the_early_stop(self, n):
        # the build's largest-part stop: parts all below n/2 sum to at most
        # n(n-1)/2 (n = 2 has no such partition); marking them adds at most
        # 2n, is_realizable's stop at n(n+3)/2
        biggest = max(iter_square_sums(n, (n - 1) // 2), default=0)
        assert biggest <= n * (n - 1) // 2
        assert biggest + 2 * n <= n * (n + 3) // 2


def _plain_recurrence(n_max: int) -> list[int]:
    """Oracle: S(n) as the OR of every shifted S(n-d) across its full width."""
    bits = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for d in range(1, n + 1):
            acc |= bits[n - d] << ((d * d - d) // 2)
        bits.append(acc)
    return bits


def _full_scan_prefix_tail_sets(n_max: int) -> tuple[list[int], list[int]]:
    """Oracle: the prefix/tail build that visits every part of every n.

    S(n) = ((tail[n] + 1) << low[n]) - 1, where ``low[n]`` is the reach
    (every index below it is set) and ``ones[n]`` the measured run of ones.
    """
    offs = [(d * d - d) // 2 for d in range(n_max + 1)]
    low, tail, ones = [0], [1], [1]  # S(0) = {0}
    for n in range(1, n_max + 1):
        reach = 0
        for off, run in zip(offs[1 : n + 1], reversed(ones)):  # d = 1, 2, ...
            if off > reach:
                break
            end = off + run
            if end > reach:
                reach = end
        cut = bisect_right(offs, reach, 1, n + 1)  # the first d past the gap
        acc = 0
        for off, lo, t in zip(offs[1:cut], reversed(low), reversed(tail)):
            s = off + lo - reach
            acc |= t << s if s >= 0 else t >> -s
        for d in range(cut, n + 1):
            acc |= (((tail[n - d] + 1) << low[n - d]) - 1) << (offs[d] - reach)
        low.append(reach)
        tail.append(acc)
        ones.append(reach + (acc ^ (acc + 1)).bit_length() - 1)
    return low, tail


@pytest.fixture(scope="module")
def table300():
    return build_table(300)


class TestOracle:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_recurrence_equals_enumeration(self, table64, n):
        assert square_sums_bruteforce(n).bits == table64.sets[n].bits

    def test_cardinality_at_20(self):
        assert len(square_sums_bruteforce(20)) == 118

    def test_refusal(self):
        with pytest.raises(ValueError, match="80"):
            square_sums_bruteforce(81)


class TestSetStructure:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_parity_range_and_extremes(self, table64, n):
        values = list(table64.sets[n].values())
        assert all(v % 2 == n % 2 and n <= v <= n * n for v in values)
        assert values[0] == n and values[-1] == n * n
        if n >= 2:
            assert values[-2] == (n - 1) ** 2 + 1

    @pytest.mark.parametrize("n", range(2, 61))
    def test_count_bounds(self, table64, n):
        assert compact_count(table64, n) <= n * (n - 1) // 2
        if n <= 63:
            assert noncompact_count(table64, n) <= n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(1, 64))
    def test_monotone_embedding_into_successor(self, table64, n):
        # every set, top value included, sits inside the shifted successor
        bits = table64.sets[n].bits
        succ = table64.sets[n + 1].bits & ~(1 << (set_bit_length(n + 1) - 1))
        assert bits & ~succ == 0


class TestNoncompactSet:
    def test_goldens(self, table64):
        assert noncompact_set(table64, 4).to_set() == {12}
        assert noncompact_set(table64, 3).to_set() == {7}
        # the count identity forces emptiness at n=2, confirmed by the
        # smooth-bounded enumeration below
        assert noncompact_set(table64, 2).to_set() == set()

    @pytest.mark.parametrize("n", range(2, 60))
    def test_cardinality_matches_count(self, table64, n):
        assert len(noncompact_set(table64, n)) == noncompact_count(table64, n)

    def test_cardinality_at_100(self):
        t = build_table(101)
        assert len(noncompact_set(t, 100)) == 81


class TestSmoothBounded:
    def test_golden_n4(self, table64):
        comp, nc = smooth_bounded_sets(4, table64)
        assert comp.to_set() == {4, 6, 8, 10}
        assert nc.to_set() == {12}

    def test_golden_n2(self, table64):
        comp, nc = smooth_bounded_sets(2, table64)
        assert comp.to_set() == {2}
        assert nc.to_set() == set()

    @pytest.mark.parametrize("n", range(2, 26))
    def test_matches_enumeration(self, table64, smooth_bounded_oracle, n):
        comp, nc = smooth_bounded_sets(n, table64)
        bcomp, bnc = smooth_bounded_oracle(n)
        assert comp.to_set() == bcomp
        assert nc.to_set() == bnc

    @pytest.mark.parametrize("n", range(2, 40))
    def test_noncompact_equals_difference_route(self, table64, smooth_bounded_oracle, n):
        # the noncompact set is noncompact_set's difference route; check it
        # against enumeration, not against itself
        _, nc = smooth_bounded_sets(n, table64)
        assert nc.to_set() == smooth_bounded_oracle(n)[1]


class TestMarkedOracle:
    def test_examples(self):
        assert dimensions_bruteforce(4, 2, 0) == {8, 10}
        assert dimensions_bruteforce(4, 2, 2) == {16, 18}
        for n in (3, 6, 11):
            assert dimensions_bruteforce(n, 1, 1) == {n * n + 2 * n}

    def test_degenerate_marks(self):
        with pytest.warns(DegenerateInputWarning):
            assert dimensions_bruteforce(4, 5, 0) == set()
        with pytest.warns(DegenerateInputWarning):
            assert dimensions_bruteforce(4, 2, 3) == set()

    def test_refusal(self):
        with pytest.raises(ValueError, match="80"):
            dimensions_bruteforce(81, 2, 0)


class TestMarkedSetRows:
    def test_capped_rows_equal_enumeration(self):
        # every partition of m with parts <= p, every marking as a subset sum
        rows = marked_set_rows(14)
        for p in range(15):
            for m in range(15):
                expected = 0
                for parts in iter_partition_tuples(m, max_part=p):
                    sums = 1
                    for v in parts:
                        sums |= sums << v
                    expected |= sums << (sum(d * d for d in parts) - m) // 2
                assert rows[p][m] == expected, (p, m)

    @pytest.mark.parametrize("n", [2, 17, 40, 64])
    def test_full_row_equals_realizable(self, n):
        row = marked_set_rows(n)[n][n]
        for dim in range(n, n * n + 2 * n + 1, 2):
            assert bool(row >> (dim - n) // 2 & 1) == is_realizable(n, dim), dim

    def test_refusal(self):
        with pytest.raises(ValueError):
            marked_set_rows(-1)


class TestTwoBlockClosedForm:
    def test_examples(self):
        assert two_block_dimensions(4) == {8, 10, 12, 16, 18}
        assert two_block_dimensions(3) == {5, 7, 9, 11}
        assert two_block_dimensions(2) == {2, 4, 6}

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_oracle(self, n):
        brute = set()
        for q in range(3):
            brute |= dimensions_bruteforce(n, 2, q)
        assert two_block_dimensions(n) == brute


class TestRealizableMembership:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_enumeration(self, n):
        achievable = set()
        for parts in iter_partition_tuples(n):
            base = sum(p * p for p in parts)
            sums = 1
            for v in parts:
                sums |= sums << v
            for s in range(n + 1):
                if (sums >> s) & 1:
                    achievable.add(base + 2 * s)
        for dim in range(n - 3, n * n + 2 * n + 3):
            assert is_realizable(n, dim) == (dim in achievable)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_equals_pair_sumsets_for_every_dim(self, table64, n):
        sets = _PairSumsetOracle(table64, n)
        for dim in range(n - 3, n * n + 2 * n + 3):
            assert is_realizable(n, dim) == sets.realizable(n, dim), dim

    def test_equals_pair_sumsets_near_the_edges(self, big_table):
        rng = random.Random(803)
        sets = _PairSumsetOracle(big_table, 1000)
        for n in (61, 100, 300, 803, 1000):
            edge = n + 2 * big_table.low[n]  # the first value above the prefix
            dims = [*range(edge - 400, edge + 401), *range(n * n - 400, n * n + 2 * n + 1)]
            dims += [edge + 2 * rng.randrange((n * n + 2 * n - edge) // 2 + 1) for _ in range(200)]
            for dim in dims:
                assert is_realizable(n, dim) == sets.realizable(n, dim), (n, dim)

    def test_equals_plain_recurrence_for_every_dim(self, plain_marked):
        for n in range(151):
            for dim in range(n, n * n + 2 * n + 1, 2):
                expected = bool(plain_marked[n] >> (dim - n) // 2 & 1)
                assert _member(n, dim, True) == expected, (n, dim)

    def test_equals_plain_recurrence_near_the_edges(self, plain_marked, table300):
        for n in range(151, 301):
            edge = n + 2 * table300.low[n]  # the first value above the prefix
            dims = [*range(edge - 400, edge + 401, 2), *range(n * n - 400, n * n + 2 * n + 1, 2)]
            for dim in dims:
                expected = bool(plain_marked[n] >> (dim - n) // 2 & 1)
                assert _member(n, dim, True) == expected, (n, dim)

    def test_input_checks(self):
        assert [is_realizable(n, n) for n in (0, 1, 2)] == [True, True, True]
        assert not is_realizable(4, 15) and not is_realizable(4, 25) and is_realizable(4, 24)
        with pytest.raises(ValueError, match="needs 0 <= n"):
            is_realizable(-1, 1)
        # no size limit: the ball's value, reach(n) and n^2 - 2 past 10^8
        for n in (10**8, 10**8 + 1, 10**30, 10**100):
            assert is_realizable(n, n * n + 2 * n), n
            assert is_realizable(n, lemma.reach(n)), n
            assert not is_realizable(n, n * n - 2), n

    def test_values_up_to_half_n_squared_need_no_reach(self, monkeypatch):
        # reach(n) >= n^2/2 past 40, so _member answers them without it:
        # at n = 10^4000 a cold reach(n) would take seconds
        from reinhardt import classify

        def no_reach(n):
            raise AssertionError(f"reach({n}) computed")

        monkeypatch.setattr(classify, "reach", no_reach)
        for n in (81, 1000, 10**8 + 1, 10**4000):
            half = n * n // 2 - (n * n // 2 - n) % 2  # the largest value of n's parity
            for value in (n, n + 2, half - 2, half):
                assert _member(n, value, False) and _member(n, value, True), (n, value)

    def test_fallback_only_below_41(self, table300):
        # above n = 40 the prefix reaches past n(n+3)/2, so every query that
        # passes the prefix takes the largest-part loop
        assert 2 * (40 + 2 * table300.low[40]) <= 40 * 43
        for n in range(41, 301):
            assert 2 * (n + 2 * table300.low[n]) > n * (n + 3), n
        # and on: reach(n) lies in the prefix (the `sequences` suite checks
        # it).  This is the base of _member's proof: reach(n) >= n^2/2 from
        # 41 (it fails at 40) and 2 reach(n) > n(n+3) from 45 (fails at 44)
        assert 2 * lemma.reach(40) < 40**2 and 2 * lemma.reach(44) <= 44 * 47
        for n, (f, _) in zip(range(200_001), _growth_walk()):
            if n >= 41:
                assert 2 * f >= n * n, n
            if n >= 45:
                assert 2 * f > n * (n + 3), n

    def test_anchor_step_equals_the_sequence(self):
        lemma.reach.cache_clear()
        lemma.reach(100_001)  # one query memoizes a few anchors, not every row
        assert lemma.reach.cache_info().currsize < 100
        for n, (f, _) in zip(range(200_001), _growth_walk()):
            assert lemma.reach(n) == f, n
        lemma.reach.cache_clear()

    def test_reach_passes_the_largest_part_bound_on_a_grid(self):
        # the bound _member's proof gives, past its base: on a 1% grid from
        # 10^5 to 10^8, and at seeded n up to 10^100
        n = 100_000
        while n <= 10**8:
            for m in (n, n + 1):
                assert 2 * lemma.reach(m) > m * (m + 3), m
            n += n // 100
        rng = random.Random(41)
        for digits in rng.choices(range(9, 101), k=200):
            m = rng.randrange(10 ** (digits - 1), 10**digits)
            assert 2 * lemma.reach(m) > m * (m + 3), m

    def test_growth_lemma_to_the_build_limit(self, table4097):
        # _member's shortcut: every value up to reach(n) is in S(n), so the
        # index of reach(n) lies in the run of ones below low[n]
        wrong = [
            n for n in range(BUILD_LIMIT + 1) if (lemma.reach(n) - n) // 2 >= table4097.low[n]
        ]
        assert wrong == []

    def test_growth_lemma_to_100000(self):
        # as above, past the build limit, on the build, which uses no lemma
        table = build_table(100_000)
        rows = growth_sequence(100_000)
        wrong = [row.n for row in rows if (row.reach - row.n) // 2 >= table.low[row.n]]
        assert wrong == []

    @pytest.mark.parametrize("n, stride", [(1009, 1), (2003, 1), (4096, 16)])
    def test_largest_part_engines_agree_on_the_tails(self, table4097, n, stride):
        # the build's _step and the query's _member apply the largest-part
        # lemma independently: they must agree on the tail indices of S(n)
        # and of S(n + 1), the noncompact rung
        for m in (n, n + 1):
            s = table4097.sets[m]
            tail = format(s.tail, "b")[::-1]  # bit i is index low + i
            wrong = [
                i
                for i in range(0, len(tail), stride)
                if _member(m, m + 2 * (s.low + i), False) != (tail[i] == "1")
            ]
            assert len(tail) > 50_000 and wrong == [], (m, wrong[:5])


def _plain_marked_recurrence(n_max: int) -> list[int]:
    """Oracle: G(n) as the OR of every G(n-d) shifted by an unmarked or a
    marked block d, (d^2 - d)/2 or (d^2 + d)/2 in index space, across its
    full width."""
    bits = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for d in range(1, n + 1):
            acc |= (bits[n - d] << (d * d - d) // 2) | (bits[n - d] << (d * d + d) // 2)
        bits.append(acc)
    return bits


@pytest.fixture(scope="module")
def plain_marked():
    return _plain_marked_recurrence(300)


class _PairSumsetOracle:
    """The pair-sumset route: marked parts form a partition of some a and
    unmarked ones of n - a, so dim is achievable iff an index of S(a) and
    one of S(n - a) sum to (dim - n)/2 - a, for some a.  Each set is
    reversed once as a string, and a window of it is one shift of that."""

    def __init__(self, table, n_max):
        self.bits = [s.bits for s in table.sets[: n_max + 1]]
        self.rev = [int(format(b, "b")[::-1], 2) for b in self.bits]

    def realizable(self, n, dim):
        if (dim - n) % 2 or dim < n or dim > n * n + 2 * n:
            return False
        half = (dim - n) // 2
        for a in range(n // 2 + 1):
            b = n - a
            top = (a * a - a) // 2 + (b * b - b) // 2  # the indices of a^2 + b^2
            for t in {half - a, half - b}:
                if not 0 <= t <= top:
                    continue
                # bit i of S(a) and bit t - i of S(b): reverse S(b)'s low window
                width = self.bits[b].bit_length()
                window = min(t, width - 1)
                if (self.bits[a] >> (t - window)) & (self.rev[b] >> (width - 1 - window)):
                    return True
        return False
