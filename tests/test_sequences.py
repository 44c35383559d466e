from fractions import Fraction

import pytest

from reinhardt import (
    DegenerateInputWarning,
    compact_count,
    format_ratio,
    growth_sequence,
    lemma,
    noncompact_count,
    ratio_table,
)
from reinhardt.sequences import _growth_walk

# frozen by evaluating the five inductive rules by hand
REACH_0_TO_10 = [0, 1, 4, 5, 10, 13, 14, 21, 30, 35, 46]
THRESHOLD_0_TO_10 = [2, 3, 5, 6, 9, 11, 12, 16, 21, 24, 30]
ANCHOR_1_TO_19 = [0, 0, 1, 1, 2, 3, 3, 3, 4, 4, 5, 6, 6, 6, 6, 7, 7, 7, 7]


class TestGrowthSequence:
    def test_base_cases(self):
        rows = growth_sequence(1)
        assert rows[0].reach == 0 and rows[0].anchor is None
        assert rows[1].anchor == 0

    def test_hand_evaluated_rows(self):
        rows = growth_sequence(19)
        assert [r.reach for r in rows[:11]] == REACH_0_TO_10
        assert [r.threshold for r in rows[:11]] == THRESHOLD_0_TO_10
        assert [r.anchor for r in rows[1:]] == ANCHOR_1_TO_19
        assert rows[2].threshold == Fraction(5)
        assert rows[5].anchor == 2

    def test_anchor_18(self):
        assert growth_sequence(18)[18].anchor == 7

    def test_anchors_equal_direct_fraction_scan(self):
        rows = growth_sequence(2000)
        for n in range(1, 2001):
            # anchor(1) = 0 by definition; threshold(0) = 2 > 1
            kappa = next((k for k in range(n - 1, -1, -1) if rows[k].threshold <= n), 0)
            assert rows[n].anchor == kappa, n

    def test_reach_plus_n_strictly_increases_to_20000(self):
        # the forward anchor walk in growth_sequence is exact only because
        # of this: the kappa with threshold(kappa) <= n form a prefix
        rows = growth_sequence(20000)
        keys = [r.reach + r.n for r in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_walk_equals_the_memoized_search_to_a_million(self):
        # the walk that feeds on a walk behind it, against lemma.reach, the
        # gallop and bisection that shares no code with it: every n to 2000,
        # then a grid of step 997 and 10^k - 1 .. 10^k + 1, to n = 10^6
        top = 10**6
        grid = {*range(2001), *range(2001, top, 997), top}
        grid |= {10**k + d for k in range(4, 6) for d in (-1, 0, 1)}
        reach = lemma.reach
        reach.cache_clear()
        seen = 0
        for n, (f, k) in zip(range(top + 1), _growth_walk()):
            if n in grid:
                assert f == reach(n), n
                if n:  # k is the last kappa in [0, n) with reach(kappa) + kappa + 4 <= 2n
                    assert k == 0 or reach(k) + k + 4 <= 2 * n, n
                    assert k + 1 == n or reach(k + 1) + k + 5 > 2 * n, n
                seen += 1
        reach.cache_clear()
        assert (seen, n) == (len(grid), top)

    def test_parity_and_monotone_anchor(self):
        rows = growth_sequence(300)
        for row in rows:
            assert (row.reach - row.n) % 2 == 0
        anchors = [r.anchor for r in rows[1:]]
        assert all(a <= b for a, b in zip(anchors, anchors[1:]))

    def test_reach_at_least_2n_from_4(self):
        rows = growth_sequence(300)
        assert all(r.reach >= 2 * r.n for r in rows[4:])

    def test_guaranteed_interval_inside_set(self, table64):
        for row in growth_sequence(64):
            span = (row.reach - row.n) // 2
            mask = (1 << (span + 1)) - 1
            assert table64.sets[row.n].bits & mask == mask

    def test_compact_count_lower_bound(self, table64):
        rows = growth_sequence(64)
        for n in range(2, 65):
            assert compact_count(table64, n) >= (rows[n].reach - n) // 2


class TestRatioFormatting:
    def test_exact_values(self):
        assert format_ratio(117, 400) == "0.2925"
        assert format_ratio(537, 1600) == "0.3356"
        assert format_ratio(1, 4) == "0.2500"
        assert format_ratio(81, 100) == "0.8100"

    def test_round_half_to_even(self):
        assert format_ratio(753, 800) == "0.9412"  # .94125 -> even stays
        assert format_ratio(15, 100000) == "0.0002"  # .00015 -> even rounds up
        assert format_ratio(5, 100000) == "0.0000"  # .00005 -> even stays

    def test_carry_into_integer_part(self):
        assert format_ratio(99995, 100000) == "1.0000"
        assert format_ratio(3, 1) == "3.0000"


class TestRatioTable:
    def test_row_n4(self, table64):
        row = ratio_table(table64, [4])[0]
        assert (row.compact, row.compact_ratio) == (4, "0.2500")
        assert (row.noncompact, row.noncompact_ratio) == (1, "0.2500")

    def test_reference_counts_at_20_and_40(self, table64):
        r20, r40 = ratio_table(table64, [20, 40])
        assert (r20.compact, r20.noncompact) == (117, 11)
        assert (r40.compact, r40.noncompact) == (537, 31)
        assert r40.compact_ratio == "0.3356"
        assert r40.noncompact_ratio == "0.7750"

    def test_edge_row_omits_noncompact(self, table64):
        row = ratio_table(table64, [64])[0]
        assert row.noncompact is None and row.noncompact_ratio is None

    def test_rows_read_the_count_functions(self, table64):
        with pytest.warns(DegenerateInputWarning):
            rows = ratio_table(table64, list(range(-1, 67)))
        assert [r.n for r in rows] == list(range(2, 65))
        for r in rows:
            assert r.compact == compact_count(table64, r.n)
            assert r.noncompact == (noncompact_count(table64, r.n) if r.n < 64 else None)

    def test_out_of_range_skipped_with_notice(self, table64):
        with pytest.warns(DegenerateInputWarning):
            rows = ratio_table(table64, [1, 4, 100])
        assert [r.n for r in rows] == [4]
