
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reinhardt import (
    DegenerateInputWarning,
    MarkedPartition,
    Partition,
    arm_count,
    dimension_value,
    distinct_arm_values,
    enumerate_partitions,
    enumerate_partitions_with_length,
    partition_count,
    square_sums_bruteforce,
    sum_of_squares,
)
from reinhardt.partitions import _fixed_length_tuples, iter_partition_tuples, iter_square_sums


def parts_list(n):
    return [p.parts for p in enumerate_partitions(n)]


partitions_st = st.lists(st.integers(1, 12), min_size=1, max_size=10).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True)))
)


class TestEnumeration:
    def test_reverse_lex_order_n4(self):
        assert parts_list(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_trivial_and_empty(self):
        assert parts_list(1) == [(1,)]
        assert parts_list(0) == [()]
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_count_n7(self):
        assert len(parts_list(7)) == 15

    @pytest.mark.parametrize("n", range(0, 31))
    def test_count_matches_pentagonal_recurrence(self, n):
        assert sum(1 for _ in iter_partition_tuples(n)) == partition_count(n)

    def test_stream_is_strictly_decreasing_reverse_lex(self):
        for n in (5, 9, 12):
            seq = parts_list(n)
            assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_max_part_cap_matches_filter(self):
        for n in (6, 9):
            for cap in (1, 2, 4):
                capped = list(iter_partition_tuples(n, cap))
                full = [t for t in iter_partition_tuples(n) if max(t) <= cap]
                assert capped == full

    @pytest.mark.parametrize("n", range(0, 41))
    def test_square_sum_walk_matches_tuples(self, n):
        # the oracle: the recursive fixed-length enumerator, which shares no
        # code with the walk, over every length
        oracle = sorted(
            (t for k in range(1, n + 1) for t in _fixed_length_tuples(n, k, n)), reverse=True
        )
        full = list(iter_partition_tuples(n))
        assert full == (oracle or [()]) and len(full) == partition_count(n)
        for cap in (None, *range(-1, n + 2)):
            tuples = list(iter_partition_tuples(n, cap))
            if cap is not None:
                assert tuples == [t for t in full if not t or t[0] <= cap]
            assert list(iter_square_sums(n, cap)) == [sum(p * p for p in t) for t in tuples]

    def test_square_sum_walk_rejects_negative_n(self):
        with pytest.raises(ValueError):
            list(iter_square_sums(-1))


class TestFixedLength:
    def test_examples(self):
        assert [p.parts for p in enumerate_partitions_with_length(4, 2)] == [(3, 1), (2, 2)]
        assert [p.parts for p in enumerate_partitions_with_length(9, 1)] == [(9,)]

    def test_degenerate_inputs_warn_and_yield_nothing(self):
        with pytest.warns(DegenerateInputWarning):
            assert list(enumerate_partitions_with_length(4, 5)) == []
        with pytest.warns(DegenerateInputWarning):
            assert list(enumerate_partitions_with_length(4, 0)) == []

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_matches_filtered_global_stream(self, n):
        for length in range(1, n + 1):
            direct = [p.parts for p in enumerate_partitions_with_length(n, length)]
            filtered = [t for t in iter_partition_tuples(n) if len(t) == length]
            assert direct == filtered


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((3, 0))
        for parts in ((2.5, 1.5), (2.0, 1), ("2", 1)):
            with pytest.raises(ValueError):
                Partition(parts)
        p = Partition((3, 1))
        assert p.n == 4 and p.length == 2

    def test_marks_validation(self):
        p = Partition((2, 2, 1))
        assert MarkedPartition(p, ((2, 2), (1, 1))).mark_count == 3
        with pytest.raises(ValueError):
            MarkedPartition(p, ((2, 3),))
        with pytest.raises(ValueError):
            MarkedPartition(p, ((5, 1),))
        with pytest.raises(ValueError):
            MarkedPartition(p, ((2, 1), (2, 1)))
        for marks in (((2.0, 1),), ((2, 1.5),), ((2, 1.0),)):
            with pytest.raises(ValueError):
                MarkedPartition(p, marks)

    def test_from_values(self):
        mp = MarkedPartition.from_values(Partition((2, 2, 1)), [2, 2])
        assert mp.marks == ((2, 2),) and mp.marked_sum == 4


class TestStatistics:
    def test_sum_of_squares_examples(self):
        assert sum_of_squares(Partition((3, 1))) == 10
        assert sum_of_squares(Partition((1, 1, 1, 1))) == 4
        for n in (2, 5, 9):
            assert sum_of_squares(Partition((n,))) == n * n

    def test_dimension_value_examples(self):
        assert dimension_value(MarkedPartition.from_values(Partition((4, 1)), [4])) == 25
        assert dimension_value(MarkedPartition.from_values(Partition((2, 2)), [2, 2])) == 16
        ones = Partition((1,) * 6)
        assert dimension_value(MarkedPartition(ones)) == 6

    def test_arm_count_examples(self):
        assert arm_count(Partition((1, 1, 1))) == 0
        assert arm_count(Partition((3, 1))) == 3
        for n in (4, 7):
            assert arm_count(Partition((n,))) == n * (n - 1) // 2

    def test_distinct_arm_values_examples(self):
        assert distinct_arm_values(4) == {0, 1, 2, 3, 6}
        assert distinct_arm_values(1) == {0}
        assert distinct_arm_values(2) == {0, 1}

    def test_distinct_arm_values_rejects_oracle_overflow(self):
        with pytest.raises(ValueError, match="80"):
            distinct_arm_values(81)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_arm_values_count_equals_square_sum_set_size(self, n):
        assert len(distinct_arm_values(n)) == len(square_sums_bruteforce(n))


class TestProperties:
    @given(partitions_st)
    def test_arm_identity(self, p):
        assert 2 * arm_count(p) + p.n == sum_of_squares(p)

    @given(partitions_st)
    def test_zero_marks_is_square_sum(self, p):
        assert dimension_value(MarkedPartition(p)) == sum_of_squares(p)

    @given(partitions_st)
    def test_full_marking_adds_2n(self, p):
        full = MarkedPartition.from_values(p, p.parts)
        assert dimension_value(full) == sum_of_squares(p) + 2 * p.n

    @given(partitions_st, st.data())
    def test_partial_marks_bounded(self, p, data):
        take = data.draw(st.integers(0, p.length))
        mp = MarkedPartition.from_values(p, p.parts[:take])
        assert mp.mark_count == take
        value = dimension_value(mp)
        assert sum_of_squares(p) <= value <= sum_of_squares(p) + 2 * p.n
