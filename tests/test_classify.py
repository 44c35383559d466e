import random
from itertools import product
from math import isqrt

import pytest

from reinhardt import (
    classify_dimension,
    dimension_value,
    make_witness,
    n_squared_families,
    realizations,
)
from reinhardt.dimsets import MARKED_ORACLE_MAX_N, marked_set_rows
from reinhardt.lemma import reach
from reinhardt.partitions import iter_partition_tuples, partition_count


def _omega_values(n):
    out = set()
    for parts in iter_partition_tuples(n):
        base = sum(p * p for p in parts)
        sums = 1
        for v in parts:
            sums |= sums << v
        s = 0
        while sums:
            if sums & 1:
                out.add(base + 2 * s)
            sums >>= 1
            s += 1
    return out


def _oracle_realizations(n, mode):
    """dim -> realization tuples of n, by full enumeration.

    Every partition times every per-value mark count vector, sorted by
    (mark count, parts, negated counts per distinct value descending).
    """
    by_dim = {}
    for parts in iter_partition_tuples(n):
        vals = sorted(set(parts), reverse=True)
        base = sum(p * p for p in parts)
        for counts in product(*(range(parts.count(v) + 1) for v in vals)):
            dim = base + 2 * sum(v * c for v, c in zip(vals, counts))
            marks = sum(counts)
            if mode == "smooth_bounded" and (marks > 1 or len(parts) < 2 or dim > n * n - 2):
                continue
            key = (marks, parts, tuple(-c for c in counts))
            marked = tuple((v, c) for v, c in zip(vals, counts) if c)
            by_dim.setdefault(dim, []).append((key, (parts, marked, len(parts), marks)))
    return {dim: [real for _, real in sorted(found)] for dim, found in by_dim.items()}


class TestLadderGoldens:
    def test_ball(self):
        c = classify_dimension(5, 35)
        assert c.status == "ball"
        assert c.families[0].tag == "Ball"
        assert any(r.marked.partition.parts == (5,) and r.mark_count == 1 for r in c.realizations)

    def test_ball_times_disc(self):
        c = classify_dimension(5, 27)
        assert c.status == "ball_times_disc"
        assert c.families[0].tag == "BallTimesDisc"

    def test_n_squared_families_n4(self):
        c = classify_dimension(4, 16)
        assert c.status == "n_squared"
        assert "ProductB2B2" in {f.tag for f in c.families}

    def test_n_squared_families_n3(self):
        c = classify_dimension(3, 9)
        assert c.status == "n_squared"
        assert "Polydisc3" in {f.tag for f in c.families}

    def test_noncompact_good(self):
        c = classify_dimension(4, 12)
        assert c.status == "noncompact_good"
        assert c.realizations

    def test_general_only(self):
        c = classify_dimension(4, 14)
        assert c.status == "general_only"
        # 14 needs every part of (2,1,1) marked
        assert [r.mark_count for r in c.realizations] == [3]

    def test_unrealizable_parity(self):
        c = classify_dimension(4, 15)
        assert c.status == "unrealizable"
        assert "parity" in c.notes

    def test_compact_bad(self):
        assert classify_dimension(4, 8).status == "compact_bad"
        assert classify_dimension(2, 2).status == "compact_bad"

    def test_gap_and_range_notes(self):
        assert classify_dimension(5, 29).status == "unrealizable"
        assert classify_dimension(5, 3).status == "unrealizable"
        assert classify_dimension(5, 37).status == "unrealizable"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classify_dimension(1, 3)
        # the membership rung answers at any n, at n + 1 too
        assert classify_dimension(64, 64).status == "compact_bad"
        for n in (10**8, 10**8 + 1, 10**30, 10**100):
            assert classify_dimension(n, n * n - 2).status == "unrealizable", n
            assert classify_dimension(n, reach(n)).status == "compact_bad", n
        # values decided by n alone answer at any n
        big = 10**12
        assert classify_dimension(big, big * big + 2 * big).status == "ball"
        assert classify_dimension(64, 64 * 66).status == "ball"
        assert [classify_dimension(4, d).status for d in (3, 15, 16, 18, 20, 24)] == [
            "unrealizable",
            "unrealizable",
            "n_squared",
            "ball_times_disc",
            "unrealizable",
            "ball",
        ]


class TestFamilies:
    def test_counts(self):
        assert len(n_squared_families(3)) == 5
        assert len(n_squared_families(4)) == 5
        assert len(n_squared_families(7)) == 4
        assert {f.tag for f in n_squared_families(7)} == {
            "SphericalShell",
            "Egg",
            "BallFiberedShell",
            "ExpShell",
        }

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            n_squared_families(1)

    def test_parameter_constraints_recorded(self):
        by_tag = {f.tag: f for f in n_squared_families(5)}
        assert any("≠ 0, 2" in p for p in by_tag["Egg"].parameters)
        assert any("R = ∞" in p for p in by_tag["ExpShell"].parameters)


class TestRealizations:
    def test_all_mode_example(self):
        got = [(r.marked.partition.parts, r.mark_count) for r in realizations(4, 16)]
        assert got == [((4,), 0), ((3, 1), 1), ((2, 2), 2)]
        marks = realizations(4, 16)[1].marked.marks
        assert marks == ((3, 1),)

    def test_includes_near_ball_block(self):
        assert any(
            r.marked.partition.parts == (4, 1) and r.marked.marks == ((4, 1),)
            for r in realizations(5, 25)
        )

    def test_smooth_bounded_example_order(self):
        got = [(r.marked.partition.parts, r.marked.marks) for r in realizations(4, 12, "smooth_bounded")]
        assert got == [((2, 2), ((2, 1),)), ((3, 1), ((1, 1),))]

    def test_smooth_bounded_filters(self):
        # 14 is reachable, but only with three marks
        assert realizations(4, 14, "smooth_bounded") == []
        assert [r.mark_count for r in realizations(4, 14)] == [3]
        # above n^2-2 the smooth-bounded list is empty by definition
        assert realizations(4, 16, "smooth_bounded") == []

    def test_values_recompute(self):
        for dim in (10, 12, 14, 16, 24):
            for r in realizations(4, dim):
                assert dimension_value(r.marked) == dim

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            realizations(4, 10, "bogus")
        with pytest.raises(ValueError, match="80"):
            realizations(81, 100)


class TestWitness:
    def test_one_marked_block(self):
        r = realizations(4, 12, "smooth_bounded")[0]
        w = make_witness(r)
        assert w.inequality == "|z¹|²+|z²|⁴<1"
        assert w.claimed_dimension == 12
        assert w.construction == "marked_egg"
        assert w.blocks == ((2, 1), (2, 2))

    def test_unmarked_egg(self):
        r = realizations(4, 10, "smooth_bounded")[0]
        w = make_witness(r)
        assert w.inequality == "|z¹|⁴+|z²|⁶<1"
        assert w.claimed_dimension == 10
        assert w.construction == "egg"

    def test_all_ones_egg(self):
        r = [x for x in realizations(4, 4) if x.mark_count == 0][0]
        w = make_witness(r)
        assert w.inequality == "|z¹|⁴+|z²|⁶+|z³|⁸+|z⁴|¹⁰<1"
        assert w.claimed_dimension == 4

    def test_refusals(self):
        r14 = realizations(4, 14)[0]
        with pytest.raises(ValueError, match="two or more"):
            make_witness(r14)
        single = [x for x in realizations(4, 16) if x.length == 1][0]
        with pytest.raises(ValueError, match="two blocks"):
            make_witness(single)

    def test_label_present(self):
        w = make_witness(realizations(4, 12, "smooth_bounded")[0])
        assert "not verified" in w.label


class TestExhaustiveness:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_unrealizable_iff_no_realization(self, n):
        achievable = _omega_values(n)
        for dim in range(n - 2, n * n + 2 * n + 3):
            c = classify_dimension(n, dim)
            assert (c.status == "unrealizable") == (dim not in achievable), (n, dim)
            assert bool(c.realizations) == (dim in achievable), (n, dim)

    @pytest.mark.parametrize("n", range(31, 41))
    def test_status_sweep_large_n(self, n):
        # statuses against the independent oracle for every dim; the full
        # realization lists (millions of records here) are spot-checked
        # around the structural boundaries instead
        achievable = _omega_values(n)
        for dim in range(n - 2, n * n + 2 * n + 3):
            c = classify_dimension(n, dim, include_realizations=False)
            assert (c.status == "unrealizable") == (dim not in achievable), (n, dim)
        probes = list(range(n - 2, n + 20)) + list(range(n * n - 40, n * n + 2 * n + 3))
        probes += list(range(n + 20, n * n - 40, 97))
        for dim in probes:
            assert bool(realizations(n, dim)) == (dim in achievable), (n, dim)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_trichotomy_above_gap(self, n):
        high = {v for v in _omega_values(n) if v > n * n - 2}
        assert high == {n * n, n * n + 2, n * n + 2 * n}

    @pytest.mark.parametrize("n", range(1, 27))
    def test_mark_solver_equals_subset_sum_bitsets(self, n):
        # the markings realizations() finds over every dim against an
        # independent bitset subset-sum route: each partition reaches
        # exactly its subset sums, and each marking sums to its target
        targets = {}
        for dim in range(n, n * n + 2 * n + 1, 2):
            for r in realizations(n, dim):
                parts = r.marked.partition.parts
                target = (dim - sum(p * p for p in parts)) // 2
                assert r.marked.marked_sum == target, (parts, r.marked.marks, dim)
                targets.setdefault(parts, set()).add(target)
        assert len(targets) == partition_count(n)
        for parts in iter_partition_tuples(n):
            sums = 1
            for v in parts:
                sums |= sums << v
            assert targets[parts] == {t for t in range(n + 1) if (sums >> t) & 1}, parts

    @pytest.mark.parametrize("mode", ["all", "smooth_bounded"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_realizations_equal_enumeration_oracle(self, n, mode):
        # list for list and in order, against every partition times every
        # mark count vector, over the whole value range and past both ends
        oracle = _oracle_realizations(n, mode)
        for dim in range(n - 2, n * n + 2 * n + 3):
            got = [
                (r.marked.partition.parts, r.marked.marks, r.length, r.mark_count)
                for r in realizations(n, dim, mode)
            ]
            assert got == oracle.get(dim, []), (n, dim, mode)

    @pytest.mark.parametrize("n", range(2, 26))
    def test_status_partition_below_gap(self, n):
        # compact and noncompact never overlap and exhaust the smooth-
        # bounded values; general_only values admit no mark count <= 1
        for dim in range(n, n * n - 1, 2):
            c = classify_dimension(n, dim)
            min_marks = min((r.mark_count for r in c.realizations), default=None)
            if c.status == "compact_bad":
                assert min_marks == 0
            elif c.status == "noncompact_good":
                assert min_marks == 1
            elif c.status == "general_only":
                assert min_marks is not None and min_marks >= 2
            else:
                assert c.status == "unrealizable" and min_marks is None


class TestLargeN:
    def test_realizations_skipped_above_oracle_scale(self):
        c = classify_dimension(100, 100 * 100 - 2 * 50)
        assert c.realizations == ()
        assert "skipped" in c.notes

    @pytest.mark.parametrize("dim, status", [(72892, "general_only"), (75056, "unrealizable")])
    def test_query_builds_no_set_above_the_base(self, monkeypatch, dim, status):
        from reinhardt import classify, dimsets, lemma

        stepped, built = [], []

        def step(n, *args):
            stepped.append(n)
            return real_step(n, *args)

        def build(k):
            built.append(k)
            return real_build(k)

        real_step, real_build = dimsets._step, lemma._small_sets
        monkeypatch.setattr(dimsets, "_step", step)  # lemma's steps go through dimsets too
        monkeypatch.setattr(classify, "_small_sets", build)
        classify._small_squares.cache_clear()  # so the base is built under the patch
        assert classify_dimension(300, dim).status == status
        assert built == [MARKED_ORACLE_MAX_N]
        assert stepped and max(stepped) == MARKED_ORACLE_MAX_N
        stepped.clear()
        assert classify_dimension(300, dim).status == status
        assert (built, stepped) == ([MARKED_ORACLE_MAX_N], [])  # the base is kept

    def test_base_is_the_built_table(self):
        from reinhardt import build_table, classify

        table = build_table(MARKED_ORACLE_MAX_N)
        assert classify._small_squares() == tuple(s.bits for s in table.sets)

    @pytest.mark.parametrize("n, draws", [(10**5, 100), (10**7, 40)])
    def test_partitions_classify_one_sided(self, n, draws):
        # a partition with two or more blocks is compact; with one block
        # marked, below n^2 - 2, compact or noncompact.  Parts are drawn
        # largest first, each within a few sqrt of the rest, so the values
        # land near and above the prefix, where the recursion decides
        rng = random.Random(n)
        for _ in range(draws):
            parts, rest = [], n
            while rest:
                part = rest - rng.randrange(min(rest, 3 * isqrt(rest) + 2))
                if not parts and part == n:
                    continue  # at least two blocks
                parts.append(part)
                rest -= part
            dim = sum(p * p for p in parts)
            assert classify_dimension(n, dim, False).status == "compact_bad", parts
            marked = dim + 2 * rng.choice(parts)
            if marked <= n * n - 2:
                status = classify_dimension(n, marked, False).status
                assert status in ("compact_bad", "noncompact_good"), (parts, marked)


def _table_realizable(table, rows, n, dim):
    """Oracle: dim in G(n) from a built table's measured prefix low[n] and
    the marked rows, by the largest-part split (the table path of the
    classifier before it needed no table)."""
    if (dim - n) % 2 or dim < n or dim > n * n + 2 * n:
        return False
    half = (dim - n) // 2
    if half < table.low[n]:
        return True
    if 2 * dim <= n * (n + 3):
        return bool(rows[n][n] >> half & 1)
    stop = 0
    while 2 * stop <= n and (n - stop) * (n - stop + 2) + stop * (stop + 2) >= dim:
        stop += 1
    assert stop < len(rows)
    for j in range(stop):
        p = n - j
        unmarked = half - (p * p - p) // 2
        for i in (unmarked, unmarked - p):
            if i >= 0 and rows[j][j] >> i & 1:
                return True
    return False


def _table_status(table, rows, sets, n, dim):
    """Oracle: the status of the membership rung from a built table."""
    if dim in sets[n]:
        return "compact_bad"
    if dim + 1 in sets[n + 1]:
        return "noncompact_good"
    if _table_realizable(table, rows, n, dim):
        return "general_only"
    return "unrealizable"


_TABLE_SAMPLE_N = [*range(2, 200), 250, 399, 500, 803, 1000]


class TestTablePath:
    @pytest.mark.parametrize("chunk", range(4))
    def test_equals_the_table_ladder(self, big_table, chunk):
        # every dim within 400 of the prefix edge, the top 400 and 100
        # seeded random ones, for a quarter of the sample each
        rows = marked_set_rows(MARKED_ORACLE_MAX_N)
        for n in _TABLE_SAMPLE_N[chunk::4]:
            sets = {n: big_table.sets[n], n + 1: big_table.sets[n + 1]}
            edge = n + 2 * big_table.low[n]
            dims = {*range(edge - 400, edge + 401, 2), *range(n * n - 400, n * n - 1, 2)}
            rng = random.Random(n)
            dims |= {n + 2 * rng.randrange((n * n - n) // 2) for _ in range(100)}
            for dim in sorted(d for d in dims if n <= d <= n * n - 2):
                got = classify_dimension(n, dim, False).status
                assert got == _table_status(big_table, rows, sets, n, dim), (n, dim)
