import functools

import pytest

import reinhardt.partitions
import reinhardt.verifiers
from reinhardt import (
    verify_arms,
    verify_bounds,
    verify_dp_oracle,
    verify_growth_sequence,
    verify_largest_part,
    verify_noncompact_growth,
    verify_two_block_closed_form,
)
from reinhardt.dimsets import DimSet
from reinhardt.partitions import iter_partition_tuples, iter_square_sums
from reinhardt.verifiers import _max_square_sum


class _WrongTable:
    """A table stand-in that holds its sets as given; a real table refuses
    any row that differs from the build's when it is made."""

    def __init__(self, sets):
        self.sets = sets
        self.low = tuple(s.low for s in sets)
        self.count = tuple(len(s) for s in sets)
        self.n_max = len(sets) - 1


@pytest.fixture(scope="module")
def bad64(table64):
    """The 64-table with the value 60 (index 10) removed from S(40)."""
    s = table64.sets[40]
    return _WrongTable(table64.sets[:40] + (DimSet(40, s.bits & ~(1 << 10)),) + table64.sets[41:])


@pytest.fixture(scope="module")
def square_sums_once():
    """``iter_square_sums`` that walks the partitions of each n once and
    then yields that walk's distinct square sums.  The arms and brute
    oracles both collect what it yields into sets, so either serves the
    other's walk."""
    walk = reinhardt.partitions.iter_square_sums

    @functools.cache
    def distinct(n, max_part=None):
        return frozenset(walk(n, max_part))

    return lambda n, max_part=None: iter(distinct(n, max_part))


@pytest.fixture
def one_walk_per_n(monkeypatch, square_sums_once):
    # `distinct_arm_values` and `square_sums_bruteforce` read the name from
    # `reinhardt.partitions` when they run
    monkeypatch.setattr(reinhardt.partitions, "iter_square_sums", square_sums_once)


class TestBoundsSuite:
    def test_passes_to_30(self):
        report = verify_bounds(2, 30)
        assert report.status == "pass"
        assert report.counterexamples == ()

    def test_refuses_beyond_limit(self):
        with pytest.raises(ValueError, match="40"):
            verify_bounds(2, 41)
        with pytest.raises(ValueError):
            verify_bounds(1, 10)

    def test_known_extremes(self):
        from reinhardt import dimensions_bruteforce

        # three blocks at n=4: only (2,1,1); fully marked it attains the
        # (n-k+1)^2+k-1+2n bound at 14 and stays below n^2 = 16
        three_block = set()
        for q in range(4):
            three_block |= dimensions_bruteforce(4, 3, q)
        assert max(three_block) == 14 < 16
        # two marked blocks of (4,1) at n=5 attain n^2+2 = 27
        assert max(dimensions_bruteforce(5, 2, 2)) == 27


def _per_class_bounds(n, states):
    """The bounds suite's check of every partition class by class, as it
    ran before it checked only each partition's extremes: the oracle for
    the failure path.  ``states`` holds (square sum, parts) pairs."""
    ces = []
    nn = n * n
    for base, parts in states:
        k = len(parts)
        if (base - n) % 2:
            ces.append((n, base, f"parity violated by partition {parts}"))
        cap = (n - k + 1) ** 2 + k - 1
        largest = 0
        smallest = 0
        for q in range(k + 1):
            if q:
                largest += parts[q - 1]
                smallest += parts[k - q]
            lo_val = base + 2 * smallest
            hi_val = base + 2 * largest
            if lo_val < n:
                ces.append((n, lo_val, f"below n via {parts} with {q} marks"))
            if k >= 2 and hi_val > nn + 2:
                ces.append((n, hi_val, f"exceeds n^2+2 via {parts} with {q} marks"))
            if q == 0 and hi_val > cap:
                ces.append((n, hi_val, f"unmarked value exceeds (n-k+1)^2+k-1 via {parts}"))
            if hi_val > cap + 2 * n:
                ces.append(
                    (n, hi_val, f"exceeds (n-k+1)^2+k-1+2n via {parts} with {q} marks")
                )
            if n >= 4 and k >= 3 and hi_val >= nn:
                ces.append((n, hi_val, f"reaches n^2 with {k} >= 3 blocks via {parts}"))
    return ces


class TestBoundsFailurePath:
    @pytest.mark.parametrize(
        "n,index,delta",
        [
            (9, 5, 1),  # odd: parity, and the run above it
            (9, 0, 4),  # (9,) above n^2 + 2 once marked, and above its cap
            (12, 40, -60),  # below n
            (14, 100, 2 * 14 * 14),  # every upper bound
            (3, 2, 2),  # (1, 1, 1) at n = 3, below the n^2 bound's range
        ],
    )
    def test_names_what_the_per_class_check_names(self, monkeypatch, n, index, delta):
        walk = reinhardt.verifiers._walk
        seen = {}

        def walk_with_a_corrupt_state(m, max_part=None):
            states = seen.setdefault(m, [])
            for i, (total, big, ones) in enumerate(walk(m, max_part)):
                states.append((total, tuple(big) + (1,) * ones))
                yield total, big, ones
                if (m, i) == (n, index):  # the same partition again, its sum off
                    states.append((total + delta, states[-1][1]))
                    yield total + delta, big, ones

        monkeypatch.setattr(reinhardt.verifiers, "_walk", walk_with_a_corrupt_state)
        report = verify_bounds(2, 14)
        expected = [ce for m in range(2, 15) for ce in _per_class_bounds(m, seen[m])]
        assert expected and report.status == "fail"
        assert list(report.counterexamples) == expected
        assert {m for m, _, _ in expected} == {n}


class TestLargestPartSuite:
    def test_passes_7_to_40(self, table64):
        report = verify_largest_part(7, 40, table64)
        assert report.status == "pass"

    def test_hypothesis_range_enforced(self):
        with pytest.raises(ValueError, match=r"need 7 <= n_lo <= n_hi, got \(6, 10\)"):
            verify_largest_part(6, 10)

    def test_refusal_names_the_suite_as_the_cli_does(self):
        # as `verify --suite lemma-largest --max-n 61` prints it
        with pytest.raises(ValueError) as err:
            verify_largest_part(7, 61)
        assert str(err.value) == "lemma-largest suite is limited to n <= 60, got 61"

    @pytest.mark.parametrize("n", range(0, 41))
    def test_capped_maximum_equals_the_walk(self, n):
        for cap in range(1, n + 2):
            assert _max_square_sum(n, cap) == max(iter_square_sums(n, cap)), cap

    def test_capped_maximum_n7(self):
        best = max(
            sum(p * p for p in parts) for parts in iter_partition_tuples(7, 3)
        )
        assert best == 19 and 4 * 19 <= 3 * 49


class TestNoncompactGrowthSuite:
    def test_report_only(self, table64):
        report = verify_noncompact_growth(2, 60, table64)
        assert report.status == "report-only"
        assert "skipped" in report.notes
        # n=2 admits no k >= 1: (1+3+1)/2 > 2
        assert "1 row(s)" in report.notes

    def test_anchor_selection(self):
        from reinhardt.verifiers import _growth_anchor_index

        assert _growth_anchor_index(20) == 4  # 14.5 <= 20 < 20.5
        assert _growth_anchor_index(2) is None
        assert _growth_anchor_index(3) == 1

    def test_anchor_closed_form_equals_the_search(self):
        from reinhardt.verifiers import _growth_anchor_index

        # the largest k >= 1 with k^2 + 3k + 1 <= 2n, by the linear search
        # carried from one n to the next
        k, candidate = None, 1
        for n in range(10**5 + 1):
            while candidate * candidate + 3 * candidate + 1 <= 2 * n:
                k, candidate = candidate, candidate + 1
            assert _growth_anchor_index(n) == k, n


class TestArmsSuite:
    def test_passes(self, table64):
        report = verify_arms(1, 30, table64)
        assert report.status == "pass"
        assert "plus one" in report.notes

    def test_fails_on_a_wrong_table(self, bad64, one_walk_per_n):
        report = verify_arms(1, 64, table=bad64)
        assert report.status == "fail"
        assert [n for n, _, _ in report.counterexamples] == [40]


class TestDpOracleSuite:
    def test_passes(self, table64):
        assert verify_dp_oracle(1, 30, table64).status == "pass"

    def test_fails_on_a_wrong_table(self, bad64, one_walk_per_n):
        report = verify_dp_oracle(1, 64, table=bad64)
        assert report.status == "fail"
        assert [ce[:2] for ce in report.counterexamples] == [(40, 60)]

    def test_refuses_beyond_limit_before_any_work(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"called with n={n}")

        monkeypatch.setattr(reinhardt.verifiers, "square_sums_bruteforce", fail)
        monkeypatch.setattr(reinhardt.verifiers, "build_table", fail)
        with pytest.raises(ValueError, match="n <= 80, got 81"):
            verify_dp_oracle(1, 81)


class TestTwoBlockSuite:
    def test_passes(self):
        assert verify_two_block_closed_form(2, 40).status == "pass"

    def test_refuses_beyond_limit_before_any_work(self, monkeypatch):
        def fail(n, length, marks):
            raise AssertionError(f"called with n={n}")

        monkeypatch.setattr(reinhardt.verifiers, "dimensions_bruteforce", fail)
        with pytest.raises(ValueError, match="prop7 suite is limited to n <= 80, got 81"):
            verify_two_block_closed_form(2, 81)


class TestGrowthSequenceSuite:
    def test_passes(self, table64):
        report = verify_growth_sequence(64, table64)
        assert report.status == "pass"

    def test_fails_on_a_wrong_table(self, bad64):
        report = verify_growth_sequence(64, table=bad64)
        assert report.status == "fail"
        assert [ce[:2] for ce in report.counterexamples] == [(40, 60)]

    def test_refuses_an_empty_range(self):
        with pytest.raises(ValueError, match=r"^n_max must be positive, got 0$"):
            verify_growth_sequence(0)


class TestTableLimit:
    def test_a_covering_table_runs_past_the_limit(self, monkeypatch, table64):
        def no_build(n_max):
            raise AssertionError(f"built to n={n_max}")

        monkeypatch.setattr(reinhardt.verifiers, "TABLE_MAX_N", 40)
        monkeypatch.setattr(reinhardt.verifiers, "build_table", no_build)
        assert verify_growth_sequence(64, table64).status == "pass"
        assert verify_noncompact_growth(2, 63, table64).status == "report-only"
        # without one, a table past the limit is refused before it is built
        for suite, args in ((verify_growth_sequence, (41,)), (verify_noncompact_growth, (2, 40))):
            with pytest.raises(ValueError, match="suites build tables to n=40, this one needs n=41"):
                suite(*args)


class TestReportShape:
    def test_deterministic_modulo_elapsed(self, table64):
        a = verify_arms(1, 12, table64)
        b = verify_arms(1, 12, table64)
        strip = lambda r: r._replace(elapsed=0.0)
        assert strip(a) == strip(b)

    def test_pass_iff_no_counterexamples(self, table64):
        for report in (
            verify_bounds(2, 12),
            verify_largest_part(7, 12, table64),
            verify_arms(1, 12, table64),
            verify_dp_oracle(1, 12, table64),
            verify_two_block_closed_form(2, 12),
            verify_growth_sequence(12, table64),
        ):
            assert (report.status == "fail") == bool(report.counterexamples)
            assert report.status in ("pass", "fail")
