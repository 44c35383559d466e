"""Finite-range machine checks of the structural claims.

Each suite scans a range of n and either passes, fails with concrete
counterexamples, or reports observations without a verdict.  Suites that
check proved statements over their hypothesis range are pass/fail;
suites that probe asymptotic statements at finite n are report-only, and
conflating the two would overstate what a finite scan can show.  Every
suite is deterministic: the same range yields the same report (modulo
elapsed time), and every recorded counterexample re-fails on its own.
Before any work a suite refuses a range past its own limit, or one that
needs a table built past n = :data:`TABLE_MAX_N`.  A table passed in is
used as it is: every :class:`~reinhardt.dimsets.DimTable` holds the
build's rows, checked once when it was made.
"""

from __future__ import annotations

import time
from itertools import islice, pairwise
from math import isqrt
from typing import NamedTuple

from .dimsets import (
    MARKED_ORACLE_MAX_N,
    DimTable,
    build_table,
    compact_count,
    dimensions_bruteforce,
    square_sums_bruteforce,
    two_block_dimensions,
)
from .partitions import ORACLE_MAX_N, _walk, distinct_arm_values, iter_partition_tuples
from .sequences import _growth_walk

#: Full-enumeration suites refuse ranges beyond these; the limits are
#: runtime guards (partition counts explode), not mathematical bounds.
BOUNDS_MAX_N = 40
LARGEST_MAX_N = 60
#: The largest table a suite builds: `numh` reads one row past its range.
TABLE_MAX_N = 100_000

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REPORT_ONLY = "report-only"

Counterexample = tuple[int, int, str]


class CheckReport(NamedTuple):
    suite: str
    n_lo: int
    n_hi: int
    status: str
    counterexamples: tuple[Counterexample, ...]
    elapsed: float
    notes: str = ""


def _finish(
    suite: str,
    n_lo: int,
    n_hi: int,
    ces: list[Counterexample],
    started: float,
    *,
    report_only: bool = False,
    notes: str = "",
) -> CheckReport:
    status = STATUS_REPORT_ONLY if report_only else STATUS_FAIL if ces else STATUS_PASS
    return CheckReport(suite, n_lo, n_hi, status, tuple(ces), time.perf_counter() - started, notes)


def _checked(suite: str, n_lo: int, n_hi: int, lowest: int, limit: int | None = None) -> float:
    """Refuse a range outside ``lowest <= n_lo <= n_hi <= limit`` before any
    work; return the suite's start time."""
    if not lowest <= n_lo <= n_hi:
        raise ValueError(f"need {lowest} <= n_lo <= n_hi, got ({n_lo}, {n_hi})")
    if limit is not None and n_hi > limit:
        raise ValueError(f"{suite} suite is limited to n <= {limit}, got {n_hi}")
    return time.perf_counter()


def _ensure_table(table: DimTable | None, n_needed: int) -> DimTable:
    """``table`` if it reaches n_needed, else one built to n <= :data:`TABLE_MAX_N`."""
    if table is not None and table.n_max >= n_needed:
        return table
    if n_needed > TABLE_MAX_N:
        raise ValueError(f"suites build tables to n={TABLE_MAX_N}, this one needs n={n_needed}")
    return build_table(n_needed)


def verify_bounds(n_lo: int, n_hi: int) -> CheckReport:
    """Parity, lower and upper bounds on achievable dimension values.

    For every partition and mark count the achievable values form a run
    between the q smallest and q largest marked parts, and every bound
    checked here is one-sided, so checking the two extremes per class is
    an exhaustive check of the whole class.  Parts are positive, so both
    extremes grow with q: the lower bound holds for every q if it holds
    at q = 0 (the square sum), and the upper bounds if they hold at q = k
    (the square sum plus 2n).  Only a partition that fails there is built
    and checked class by class, which names every failing class.
    """
    started = _checked("bounds", n_lo, n_hi, 2, BOUNDS_MAX_N)
    ces: list[Counterexample] = []
    for n in range(n_lo, n_hi + 1):
        # the upper bounds on base + 2n, the value with every part marked
        above_top = n * n + 2 - 2 * n  # base + 2n > n^2 + 2
        at_top = n * n - 2 * n  # base + 2n >= n^2
        for base, big, ones in _walk(n):
            k = len(big) + ones
            if (
                (base - n) % 2
                or base < n
                or base > (n - k + 1) ** 2 + k - 1
                or (k >= 2 and base > above_top)
                or (n >= 4 and k >= 3 and base >= at_top)
            ):
                _bounds_failures(n, tuple(big) + (1,) * ones, base, ces)
    return _finish("bounds", n_lo, n_hi, ces, started)


def _bounds_failures(n: int, parts: tuple[int, ...], base: int, ces: list[Counterexample]) -> None:
    """Append every bound that one partition of n with square sum ``base``
    breaks, for each mark count q = 0..k."""
    nn = n * n
    k = len(parts)
    if (base - n) % 2:
        ces.append((n, base, f"parity violated by partition {parts}"))
    cap = (n - k + 1) ** 2 + k - 1
    # prefix sums over descending parts give the q-mark extremes
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
            ces.append((n, hi_val, f"exceeds (n-k+1)^2+k-1+2n via {parts} with {q} marks"))
        if n >= 4 and k >= 3 and hi_val >= nn:
            ces.append((n, hi_val, f"reaches n^2 with {k} >= 3 blocks via {parts}"))


def verify_largest_part(n_lo: int, n_hi: int, table: DimTable | None = None) -> CheckReport:
    """Large square sums force a block bigger than n/2.

    Checks, for each n in range: (a) every achievable square sum above
    3n^2/4 arises by adding (n-i)^2 to an achievable sum for some
    i < n/2; (b) the maximal square sum over partitions with all parts
    at most n/2 stays at or below 3n^2/4.  Comparisons stay in integers
    (4N vs 3n^2).
    """
    started = _checked("lemma-largest", n_lo, n_hi, 7, LARGEST_MAX_N)
    table = _ensure_table(table, n_hi)
    ces: list[Counterexample] = []
    for n in range(n_lo, n_hi + 1):
        rests = table.sets[: (n - 1) // 2 + 1]  # S(i), i < n/2, beside a block n - i
        for value in table.sets[n].values():
            if 4 * value <= 3 * n * n:
                continue
            if not any(value - (n - i) ** 2 in rest for i, rest in enumerate(rests)):
                ces.append((n, value, "no realizing split with a block above n/2"))
        best = _max_square_sum(n, n // 2)
        if 4 * best > 3 * n * n:
            best_parts = max(
                iter_partition_tuples(n, n // 2), key=lambda t: sum(p * p for p in t)
            )
            ces.append((n, best, f"capped-part maximum exceeds 3n^2/4 via {best_parts}"))
    return _finish("lemma-largest", n_lo, n_hi, ces, started)


def _max_square_sum(n: int, cap: int) -> int:
    """The largest square sum over the partitions of n with every part at
    most ``cap`` (cap >= 1): an unbounded-knapsack maximum, O(n * cap)."""
    top = list(range(n + 1))  # parts of 1 alone
    for p in range(2, min(cap, n) + 1):
        pp = p * p
        for m in range(p, n + 1):
            if top[m - p] + pp > top[m]:
                top[m] = top[m - p] + pp
    return top[n]


def verify_noncompact_growth(n_lo: int, n_hi: int, table: DimTable | None = None) -> CheckReport:
    """Report-only probe of the noncompact-count growth inequality.

    For each n, pick the k >= 1 with k^2+3k+1 <= 2n < (k+1)^2+3(k+1)+1
    and compare the set-size increment at n against the full set size at
    k.  The underlying derivation only holds for sufficiently large n,
    so finite failures are observations, not verdicts.
    """
    started = _checked("numh", n_lo, n_hi, 2)
    table = _ensure_table(table, n_hi + 1)
    observations: list[Counterexample] = []
    skipped = 0
    for n in range(n_lo, n_hi + 1):
        k = _growth_anchor_index(n)
        if k is None:
            skipped += 1
            continue
        increment = table.count[n + 1] - table.count[n]
        reference = table.count[k]
        if increment < reference:
            observations.append(
                (n, increment, f"increment {increment} below set size {reference} at k={k}")
            )
    notes = (
        "observational: the inequality is only derived for large n; "
        f"{skipped} row(s) skipped with no admissible k"
    )
    return _finish("numh", n_lo, n_hi, observations, started, report_only=True, notes=notes)


def _growth_anchor_index(n: int) -> int | None:
    """The largest k with k^2 + 3k + 1 <= 2n, or None when there is none."""
    k = (isqrt(8 * n + 5) - 3) // 2
    return k if k >= 1 else None


def verify_arms(n_lo: int, n_hi: int, table: DimTable | None = None) -> CheckReport:
    """Distinct Young-diagram arm totals count the full square-sum set.

    The arm total of a partition is (square sum - n)/2, a bijection, so
    the number of distinct arm totals equals the set size, which is one
    more than the compact count (the single-block partition contributes
    the excluded top value n^2).
    """
    started = _checked("arms", n_lo, n_hi, 1, ORACLE_MAX_N)
    table = _ensure_table(table, n_hi)
    ces: list[Counterexample] = []
    for n in range(n_lo, n_hi + 1):
        distinct = len(distinct_arm_values(n))
        expected = table.count[n]
        if distinct != expected:
            ces.append((n, distinct, f"distinct arm totals != set size {expected}"))
    notes = (
        "distinct arm totals equal the square-sum set size, i.e. the compact"
        " count plus one: the single-block partition supplies the top value"
    )
    return _finish("arms", n_lo, n_hi, ces, started, notes=notes)


def verify_dp_oracle(n_lo: int, n_hi: int, table: DimTable | None = None) -> CheckReport:
    """Recurrence-built sets equal full-enumeration sets, bit for bit."""
    started = _checked("brute", n_lo, n_hi, 1, ORACLE_MAX_N)
    table = _ensure_table(table, n_hi)
    ces: list[Counterexample] = []
    for n in range(n_lo, n_hi + 1):
        oracle = square_sums_bruteforce(n)
        if oracle != table.sets[n]:
            diff = oracle.bits ^ table.sets[n].bits
            value = n + 2 * (diff.bit_length() - 1)
            ces.append((n, value, "recurrence and enumeration sets differ at this value"))
    return _finish("brute", n_lo, n_hi, ces, started)


def verify_two_block_closed_form(n_lo: int, n_hi: int) -> CheckReport:
    """Closed-form two-block values equal the enumeration oracle."""
    started = _checked("prop7", n_lo, n_hi, 2, MARKED_ORACLE_MAX_N)
    ces: list[Counterexample] = []
    for n in range(n_lo, n_hi + 1):
        brute: set[int] = set()
        for marks in range(3):
            brute |= dimensions_bruteforce(n, 2, marks)
        closed = two_block_dimensions(n)
        for value in sorted(closed ^ brute):
            side = "closed form only" if value in closed else "enumeration only"
            ces.append((n, value, f"two-block value on one side only ({side})"))
    return _finish("prop7", n_lo, n_hi, ces, started)


def verify_growth_sequence(n_max: int, table: DimTable | None = None) -> CheckReport:
    """Invariant bundle for the inductive growth sequences.

    Checks parity of the reach, monotonicity of the anchor, the frozen
    value anchor(18) = 7, reach(n) >= 2n from n = 4 on, the guaranteed
    interval {n, n+2, ..., reach(n)} inside the square-sum set, and the
    implied lower bound (reach(n) - n)/2 on the compact count.
    """
    started = time.perf_counter()
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    table = _ensure_table(table, n_max)
    ces: list[Counterexample] = []
    for n, ((reach, anchor), (_, after)) in zip(range(n_max + 1), pairwise(_growth_walk())):
        if (reach - n) % 2:
            ces.append((n, reach, "reach parity differs from n"))
        if 1 <= n < n_max and after < anchor:
            ces.append((n, after, "anchor decreased"))
        if n >= 4 and reach < 2 * n:
            ces.append((n, reach, "reach below 2n"))
        span = (reach - n) // 2
        low = table.low[n]  # indices 0..span must lie in the run of ones
        if low <= span:
            ces.append((n, n + 2 * low, "guaranteed interval value missing from the set"))
        if n >= 2 and compact_count(table, n) < span:  # the table reaches n_max
            ces.append((n, span, "compact count below (reach - n)/2"))
    if n_max >= 18 and (anchor18 := next(islice(_growth_walk(), 18, None))[1]) != 7:
        ces.append((18, anchor18 or -1, "anchor(18) != 7"))
    return _finish("sequences", 0, n_max, ces, started)
