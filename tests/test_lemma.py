"""S(n) and |S(n)| from the growth lemma's start against the sequential build."""

import random
from functools import lru_cache, partial
from itertools import accumulate

import pytest

from reinhardt import classify, dimsets, lemma
from reinhardt.classify import classify_dimension
from reinhardt.dimsets import DimSet, _step, full_set_limit
from reinhardt.lemma import reach, square_sum_counts, square_sum_set


@lru_cache(maxsize=None)
def _galloping_reach(n):
    """The definition searched from kappa = 1 up: a gallop and a bisection
    over every kappa below the anchor, which shares no code with
    :func:`~reinhardt.lemma.reach` (about a second cold at n = 10^100)."""
    lo, hi = 0, 1  # the test holds at lo (or lo = 0) and fails at hi (or hi = n)
    while hi < n and _galloping_reach(hi) + hi + 4 <= 2 * n:
        lo, hi = hi, min(2 * hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _galloping_reach(mid) + mid + 4 <= 2 * n else (lo, mid)
    return (n - lo) ** 2 + _galloping_reach(lo) if lo else n * n


def test_reach_equals_the_galloping_search_to_10_40():
    # every n to 3000, and 60 seeded n of 4 to 40 digits, cold
    rng = random.Random(4040)
    digits = rng.choices(range(4, 41), k=60)
    ns = [*range(3001), *(rng.randrange(10 ** (d - 1), 10**d) for d in digits)]
    reach.cache_clear()
    assert [reach(n) for n in ns] == [_galloping_reach(n) for n in ns]
    reach.cache_clear()
    _galloping_reach.cache_clear()


def test_reach_at_any_size_reads_few_anchors():
    # one cold call memoizes a few hundred reach values, not a row per n
    for digits, most in ((30, 100), (100, 300), (300, 800)):
        reach.cache_clear()
        reach(10**digits)
        assert reach.cache_info().currsize <= most, digits
    reach.cache_clear()


def test_a_run_of_queries_keeps_the_memo_bounded(monkeypatch):
    # 200 queries at seeded n of 100 digits memoize about 156 values each,
    # none reused: the bounded memo keeps at most its 2^14 and answers as
    # an unbounded one does
    rng = random.Random(9900)
    ns = [rng.randrange(10**99, 10**100) for _ in range(200)]
    reach.cache_clear()
    statuses = [classify_dimension(n, n * n - 2, False).status for n in ns]
    assert reach.cache_info().maxsize == 1 << 14
    assert reach.cache_info().currsize <= 1 << 14
    unbounded = lru_cache(maxsize=None)(reach.__wrapped__)
    monkeypatch.setattr(lemma, "reach", unbounded)  # the name its recursion reads
    monkeypatch.setattr(classify, "reach", unbounded)
    assert [classify_dimension(n, n * n - 2, False).status for n in ns] == statuses
    assert unbounded.cache_info().currsize > 1 << 14
    reach.cache_clear()


def test_one_step_from_r0_gives_every_row_to_4097(table4097, monkeypatch):
    # the lemma's start, read against the step build's (low, count) at
    # every n: a lemma that failed at some n would count an index missing
    # there.  square_sum_counts runs build_table's row loop, so it differs
    # from the build only in a window's first row, started at r0
    assert square_sum_counts(0, 4097) == list(table4097.count)
    for lo, hi in ((2, 2), (668, 779), (933, 957), (4000, 4097)):
        assert square_sum_counts(lo, hi) == list(table4097.count[lo : hi + 1])
    # b's last stretch, from 458, joins 110 pieces; in batches of 7 their
    # per-row bytes are read 16 times
    monkeypatch.setattr(dimsets, "_sums", partial(dimsets._sums, batch=7))
    assert square_sum_counts(300, 4097) == list(table4097.count[300:])
    k = full_set_limit(4097)
    full = [s.bits for s in table4097.sets[: k + 1]]
    sizes = [0, *accumulate(bits.bit_count() for bits in full)]
    wrong = []
    for n in range(4098):
        start = lemma.r0(n)
        acc = _step(n, start, full)
        if start + (acc ^ (acc + 1)).bit_length() - 1 != table4097.low[n]:
            wrong.append(n)
        # the step less its first pieces, as the rows the build cannot size
        # take it (for n >= 1)
        pair = (table4097.low[n], table4097.count[n])
        if n and dimsets._stepped(n, start, full, sizes) != pair:
            wrong.append(n)
    assert wrong == []


def test_only_rows_to_471_take_a_step(monkeypatch):
    # a window's first row starts at r0, which can lie far below low[n]:
    # b falls at the next row and starts a new stretch, so that row and
    # the rest of the window are sized too
    stepped, real = [], dimsets._stepped
    monkeypatch.setattr(dimsets, "_stepped", lambda n, *args: stepped.append(n) or real(n, *args))
    square_sum_counts(2, 4096)
    assert max(stepped) == 471
    stepped.clear()
    square_sum_counts(30_000, 30_040)
    assert stepped == []


@pytest.mark.parametrize(
    "ns",
    [range(0, 501), range(501, 1002), [*range(1002, 4096, 13), 4096, 4097]],
    ids=["0-500", "501-1001", "sampled-to-4097"],
)
def test_square_sum_set_equals_the_table(table4097, ns):
    wrong = [n for n in ns if square_sum_set(n) != table4097.sets[n]]
    assert wrong == []


def test_a_step_past_the_small_sets_is_an_error(table4097, monkeypatch):
    # J(1000) = 58: S(0..20) cannot give S(1000), and says so
    full = [s.bits for s in table4097.sets[:21]]
    with pytest.raises(ValueError, match=r"S\(1000\) from index \d+ reads past S\(20\)"):
        _step(1000, lemma.r0(1000), full)
    monkeypatch.setattr(lemma, "full_set_limit", lambda n: 10)
    with pytest.raises(ValueError, match=r"S\(100\) from index \d+ reads past S\(10\)"):
        square_sum_set(100)
    with pytest.raises(ValueError, match=r"S\(100\) from index \d+ reads past S\(10\)"):
        square_sum_counts(100, 100)
    assert square_sum_set(10) == table4097.sets[10]  # built in full, no step
    assert square_sum_counts(10, 10) == [table4097.count[10]]  # read from S(0..10)


def test_small_and_edge_sets():
    assert square_sum_set(0) == DimSet(0, 1)
    assert list(square_sum_set(5)) == [5, 7, 9, 11, 13, 17, 25]
    with pytest.raises(ValueError, match="non-negative"):
        square_sum_set(-1)
    assert square_sum_counts(0, 5) == [1, 1, 2, 3, 5, 7]
    for lo, hi in ((-1, 5), (6, 5)):
        with pytest.raises(ValueError, match="min_n <= max_n"):
            square_sum_counts(lo, hi)
