"""S(n) and |S(n)| from the growth lemma's start against the sequential build."""

from functools import partial
from itertools import accumulate

import pytest

from reinhardt import lemma
from reinhardt.dimsets import DimSet, _offsets, full_set_limit
from reinhardt.lemma import square_sum_counts, square_sum_set


def test_one_step_from_r0_gives_every_row_to_4097(table4097, monkeypatch):
    # the lemma's step, read against the build's (low, count) at every n:
    # a lemma that failed at some n would count an index missing there.
    # Rows to K come from the small sets, rows to 471 from steps, and the
    # rest are sized from the small sets' counts below n - j
    assert square_sum_counts(0, 4097) == list(table4097.count)
    # a window starts its walk of b, and its sums, at its first row
    for lo, hi in ((2, 2), (668, 779), (933, 957), (4000, 4097)):
        assert square_sum_counts(lo, hi) == list(table4097.count[lo : hi + 1])
    # 108 pieces join to 4097; in batches of 7 the per-row bytes are read 16 times
    monkeypatch.setattr(lemma, "_sums", partial(lemma._sums, batch=7))
    assert square_sum_counts(300, 4097) == list(table4097.count[300:])
    k = full_set_limit(4097)
    full = [s.bits for s in table4097.sets[: k + 1]]
    offs = _offsets(4097)
    sizes = [0, *accumulate(bits.bit_count() for bits in full)]
    wrong = []
    for n in range(4098):
        start, acc = lemma._from_reach(n, lemma.reach(n), full, offs)
        if start + (acc ^ (acc + 1)).bit_length() - 1 != table4097.low[n]:
            wrong.append(n)
        # the step less its first pieces, which the rows past 471 do not take
        if lemma._stepped(n, lemma.reach(n), full, offs, sizes) != table4097.count[n]:
            wrong.append(n)
    assert wrong == []


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
        lemma._from_reach(1000, lemma.reach(1000), full, _offsets(1000))
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
