"""S(n) from the growth lemma's start against the sequential build."""

import pytest

from reinhardt import lemma
from reinhardt.dimsets import DimSet, _offsets, full_set_limit
from reinhardt.lemma import square_sum_set


def test_one_step_from_r0_gives_every_row_to_4097(table4097):
    # the lemma's step, read against the build's (low, count) at every n:
    # a lemma that failed at some n would count an index missing there
    k = full_set_limit(4097)
    full = [s.bits for s in table4097.sets[: k + 1]]
    offs = _offsets(4097)
    wrong = []
    for n in range(4098):
        s = lemma._from_reach(n, full, offs)
        if (s.low, len(s)) != (table4097.low[n], table4097.count[n]):
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
        lemma._from_reach(1000, full, _offsets(1000))
    monkeypatch.setattr(lemma, "full_set_limit", lambda n: 10)
    with pytest.raises(ValueError, match=r"S\(100\) from index \d+ reads past S\(10\)"):
        square_sum_set(100)
    assert square_sum_set(10) == table4097.sets[10]  # built in full, no step


def test_small_and_edge_sets():
    assert square_sum_set(0) == DimSet(0, 1)
    assert list(square_sum_set(5)) == [5, 7, 9, 11, 13, 17, 25]
    with pytest.raises(ValueError, match="non-negative"):
        square_sum_set(-1)
