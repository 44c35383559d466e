"""S(n) and |S(n)| with no table below n, from the growth lemma's start.

Every value up to reach(n), the growth-sequence prefix, is a square sum
(the growth lemma), so every index below r0(n) = (reach(n) - n)/2 + 1 is
in S(n).  One largest-part step of the build
(:func:`~reinhardt.dimsets._step`) started at r0(n) instead of
low[n - 1] gives the rest of S(n) from the small sets S(0..J(n)) alone,
J(n) <= 2 isqrt(n) + 5 (see :func:`~reinhardt.dimsets.full_set_limit`).
``set`` prints :func:`square_sum_set`, and ``table`` the counts of
:func:`square_sum_counts`.  The tests check the lemma against the build
for every n <= 4097; past that it rests on the paper's proof, as
:mod:`reinhardt.classify` does.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt

from .dimsets import DimSet, _offsets, _step, full_set_limit


@lru_cache(maxsize=None)
def reach(n: int) -> int:
    """reach(n) = (n - k)^2 + reach(k), reach(0) = 0, where k = anchor(n) is
    the largest kappa in [1, n) with reach(kappa) + kappa + 4 <= 2n, else 0.
    The test holds on a prefix of kappa (see the comment in
    :func:`~reinhardt.sequences._growth_walk`), so a gallop and a bisection
    find k.  The memo holds only fixed ints, so it is safe to share."""
    lo, hi = 0, 1  # the test holds at lo (or lo = 0) and fails at hi (or hi = n)
    while hi < n and reach(hi) + hi + 4 <= 2 * n:
        lo, hi = hi, min(2 * hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if reach(mid) + mid + 4 <= 2 * n else (lo, mid)
    return (n - lo) ** 2 + reach(lo) if lo else n * n


def square_sum_set(n: int) -> DimSet:
    """S(n): S(K) from the small sets S(0..K), K = min(n, full_set_limit(n)),
    when n = K, else one step from r0(n) over them."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    k, offs = min(n, full_set_limit(n)), _offsets(n)
    full = _small_sets(k, offs)
    if n == k:
        return DimSet(n, full[n])
    start, acc = _from_reach(n, reach(n), full, offs)
    low = start + _run(acc)
    return DimSet.from_prefix_tail(n, low, acc >> (low - start))


def square_sum_counts(min_n: int, max_n: int) -> list[int]:
    """|S(n)| for n = min_n..max_n from the small sets S(0..K),
    K = min(max_n, full_set_limit(max_n)), built once, and from reach(n)
    of the growth walk.

    Most rows take no step.  The step's piece j is S(j) at
    s_j = off(n - j) - r0(n), n - j below piece j - 1, and piece b, the
    first with s_b <= 0, holds r0(n).  The pieces below j end at most
    T(j + 1) - n above s_j, T(m) = m(m + 1)/2.  Where that is below
    low(j), the run of S(j), for every j <= b, and r0(n) is in piece b's
    run, the step holds from s_j to piece j - 1 just S(j)'s indices below
    n - j, so |S(n)| = off(n - b) + sum_{j <= b} |S(j) below n - j|.  b
    only rises over a window (each row checks it), so :func:`_sums` finds
    that sum for every row at once.  The other rows, all at n <= 471
    (checked to 65536), take a step (:func:`_stepped`).
    """
    if not 0 <= min_n <= max_n:
        raise ValueError(f"need 0 <= min_n <= max_n, got ({min_n}, {max_n})")
    from .sequences import _growth_walk

    offs = _offsets(max_n)
    full = _small_sets(min(max_n, full_set_limit(max_n)), offs)
    lows = [_run(s) for s in full]
    worst = list(accumulate(((j + 1) * (j + 2) // 2 - low for j, low in enumerate(lows)), max))
    rows, reaches = range(min_n, max_n + 1), _growth_walk(max_n)[0][min_n:]
    bases, joins, b = [], [], -1  # off(n - b), or None for a stepped row; (row, j) as b reaches j
    for i, (n, reach_n) in enumerate(zip(rows, reaches)):
        start = (reach_n - n) // 2 + 1
        while b < 0 or offs[n - b] > start:
            b += 1
            joins.append((i, b))
        sized = (
            0 < b < len(full) <= n > worst[b]  # each piece's spill lies in its run
            and start - offs[n - b] <= lows[b]  # r0(n) lies in piece b's run
            and offs[n - b + 1] > start  # b is the first piece with s_b <= 0
            and 2 * (n + 2 * start) > n * (n + 1)  # a largest-part step, as in _step
        )
        bases.append(offs[n - b] if sized else None)
    sizes = [0, *accumulate(s.bit_count() for s in full)]  # |S(0)| + ... + |S(j - 1)|
    return [
        total + base if base is not None else _stepped(n, reach_n, full, offs, sizes)
        for n, reach_n, base, total in zip(
            rows, reaches, bases, _sums(full, [(i, j) for i, j in joins if j < len(full)], rows)
        )
    ]


def _sums(full: list[int], joins: list[tuple[int, int]], rows: range, batch: int = 255) -> list:
    """For the row i of each n in ``rows``, the sum of |S(j) below n - j|
    over the joins (i0, j) with i0 <= i.  From row i to i + 1 it rises by
    the number of those j with bit n - j of S(j) set: each join's bits
    from its row on become bytes 0 and 1 of one int, shifted to its row,
    and the ints add, ``batch`` <= 255 at a time, so that no byte carries
    into the next."""
    size, flags = len(rows), bytes.maketrans(b"01", b"\0\1")
    steps = [0] * size
    for i, j in joins:
        steps[i] += (full[j] & ((1 << (rows[i] - j)) - 1)).bit_count()
    for k in range(0, len(joins), batch):
        added = 0
        for i, j in joins[k : k + batch]:
            bits = full[j] >> (rows[i] - j) & ((1 << (size - i - 1)) - 1)  # bit r: row i + 1 + r
            per_row = bin(bits)[:1:-1].encode().translate(flags)  # byte r: bit r
            added += int.from_bytes(per_row, "little") << 8 * (i + 1)
        steps = list(map(int.__add__, steps, added.to_bytes(size, "little")))
    return list(accumulate(steps))


def _stepped(n: int, reach_n: int, full: list[int], offs: list[int], sizes: list[int]) -> int:
    """|S(n)|, read from the small sets for n <= K, else r0(n) plus the size
    of the step from r0(n) less its first c pieces.  Those with T(j + 1) < n
    and s_j >= 0 lie apart from every other piece of a largest-part step,
    and above r0(n), so they add ``sizes[c]`` = |S(0)| + ... + |S(c - 1)|."""
    if n < len(full):
        return sizes[n + 1] - sizes[n]
    start = (reach_n - n) // 2 + 1
    c = (isqrt(8 * n - 3) - 1) // 2 if 2 * (n + 2 * start) > n * (n + 1) else 0
    while c and offs[n - c + 1] < start:
        c -= 1
    start, acc = _from_reach(n, reach_n, full, offs, c)
    return start + sizes[c] + acc.bit_count()


def _small_sets(k: int, offs: list[int]) -> list[int]:
    """The bits of S(0..k), built as :func:`~reinhardt.dimsets.build_table`
    builds them: each step starts at the run of ones of the set before."""
    full = [1]  # S(0) = {0}
    for m in range(1, k + 1):
        low = _run(full[-1])
        full.append(((_step(m, low, full, offs) + 1) << low) - 1)
    return full


def _from_reach(n: int, reach_n: int, full, offs: list[int], first: int = 0) -> tuple[int, int]:
    """(r0(n), the bits of S(n) from index r0(n) up), r0(n) = (reach_n -
    n)/2 + 1 with reach_n = reach(n), by one step over the full sets
    ``full[j]`` = S(j), less its pieces j < ``first``.  A step that needs a
    set past the last of ``full`` raises :class:`ValueError` rather than
    give a wrong set."""
    start = (reach_n - n) // 2 + 1
    try:
        return start, _step(n, start, full, offs, first)
    except IndexError:
        raise ValueError(
            f"S({n}) from index {start} reads past S({len(full) - 1}), the last small set"
        ) from None


def _run(bits: int) -> int:
    """The length of the run of ones from bit 0."""
    return (bits ^ (bits + 1)).bit_length() - 1
