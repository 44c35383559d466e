"""S(n) with no table below n, from the growth lemma's start.

Every value up to reach(n), the growth-sequence prefix, is a square sum
(the growth lemma), so every index below r0(n) = (reach(n) - n)/2 + 1 is
in S(n).  One largest-part step of the build
(:func:`~reinhardt.dimsets._step`) started at r0(n) instead of
low[n - 1] gives the rest of S(n) from the small sets S(0..J(n)) alone,
J(n) <= 2 isqrt(n) + 5 (see :func:`~reinhardt.dimsets.full_set_limit`).
The tests check the lemma against the build for every n <= 4097; past
that it rests on the paper's proof, as :mod:`reinhardt.classify` does.
"""

from __future__ import annotations

from functools import lru_cache

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
    """S(n): the small sets S(0..K), K = min(n, full_set_limit(n)), are
    built as :func:`~reinhardt.dimsets.build_table` builds them, and S(n)
    is S(K) when n = K, else one step from r0(n) over them."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    k, offs = min(n, full_set_limit(n)), _offsets(n)
    full = [1]  # S(0) = {0}
    for m in range(1, k + 1):  # each step starts at the run of ones of the set before
        low = _run(full[-1])
        full.append(((_step(m, low, full, offs) + 1) << low) - 1)
    return DimSet(n, full[n]) if n == k else _from_reach(n, full, offs)


def _from_reach(n: int, full: list[int], offs: list[int]) -> DimSet:
    """S(n) by one step from r0(n) over the full sets ``full[j]`` = S(j).
    A step that needs a set past the last of ``full`` raises
    :class:`ValueError` rather than give a wrong set."""
    start = (reach(n) - n) // 2 + 1
    try:
        acc = _step(n, start, full, offs)
    except IndexError:
        raise ValueError(
            f"S({n}) from index {start} reads past S({len(full) - 1}), the last small set"
        ) from None
    low = start + _run(acc)
    return DimSet.from_prefix_tail(n, low, acc >> (low - start))


def _run(bits: int) -> int:
    """The length of the run of ones from bit 0."""
    return (bits ^ (bits + 1)).bit_length() - 1
