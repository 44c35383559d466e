"""S(n) and |S(n)| with no table below n, from the growth lemma's start.

Every value up to reach(n), the growth-sequence prefix, is a square sum
(the growth lemma), so every index below r0(n) = (reach(n) - n)/2 + 1 is
in S(n).  ``set`` prints :func:`square_sum_set`, one largest-part step
from r0(n) over the small sets S(0..J(n)) alone, J(n) <= 2 isqrt(n) + 5
(:func:`~reinhardt.dimsets.full_set_limit`), and ``table`` the counts
of :func:`square_sum_counts`, the build's rows from r0.  The tests check
the lemma against the build for every n <= 4097, and on it to n = 10^5;
past that it rests on the paper's proof, as :mod:`reinhardt.classify` does.
"""

from __future__ import annotations

from functools import lru_cache

from .dimsets import DimSet, _rows, _small_sets, _stepped_set, full_set_limit


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


def r0(n: int) -> int:
    """The growth lemma's start: every index below (reach(n) - n)/2 + 1 is in S(n)."""
    return (reach(n) - n) // 2 + 1


def square_sum_set(n: int) -> DimSet:
    """S(n): S(K) from the small sets S(0..K), K = full_set_limit(n), when
    n = K, else one step (:func:`~reinhardt.dimsets._stepped_set`) from
    r0(n) over them."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    k = full_set_limit(n)
    full = _small_sets(k)
    return DimSet(n, full[n]) if n == k else _stepped_set(n, r0(n), full)


def square_sum_counts(min_n: int, max_n: int) -> list[int]:
    """|S(n)| for n = min_n..max_n: the build's rows (:func:`~reinhardt.dimsets._rows`)
    from S(0..K), K = full_set_limit(max_n), with a window's first row past
    K + 1 started at r0(min_n), so no row below the window is built.
    Comparing these counts with the build's checks only that start."""
    if not 0 <= min_n <= max_n:
        raise ValueError(f"need 0 <= min_n <= max_n, got ({min_n}, {max_n})")
    return _rows(min_n, max_n, _small_sets(full_set_limit(max_n)), r0(min_n))[1]
