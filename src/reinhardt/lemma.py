"""S(n) and |S(n)| with no table below n, from the growth lemma's start.

Every value up to reach(n), the growth-sequence prefix, is a square sum
(the growth lemma), so every index below r0(n) = (reach(n) - n)/2 + 1 is
in S(n).  ``set`` prints :func:`square_sum_set`, one largest-part step
from r0(n) over the small sets S(0..J(n)) alone, J(n) <= 2 isqrt(n) + 5
(:func:`~reinhardt.dimsets.full_set_limit`), and ``table`` the counts
of :func:`square_sum_counts`, the build's rows from r0.  The tests check
the lemma against the build for every n <= 4097, and on it to n = 10^5;
past that it rests on the paper's proof, as :mod:`reinhardt.classify` does.
:func:`reach` itself answers at any n: it searches the anchor's interval,
not the rows below n, so a cold call at n = 10^100 memoizes about 200 values.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .dimsets import DimSet, _rows, _small_sets, _stepped_set, full_set_limit


@lru_cache(maxsize=1 << 14)  # over twice the ~7 200 values of one cold call at 4300 digits
def reach(n: int) -> int:
    """reach(n) = (n - k)^2 + reach(k), reach(0) = 0, where k = anchor(n) is
    the largest kappa in [1, n) with reach(kappa) + kappa + 4 <= 2n, else 0.

    reach(kappa) + kappa rises with kappa (see the comment in
    :func:`~reinhardt.sequences._growth_walk`), so the threshold
    t_k = (reach(k) + k + 4)/2 rises with k, and kappa's anchor is k on
    t_k <= kappa < t_(k+1), where reach(kappa) + kappa is the quadratic
    (kappa - k)^2 + kappa + reach(k).  So with m = 2n - 4, anchor(n) is
    k* + x, where k* is the largest k with G(k) = reach(t_k) + t_k <= m and
    x the largest with x^2 + x <= m - k* - reach(k*); k* + x lies below
    t_(k*+1), since reach(k) + 4 >= k.  G(k) is at most about k^4/4, so
    the search for k* starts just below (4m)^(1/4), gallops up and
    bisects: it reads reach near n^(1/4) and at the anchor, about
    2 sqrt(n), and one cold call at n = 10^100 memoizes about 200 values.
    reach(0..4) are the base.  The memo holds only fixed ints, so it is
    safe to share; it keeps the last 2^14, so no run of calls grows it."""
    if n < 5:
        return (0, 1, 4, 5, 10)[n]
    m = 2 * n - 4

    def g(k: int) -> int:  # G(k), reach(kappa) + kappa at kappa = t_k
        t = (reach(k) + k + 4) // 2
        return (t - k) ** 2 + t + reach(k)

    # g(lo) <= m, since (lo + 2)^4 <= 4m: g(0) = 6 <= m, and for k >= 1,
    # reach(k) <= k^2 gives 4 g(k) < (k + 2)^4
    lo = isqrt(isqrt(4 * m)) - 2
    hi = lo + 1  # gallop to a hi with g(hi) > m, then bisect
    while g(hi) <= m:
        lo, hi = hi, 3 * hi - 2 * lo  # the step doubles
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if g(mid) > m else (mid, hi)
    k = lo + (isqrt(4 * (m - lo - reach(lo)) + 1) - 1) // 2  # lo = k*
    return (n - k) ** 2 + reach(k)


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
