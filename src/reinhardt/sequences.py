"""Inductive growth scaffolding and ratio diagnostics.

The growth sequence guarantees that every value of the right parity from
n up to ``reach(n)`` is an achievable square sum, which drives the
asymptotic density of compact dimension counts.  The three sequences are
defined inductively:

    reach(0) = 0,    anchor(1) = 0,
    reach(n) = (n - anchor(n))^2 + reach(anchor(n)),
    threshold(n) = (reach(n) + n + 4) / 2,
    anchor(n) = the largest kappa < n with threshold(kappa) <= n.
"""

from __future__ import annotations

import warnings
from itertools import count
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from .dimsets import DimTable


class GrowthRow(NamedTuple):
    """One row of the inductive sequences; ``anchor`` is None only at n=0."""

    n: int
    reach: int
    threshold: int
    anchor: int | None


def growth_sequence(n_max: int) -> list[GrowthRow]:
    """Rows of (reach, threshold, anchor) for n = 0..n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    # reach(n) has the parity of n (each row adds m^2 + m), so the halving is exact
    return [
        GrowthRow(n, reach, (reach + n + 4) // 2, anchor)
        for n, (reach, anchor) in zip(range(n_max + 1), _growth_walk())
    ]


def _growth_walk() -> Iterator[tuple[int, int | None]]:
    """reach(n) and anchor(n) for n = 0, 1, 2, ...; the anchor is None at n = 0.
    It holds k = anchor(n), reach(k), reach(k + 1) and a walk behind it."""
    yield 0, None
    yield 1, 0
    behind = (reach for reach, _ in _growth_walk())
    k, here, after = 0, next(behind), next(behind)  # reach(k), reach(k + 1)
    for n in count(2):
        # The kappa with threshold(kappa) <= n form a prefix, so walking up
        # from the previous anchor finds its end.  By induction on n:
        # reach(kappa) + kappa is even (each row adds m^2 + m, m = n - k),
        # so if reach is non-decreasing below n, reach(kappa) + kappa
        # strictly increases there and the anchor moves up by at most 1
        # (by 2 would need reach(k+2) < reach(k+1)); hence reach(n) >=
        # reach(n-1), for every n.
        while k + 1 < n and after + k + 1 + 4 <= 2 * n:
            k, here, after = k + 1, after, next(behind)
        yield (n - k) ** 2 + here, k


def format_ratio(numerator: int, denominator: int) -> str:
    """Exact 4-decimal rendering with round-half-to-even.

    Integer arithmetic throughout, so decimal half cases are not at the
    mercy of binary floating point.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    scaled, rem = divmod(numerator * 10000, denominator)
    if rem * 2 > denominator or (rem * 2 == denominator and scaled & 1):
        scaled += 1
    return "%d.%04d" % divmod(scaled, 10000)


class RatioRow(NamedTuple):
    n: int
    compact: int
    compact_ratio: str  # compact / n^2 at 4 decimals
    noncompact: int | None  # None at the table edge, where c(n+1) is unknown
    noncompact_ratio: str | None


def _ratio_row(n: int, count: int, successor: int | None) -> tuple:
    """The fields of n's :class:`RatioRow`, as a plain tuple, from count =
    |S(n)| and successor = |S(n + 1)|, or None at the table edge, where
    h(n) is omitted.  c and h are read as ``dimsets.compact_count`` and
    ``noncompact_count`` define them."""
    c = count - 1
    if successor is None:
        return n, c, format_ratio(c, n * n), None, None
    h = successor - count - 1
    return n, c, format_ratio(c, n * n), h, format_ratio(h, n)


def ratio_table(table: DimTable, ns: list[int]) -> list[RatioRow]:
    """Counts plus the two growth ratios for each requested n, from
    ``table.count`` (see :func:`_ratio_row`).

    Out-of-range entries are skipped with a notice; the noncompact count
    is omitted at n = n_max since it needs the successor set.
    """
    rows: list[RatioRow] = []
    count = table.count
    for n in ns:
        if not 2 <= n <= table.n_max:
            from .partitions import DegenerateInputWarning
            warnings.warn(
                f"n={n} outside table range 2..{table.n_max}; row skipped",
                DegenerateInputWarning,
                stacklevel=2,
            )
            continue
        rows.append(RatioRow(*_ratio_row(n, count[n], count[n + 1] if n < table.n_max else None)))
    return rows
