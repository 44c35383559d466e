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
from collections.abc import Iterator
from itertools import count, islice
from typing import NamedTuple

from .dimsets import DimTable
from .partitions import DegenerateInputWarning


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
    return list(islice(_growth_walk(), n_max + 1))


def _growth_walk() -> Iterator[GrowthRow]:
    """The rows for n = 0, 1, 2, ..., without end."""
    reach = [0]
    yield GrowthRow(0, 0, 2, None)
    k = 0
    for n in count(1):
        # The kappa with threshold(kappa) <= n form a prefix, so walking up
        # from the previous anchor finds its end.  By induction on n:
        # reach(kappa) + kappa is even (each row adds m^2 + m, m = n - k),
        # so if reach is non-decreasing below n, reach(kappa) + kappa
        # strictly increases there and the anchor moves up by at most 1
        # (by 2 would need reach(k+2) < reach(k+1)); hence reach(n) >=
        # reach(n-1), for every n.
        while k + 1 < n and reach[k + 1] + k + 1 + 4 <= 2 * n:
            k += 1
        reach.append((n - k) ** 2 + reach[k])
        # reach(n) has the parity of n (each row adds m^2 + m), so the halving is exact
        yield GrowthRow(n, reach[n], (reach[n] + n + 4) // 2, k)


def format_ratio(numerator: int, denominator: int) -> str:
    """Exact 4-decimal rendering with round-half-to-even.

    Integer arithmetic throughout, so decimal half cases are not at the
    mercy of binary floating point.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    scaled, rem = divmod(numerator * 10**4, denominator)
    if rem * 2 > denominator or (rem * 2 == denominator and scaled % 2 == 1):
        scaled += 1
    return f"{scaled // 10**4}.{scaled % 10**4:04d}"


class RatioRow(NamedTuple):
    n: int
    compact: int
    compact_ratio: str  # compact / n^2 at 4 decimals
    noncompact: int | None  # None at the table edge, where c(n+1) is unknown
    noncompact_ratio: str | None


def ratio_table(table: DimTable, ns: list[int]) -> list[RatioRow]:
    """Counts plus the two growth ratios for each requested n.

    Out-of-range entries are skipped with a notice; the noncompact count
    is omitted at n = n_max since it needs the successor set.  c and h
    are read from ``table.count`` as ``dimsets.compact_count`` and
    ``noncompact_count`` define them.
    """
    rows: list[RatioRow] = []
    count = table.count
    for n in ns:
        if not 2 <= n <= table.n_max:
            warnings.warn(
                f"n={n} outside table range 2..{table.n_max}; row skipped",
                DegenerateInputWarning,
                stacklevel=2,
            )
            continue
        c = count[n] - 1
        if n < table.n_max:
            h = count[n + 1] - count[n] - 1
            row = RatioRow(n, c, format_ratio(c, n * n), h, format_ratio(h, n))
        else:
            row = RatioRow(n, c, format_ratio(c, n * n), None, None)
        rows.append(row)
    return rows
