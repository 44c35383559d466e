"""Structural classification of a queried automorphism-group dimension.

Given (n, dim) the decision ladder is exact:

  * dim = n^2 + 2n  ->  the unit ball (the only value above n^2 + 2);
  * dim = n^2 + 2   ->  the ball-times-disc product;
  * dim = n^2       ->  one of the fixed n^2 families;
  * other values above n^2 - 2 are unachievable;
  * dim <= n^2 - 2: compact ("bad") if it is a square sum with at least
    two blocks, noncompact ("good") if it needs exactly one marked
    block, general-only if it is achievable but only with two or more
    marked blocks (hence by no smooth bounded domain), else unrealizable.

That last rung tests dim in S(n), dim + 1 in S(n+1) (the index
:func:`~reinhardt.dimsets.noncompact_set` tests) and dim in G(n) by the
largest-part recursion of :func:`is_realizable`: no
file is read, and no set past the fixed base of n <= 80 is built.

Realizations (n <= 80) come from one search over the marked-set table
(:func:`~reinhardt.dimsets.marked_set_rows`, built once on first use and
shared with the membership tests):
parts are placed largest first, and one bit test per branch cuts every
remainder that cannot reach the remaining value, so no partition is
enumerated in vain.  Partition enumeration is left to the oracles.

All queries read only immutable data and are safe for concurrent
callers.
"""

from __future__ import annotations

from typing import NamedTuple

from functools import lru_cache
from math import isqrt

from .dimsets import MARKED_ORACLE_MAX_N, _small_sets, marked_set_rows
from .lemma import reach
from .partitions import (
    MarkedPartition,
    _marked_unchecked,
    _partition_unchecked,
)

STATUS_UNREALIZABLE = "unrealizable"
STATUS_BALL = "ball"
STATUS_BALL_TIMES_DISC = "ball_times_disc"
STATUS_N_SQUARED = "n_squared"
STATUS_NONCOMPACT_GOOD = "noncompact_good"
STATUS_COMPACT_BAD = "compact_bad"
STATUS_GENERAL_ONLY = "general_only"

NOT_VERIFIED_LABEL = "canonical candidate; automorphism group not verified by this library"

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(k: int) -> str:
    return str(k).translate(_SUPERSCRIPTS)


class Realization(NamedTuple):
    """A marked partition whose dimension value equals the queried one."""

    marked: MarkedPartition
    length: int
    mark_count: int

    def __str__(self) -> str:
        return f"{self.marked} (blocks={self.length}, marked={self.mark_count})"


class DomainFamily(NamedTuple):
    """A family of domains, up to algebraic coordinate changes."""

    tag: str
    description: str
    parameters: tuple[str, ...] = ()


class Classification(NamedTuple):
    n: int
    dim: int
    status: str
    families: tuple[DomainFamily, ...] = ()
    realizations: tuple[Realization, ...] = ()
    notes: str = ""


class WitnessDomain(NamedTuple):
    """Symbolic defining inequality of a domain realizing a dimension.

    ``blocks`` pairs each block size with its exponent parameter s (the
    block enters the inequality as |z^i|^(2s); the marked block has
    s = 1).  The label records that the automorphism group of the
    emitted domain is a canonical candidate, not something this library
    verifies.
    """

    blocks: tuple[tuple[int, int], ...]
    inequality: str
    claimed_dimension: int
    construction: str  # "egg" (no marked block) or "marked_egg" (one)
    label: str = NOT_VERIFIED_LABEL


def _ball_family(n: int) -> DomainFamily:
    return DomainFamily("Ball", f"unit ball B{_sup(n)} (up to dilations and permutations)")


def _ball_times_disc_family(n: int) -> DomainFamily:
    return DomainFamily("BallTimesDisc", f"B{_sup(n - 1)} × Δ (up to dilations and permutations)")


def n_squared_families(n: int) -> list[DomainFamily]:
    """The families of domains whose automorphism group has dimension n^2.

    Four families exist in every dimension; the polydisc appears only at
    n = 3 and the product of two 2-balls only at n = 4.
    """
    if n < 2:
        raise ValueError(f"queries need n >= 2, got {n}")
    families = [
        DomainFamily(
            "SphericalShell",
            "{z : r < |z| < R}",
            ("0 <= r < R < ∞",),
        )
    ]
    if n == 3:
        families.append(DomainFamily("Polydisc3", "Δ³", ("n = 3",)))
    if n == 4:
        families.append(
            DomainFamily("ProductB2B2", "B² × B²", ("n = 4",))
        )
    families.extend(
        [
            DomainFamily(
                "Egg",
                "{(z', z_n) : |z'|² + |z_n|^α < 1}",
                ("α ∈ ℝ", "α ≠ 0, 2"),
            ),
            DomainFamily(
                "BallFiberedShell",
                "{(z', z_n) : |z'| < 1, r(1-|z'|²)^α < |z_n| < R(1-|z'|²)^α}",
                ("α ∈ ℝ", "0 < r < R <= ∞"),
            ),
            DomainFamily(
                "ExpShell",
                "{(z', z_n) : r e^{α|z'|²} < |z_n| < R e^{α|z'|²}}",
                ("0 < r < R <= ∞", "α ∈ ℝ, α ≠ 0", "if R = ∞ then α > 0"),
            ),
        ]
    )
    return families


def realizations(n: int, dim: int, mode: str = "all") -> list[Realization]:
    """All marked partitions of n whose dimension value equals ``dim``.

    ``mode="smooth_bounded"`` keeps only realizations a smooth bounded
    domain can carry: at most one marked block, at least two blocks, and
    dim <= n^2 - 2.  The list is ordered by mark count, then by the part
    tuple ascending, then greedy-descending over the marked values; an
    empty list means the value is unrealizable (in the given mode).

    The search picks distinct part values d in decreasing order, each
    with a multiplicity k and a marked count c <= k, and keeps a branch
    only if the rest of n, split into parts below d, can still reach the
    rest of the value: one bit test in the marked-set table
    (:func:`~reinhardt.dimsets.marked_set_rows`).  All markings of one
    part prefix travel down together, so a partition is built once for
    all its markings, and in mode "all" every branch ends in at least
    one realization (with at most one mark allowed, a branch can still
    die when its remainder needs more marks).
    """
    if mode not in ("all", "smooth_bounded"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MARKED_ORACLE_MAX_N:
        raise ValueError(
            f"realization enumeration is limited to n <= {MARKED_ORACLE_MAX_N}, got {n}"
        )
    smooth = mode == "smooth_bounded"
    if smooth and dim > n * n - 2:  # this also rules out the single block (n)
        return []
    max_marks = 1 if smooth else n
    index, odd = divmod(dim - n, 2)
    rows = _marked_rows()
    if odd or index < 0 or not rows[n][n] >> index & 1:
        return []
    found: list[Realization] = []

    def extend(m: int, cap: int, parts: tuple[int, ...], states: list) -> None:
        # states: (index left, marks so far, mark count), greedy-descending
        if m == 0:
            partition = _partition_unchecked(parts)
            for _, marks, count in states:
                found.append(Realization(_marked_unchecked(partition, marks), len(parts), count))
            return
        lefts = [state[0] for state in states]
        bottom, top = min(lefts), max(lefts)
        # d ascending, then k ascending, yields the part tuples in ascending order
        for d in range(1, min(cap, m) + 1):
            if rows[d][m].bit_length() <= bottom:
                continue  # parts up to d reach no state's index yet
            below = rows[d - 1]
            unmarked = (d * d - d) // 2
            # ones are the smallest part, so d = 1 must take all of m
            for k in range(1 if d > 1 else m, m // d + 1):
                if k * unmarked > top:
                    break
                rest = below[m - k * d]
                # the c marked blocks lower the index by c*d; only c that land
                # between the lowest and highest bit of rest can pass the test
                low, high = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
                kept = []
                for left, marks, count in states:
                    left -= k * unmarked
                    c_min = max(0, -((high - left) // d))
                    for c in range(min(k, max_marks - count, (left - low) // d), c_min - 1, -1):
                        if rest >> (left - c * d) & 1:
                            kept.append((left - c * d, marks + ((d, c),) if c else marks, count + c))
                if kept:
                    extend(m - k * d, d - 1, parts + (d,) * k, kept)

    extend(n, n, (), [(index, (), 0)])
    found.sort(key=lambda real: real.mark_count)  # stable: keeps the rest of the order
    return found


def is_realizable(n: int, dim: int) -> bool:
    """Whether ``dim`` lies in G(n), the values of marked partitions of n
    with any number of marks; see :func:`_member`."""
    if n < 0:
        raise ValueError(f"S(n) and G(n) membership needs 0 <= n, got {n}")
    return _member(n, dim, True)


def _member(n: int, value: int, marked: bool) -> bool:
    """Whether ``value`` lies in G(n) if ``marked``, else in S(n), at any n >= 0.

    A marked block d adds d^2 + 2d to the value, an unmarked one d^2.  For
    n <= :data:`MARKED_ORACLE_MAX_N` a fixed base answers.  Above it every
    value up to reach(n) is a square sum (the growth lemma: the tests check
    it for every n <= 10^5, and past that it rests on the paper's proof).
    reach(n) >= n^2/2 (below), so a value up to n^2/2 needs no reach(n),
    whose cold search memoizes about 7 200 values at n = 10^4299; past
    n = 1.5 * 10^2150 a dim of at most 4300 digits, as the CLI parses, is
    always such a value.
    Parts all below n/2 give at most sum d(d + 2) <= n(n+3)/2, and
    2 reach(n) > n(n+3) (below), so a value above reach(n) has a largest
    part p = n - j >= n/2: it is in S(n) iff value - p^2 is in S(j), and in
    G(n) iff value - p^2 or value - p^2 - 2p is in G(j).  j starts where
    p^2 + j <= value (the rest is at least j ones), and rises while
    p^2 + j^2 (+ 2n in G), the largest such value, still reaches the value;
    that falls as j rises to n/2.

    The bounds, reach(n) >= n^2/2 for n >= 41 and 2 reach(n) > n(n+3) for
    n >= 45, by strong induction on n.  Let k = anchor(n), so that
    reach(k) + k + 4 <= 2n and reach(n) = (n - k)^2 + reach(k).  If k >= 41,
    then reach(k) >= k^2/2, so k^2 <= 2 reach(k) < 4n, k < 2 sqrt(n) and
    reach(n) >= (n - 2 sqrt(n))^2.  Otherwise k <= 40 and
    reach(n) >= (n - 40)^2.  Now (n - 2 sqrt(n))^2 >= n^2/2 for n >= 47 and
    (n - 40)^2 >= n^2/2 for n >= 137, which carries the first bound
    forward; and 2 (n - 2 sqrt(n))^2 > n(n+3) once n - 8 sqrt(n) + 5 > 0
    (n >= 54), and 2 (n - 40)^2 > n(n+3) for n >= 141, which gives the
    second.  The base, from the growth walk: reach(n) >= n^2/2 at every
    41 <= n <= 200 000, and 2 reach(n) > n(n+3) at every 45 <= n <= 200 000
    (both in the tests).  Past 200 000 both steps apply.
    """
    pad = 2 * n if marked else 0
    if (value - n) % 2 or not n <= value <= n * n + pad:
        return False
    if n <= MARKED_ORACLE_MAX_N:
        base = _marked_rows()[n][n] if marked else _small_squares()[n]
        return bool(base >> (value - n) // 2 & 1)
    if 2 * value <= n * n or value <= reach(n):  # reach(n) >= n^2/2, below
        return True
    q = min(n, (1 + isqrt(1 + 4 * (value - n))) // 2)  # the largest p with p^2 - p <= value - n
    for j in range(n - q, n // 2 + 1):
        p = n - j
        if p * p + j * j + pad < value:
            break
        rest = value - p * p
        if _member(j, rest, marked) or marked and _member(j, rest - 2 * p, marked):
            return True
    return False


@lru_cache(maxsize=None)
def _marked_rows() -> tuple[tuple[int, ...], ...]:
    """The base's G(n), shared with :func:`realizations`."""
    return marked_set_rows(MARKED_ORACLE_MAX_N)


@lru_cache(maxsize=None)
def _small_squares() -> tuple[int, ...]:
    """The base's S(n), as bits."""
    return tuple(_small_sets(MARKED_ORACLE_MAX_N))


def classify_dimension(n: int, dim: int, include_realizations: bool = True) -> Classification:
    """Classify the query (n, dim); see the module docstring for the ladder.

    Every query answers at any n: a dim of the parity of n from n to
    n^2 - 2 takes the membership tests of :func:`_member`, whose cost grows
    with the digits of n, and other values are decided from n alone.
    Realizations are listed for n <= 80, else a note says so;
    ``include_realizations=False`` skips them without changing the status
    (bulk scans would otherwise materialize millions of records).
    """
    if n < 2:
        raise ValueError(f"queries need n >= 2, got {n}")
    top = n * n
    notes: list[str] = []
    families: tuple[DomainFamily, ...] = ()
    if (dim - n) % 2 == 0 and n <= dim <= top - 2:
        if _member(n, dim, False):  # below n^2 - 2, so not the top value
            status = STATUS_COMPACT_BAD
        elif _member(n + 1, dim + 1, False):  # noncompact_set's index, below (n+1)^2
            status = STATUS_NONCOMPACT_GOOD
        elif _member(n, dim, True):
            status = STATUS_GENERAL_ONLY
            notes.append(
                "achievable only with two or more marked blocks;"
                " no smooth bounded domain realizes it"
            )
        else:
            status = STATUS_UNREALIZABLE
            notes.append("no partition of n reaches this value with any marking")
    elif (dim - n) % 2:
        status = STATUS_UNREALIZABLE
        notes.append(
            f"parity: achievable dimensions for n={n} are {'even' if n % 2 == 0 else 'odd'}"
        )
    elif dim < n:
        status = STATUS_UNREALIZABLE
        notes.append(f"below the minimum achievable dimension n={n}")
    elif dim > top + 2 * n:
        status = STATUS_UNREALIZABLE
        notes.append(f"above the maximum achievable dimension n^2+2n={top + 2 * n}")
    elif dim == top + 2 * n:
        status = STATUS_BALL
        families = (_ball_family(n),)
    elif dim == top + 2:
        status = STATUS_BALL_TIMES_DISC
        families = (_ball_times_disc_family(n),)
    elif dim == top:
        status = STATUS_N_SQUARED
        families = tuple(n_squared_families(n))
    else:
        status = STATUS_UNREALIZABLE
        notes.append(
            f"gap: between n^2-2={top - 2} and n^2+2n={top + 2 * n} only "
            f"{top}, {top + 2} and {top + 2 * n} are achievable"
        )
    reals: tuple[Realization, ...] = ()
    if include_realizations:
        if n <= MARKED_ORACLE_MAX_N:
            reals = tuple(realizations(n, dim))
        else:
            notes.append(f"realization enumeration skipped for n > {MARKED_ORACLE_MAX_N}")
    return Classification(n, dim, status, families, reals, "; ".join(notes))


def make_witness(realization: Realization) -> WitnessDomain:
    """Symbolic domain realizing the realization's dimension value.

    With no marked block every block enters as |z^i|^(2 s_i) with
    distinct integer exponents s_i >= 2 (a generalized egg); with one
    marked block that block enters as |z^(i0)|^2 and the others keep the
    distinct higher exponents.  Exponents are assigned canonically:
    2, 3, ... over the unmarked blocks in order.  Two or more marked
    blocks admit no smooth bounded witness and are refused.
    """
    if realization.mark_count >= 2:
        raise ValueError(
            "no smooth-bounded witness: values needing two or more marked blocks"
            " are not realizable by smooth bounded domains"
        )
    if realization.length < 2:
        raise ValueError("witness constructions need at least two blocks")
    parts = realization.marked.partition.parts
    marked_value = realization.marked.marks[0][0] if realization.mark_count == 1 else None
    blocks: list[tuple[int, int]] = []
    terms: list[str] = []
    next_exponent = 2
    marked_done = False
    for i, size in enumerate(parts, start=1):
        if marked_value is not None and size == marked_value and not marked_done:
            marked_done = True
            blocks.append((size, 1))
            terms.append(f"|z{_sup(i)}|{_sup(2)}")
        else:
            blocks.append((size, next_exponent))
            terms.append(f"|z{_sup(i)}|{_sup(2 * next_exponent)}")
            next_exponent += 1
    claimed = sum(p * p for p in parts) + (2 * marked_value if marked_value else 0)
    return WitnessDomain(
        blocks=tuple(blocks),
        inequality="+".join(terms) + "<1",
        claimed_dimension=claimed,
        construction="marked_egg" if marked_value is not None else "egg",
    )
