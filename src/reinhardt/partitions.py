"""Integer partitions and their block statistics.

A partition of n models the block sizes (n_1, ..., n_k) of a Reinhardt
domain in normalized form; the automorphism-group dimension contributed
by a partition is the sum of squared block sizes plus 2 per marked block
size.  Everything here is immutable and safe to share across threads;
enumeration streams are independent per caller.  One walk, :func:`_walk`,
enumerates all partitions of n for the oracles and the verify suites; the
tuples, :class:`Partition` objects and square sums are views of it.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator

from ._frozen import Frozen

#: Largest n accepted by the enumeration-backed oracles.  This is a
#: runtime guard (p(n) grows super-polynomially), not a semantic limit:
#: the partitions of n = 1..80 number 1.2e8, and `verify --suite brute`
#: and `--suite arms` at 80 take 61 s and 72 s (one child each, 2-core
#: Xeon, Python 3.11.7, 15 MiB peak).  Up to 120 they number 1.7e10: hours.
ORACLE_MAX_N = 80


class DegenerateInputWarning(UserWarning):
    """Notice for degenerate query ranges that legitimately yield nothing."""


class Partition(Frozen):
    """A partition: positive parts in non-increasing order.

    The empty partition (of 0) is allowed so that recurrences over all
    smaller partitions need no special base case.  ``n``, the sum of the
    parts, is derived, so only ``parts`` takes part in equality.
    """

    __slots__ = ("parts", "n")
    parts: tuple[int, ...]
    n: int

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        if any(not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))

    def _key(self) -> tuple[int, ...]:
        return self.parts

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


class MarkedPartition(Frozen):
    """A partition with a sub-multiset of its parts marked.

    Marks are stored per distinct part value as (value, count) pairs in
    descending value order; positionally different but value-identical
    markings are therefore never distinguished, so enumerating marked
    partitions never double-counts.
    """

    __slots__ = ("partition", "marks")
    partition: Partition
    marks: tuple[tuple[int, int], ...]

    def __init__(self, partition: Partition, marks: Iterable[tuple[int, int]] = ()) -> None:
        marks = tuple((v, c) for v, c in marks if c != 0)
        marks = tuple(sorted(marks, key=lambda vc: -vc[0]))
        seen = set()
        for value, count in marks:
            if not (isinstance(value, int) and isinstance(count, int)):
                raise ValueError(f"mark entries must be integers, got {(value, count)}")
            if value in seen:
                raise ValueError(f"duplicate mark entry for part value {value}")
            seen.add(value)
            mult = partition.multiplicity(value)
            if mult == 0:
                raise ValueError(f"marked value {value} is not a part of {partition}")
            if not 0 < count <= mult:
                raise ValueError(
                    f"mark count {count} for value {value} exceeds multiplicity {mult}"
                )
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "marks", marks)

    @classmethod
    def from_values(cls, partition: Partition, values: Iterable[int]) -> "MarkedPartition":
        """Build from an iterable of marked part values (with repetition)."""
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return cls(partition, tuple(counts.items()))

    @property
    def mark_count(self) -> int:
        """Total number of marked parts (m)."""
        return sum(c for _, c in self.marks)

    @property
    def marked_sum(self) -> int:
        return sum(v * c for v, c in self.marks)

    def __str__(self) -> str:
        inner = ",".join(f"{v}" + (f"x{c}" if c > 1 else "") for v, c in self.marks)
        return f"{self.partition} marks[{inner}]"


def _partition_unchecked(parts: tuple[int, ...]) -> Partition:
    """Construct without validation; callers guarantee the invariants."""
    p = object.__new__(Partition)
    object.__setattr__(p, "parts", parts)
    object.__setattr__(p, "n", sum(parts))
    return p


def _marked_unchecked(
    partition: Partition, marks: tuple[tuple[int, int], ...]
) -> MarkedPartition:
    """Construct without validation; marks must be normalized already
    (descending part values, no zero counts, counts within multiplicity)."""
    mp = object.__new__(MarkedPartition)
    object.__setattr__(mp, "partition", partition)
    object.__setattr__(mp, "marks", marks)
    return mp


def iter_partition_tuples(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the part tuples of n, each part at most ``max_part``, in
    reverse-lexicographic order: the states of :func:`_walk` as tuples."""
    for _, big, ones in _walk(n, max_part):
        yield tuple(big) + (1,) * ones


def _walk(n: int, max_part: int | None = None) -> Iterator[tuple[int, list[int], int]]:
    """Walk the partitions of n with every part at most ``max_part`` in
    reverse-lexicographic order, (n) first, and yield ``(square sum, big,
    ones)`` for each: its parts are ``tuple(big) + (1,) * ones``.

    ``big`` is the walk's live list of the parts above 1, changed by the
    next step, so a caller that keeps it must copy it.  The square sum is
    updated by what each step removes and adds; no step rescans the 1s.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer ({n})")
    if n == 0:
        yield 0, [], 0
        return
    cap = n if max_part is None else min(max_part, n)
    if cap < 1:
        return
    # start from a virtual predecessor, one part cap + 1 and n - cap - 1
    # ones, which the first step turns into the first partition
    big, ones = [cap + 1], n - cap - 1
    total = (cap + 1) ** 2 + ones
    while big:
        # lower the last part above 1 by one and refill it and the 1s after
        # it greedily with parts of the new size
        y = big.pop()
        x, rest = y - 1, y + ones
        total -= y * y + ones
        if x == 1:
            ones = rest
        else:
            q, ones = divmod(rest, x)
            big.extend([x] * q)
            total += q * x * x
            if ones > 1:
                big.append(ones)
                total += ones * ones
                ones = 0
        total += ones
        yield total, big, ones


def iter_square_sums(n: int, max_part: int | None = None) -> Iterator[int]:
    """Yield ``sum(p * p for p in parts)`` for each ``parts`` that
    :func:`iter_partition_tuples` yields for the same arguments, in the
    same order: the first field of :func:`_walk`, with no tuple built."""
    for total, _, _ in _walk(n, max_part):
        yield total


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, reverse-lexicographically: (n) first, (1,...,1) last.

    n = 0 yields the single empty partition; negative n is rejected.
    """
    for parts in iter_partition_tuples(n):
        yield Partition(parts)


def enumerate_partitions_with_length(n: int, length: int) -> Iterator[Partition]:
    """Partitions of n with exactly ``length`` parts, in the global order.

    Degenerate requests (length < 1 or length > n) produce an empty
    stream and a :class:`DegenerateInputWarning`, not an error.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer ({n})")
    if length < 1 or length > n:
        warnings.warn(
            f"no partitions of {n} with {length} parts", DegenerateInputWarning, stacklevel=2
        )
        return
    yield from (Partition(t) for t in _fixed_length_tuples(n, length, n))


def _fixed_length_tuples(n: int, length: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into ``length`` parts of at most ``max_part``,
    reverse-lexicographically.  Not a filter of :func:`_walk`, which would
    go through all p(n) partitions at each n of ``verify --suite prop7``;
    sharing no code with the walk, it is also the walk's test oracle."""
    if length == 1:
        if 1 <= n <= max_part:
            yield (n,)
        return
    # first part p leaves n-p to split into length-1 parts, each in [1, p]
    hi = min(max_part, n - length + 1)
    lo = -(-n // length)  # ceil(n / length)
    for p in range(hi, lo - 1, -1):
        for rest in _fixed_length_tuples(n - p, length - 1, p):
            yield (p,) + rest


def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence (independent of enumeration)."""
    if n < 0:
        raise ValueError(f"p(n) undefined for negative n ({n})")
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def sum_of_squares(partition: Partition) -> int:
    """Sum of squared parts: the dimension value with no marked blocks."""
    return sum(p * p for p in partition.parts)


def dimension_value(marked: MarkedPartition) -> int:
    """Automorphism-group dimension of a marked partition.

    Squared parts summed, plus twice every marked part value (counted
    with mark multiplicity).
    """
    return sum_of_squares(marked.partition) + 2 * marked.marked_sum


def arm_count(partition: Partition) -> int:
    """Total number of arms in the partition's Young diagram.

    Row j of length p contributes p(p-1)/2 arms, so the total equals
    (sum_of_squares - n) / 2 exactly.
    """
    return sum(p * (p - 1) // 2 for p in partition.parts)


def distinct_arm_values(n: int) -> set[int]:
    """The set of arm totals over all partitions of n.

    Enumeration-backed; refuses n above :data:`ORACLE_MAX_N`.  Direct
    counting gives exactly one more distinct value than the compact
    dimension count, because the single-block partition contributes the
    excluded top value.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle is limited to n <= {ORACLE_MAX_N}, got {n}")
    # a partition's arm total is (square sum - n) / 2
    return {(total - n) // 2 for total in iter_square_sums(n)}
