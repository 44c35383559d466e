"""Bit-packed sets of achievable automorphism-group dimensions.

For a fixed n, every achievable value v lies in [n, n^2] and has the
parity of n, so a set is stored as one big integer whose bit j stands
for the value n + 2j.  The full family of square-sum sets satisfies the
recurrence

    S(n) = union over 0 <= i < n of (S(i) + (n-i)^2),    S(0) = {0},

because removing one part (n-i) from a partition of n leaves a partition
of i.  Translating a set by (n-i)^2 in value space is a left shift by
((n-i)^2 - (n-i)) / 2 in index space: a value v = i + 2j maps to
w = v + (n-i)^2 with index (w - n)/2 = j + ((n-i)^2 - (n-i))/2.

Most of each set is a dense prefix, so a :class:`DimSet` is held as
``(low, tail)``: ``low`` is the length of its run of ones from index 0
and ``tail`` the bits from there up.  Above ``low[n-1]`` S(n) is the OR
of only the small sets S(j) under each largest part n - j, so the build
sizes most rows from the small sets' lows and counts alone (see
:func:`build_table`).  A :class:`DimTable` therefore holds two numbers
per n, the low and the set size, plus the small sets in full, and
rebuilds any other set with one step when it is asked for.  The build
never uses the growth-sequence lemma, so the lemma's check stays
independent of it.  The same largest-part argument, over the
growth-sequence prefix, decides membership in S(n) and in G(n), the
values of marked partitions, with no table
(:func:`~reinhardt.classify.is_realizable`).  Tables and sets are
immutable once built and safe to share across threads.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from itertools import accumulate, compress
from math import isqrt
from typing import Iterator

from ._frozen import Frozen

#: Largest n accepted by the marked-value oracle (all mark submultisets).
MARKED_ORACLE_MAX_N = 80


def set_bit_length(n: int) -> int:
    """Number of representable indices for base n: (n^2 - n)/2 + 1."""
    return (n * n - n) // 2 + 1


class DimSet(Frozen):
    """Bit-packed set of dimension values sharing the parity of ``n``.

    Bit j represents the value n + 2j; indices run from 0 (value n) to
    (n^2 - n)/2 (value n^2).  The set is held as ``low``, the length of
    its run of ones from index 0, and ``tail``, the bits from index
    ``low`` up, so that bit 0 of ``tail`` is clear.  That form is unique,
    so equal sets compare and hash equal, and a set costs the size of its
    tail rather than of its full range.  ``DimSet(n, bits)`` takes the
    plain bit pattern and normalises it; ``bits`` rebuilds the pattern.
    """

    __slots__ = ("n", "low", "tail")
    n: int
    low: int
    tail: int

    def __init__(self, n: int, bits: int) -> None:
        if bits < 0:
            raise ValueError("bits must be a non-negative integer")
        low = _run(bits)
        self._set(n, low, bits >> low)

    @classmethod
    def from_prefix_tail(cls, n: int, low: int, tail: int) -> "DimSet":
        """The set whose indices below ``low`` are all present, with
        ``tail`` holding the bits from index ``low`` up; the pair must be
        in the canonical form described on the class."""
        self = object.__new__(cls)
        self._set(n, low, tail)
        return self

    def _set(self, n: int, low: int, tail: int) -> None:
        if n < 0:
            raise ValueError(f"base n must be non-negative, got {n}")
        if low < 0 or tail < 0:
            raise ValueError("low and tail must be non-negative")
        if tail & 1:
            raise ValueError("bit 0 of the tail must be clear")
        if low + tail.bit_length() > set_bit_length(n):
            raise ValueError(f"bits exceed the representable range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "tail", tail)

    @property
    def bits(self) -> int:
        """The full bit pattern, computed on each access."""
        return ((self.tail + 1) << self.low) - 1

    @property
    def length(self) -> int:
        return set_bit_length(self.n)

    @classmethod
    def from_values(cls, n: int, values) -> "DimSet":
        bits = 0
        for v in values:
            if (v - n) % 2 or not n <= v <= n * n:
                raise ValueError(f"value {v} not representable for base n={n}")
            bits |= 1 << ((v - n) // 2)
        return cls(n, bits)

    def __contains__(self, value: int) -> bool:
        if (value - self.n) % 2 or not self.n <= value <= self.n * self.n:
            return False
        j = (value - self.n) // 2 - self.low
        return j < 0 or bool((self.tail >> j) & 1)

    def __len__(self) -> int:
        return self.low + self.tail.bit_count()

    def __iter__(self) -> Iterator[int]:
        return self.values()

    def values(self) -> Iterator[int]:
        """Stored values in ascending order."""
        yield from range(self.n, self.n + 2 * self.low, 2)
        yield from self.tail_values()

    def tail_values(self) -> Iterator[int]:
        """The values above the dense prefix, in ascending order."""
        start = self.n + 2 * self.low
        # the tail's bits from bit 0 up as bytes 0 and 1, which select its values
        flags = bin(self.tail)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        yield from compress(range(start, start + 2 * len(flags), 2), flags)

    def to_set(self) -> set[int]:
        return set(self.values())


class TableCorruptionError(ValueError):
    """A table's stream is structurally broken, or a row is not the build's."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class DimTable(Frozen):
    """The square-sum sets for n = 0..n_max, held as two numbers per n.

    ``low[n]`` is the run of ones from index 0 in S(n) and ``count[n]``
    its size; :func:`compact_count` and :func:`noncompact_count` read the
    counts.  Every table holds the build's rows: ``DimTable(low, count)``
    builds once, when it is made, and raises :class:`TableCorruptionError`
    naming the first n whose row differs, the one row check of a table (a
    load's too).  It keeps the build's S(0..K), K = :func:`full_set_limit`
    (n_max), in full; ``sets[n]`` above K is rebuilt from them and
    ``low[n-1]`` by one step on each access.
    """

    __slots__ = ("low", "count", "sets")
    low: tuple[int, ...]
    count: tuple[int, ...]
    sets: SetSequence

    def __init__(self, low, count) -> None:
        low, count = tuple(low), tuple(count)
        if not low or len(low) != len(count):
            raise ValueError("a table needs one low and one count per n, from n = 0")
        built = build_table(len(low) - 1)
        if (low, count) != (built.low, built.count):
            rows = zip(zip(low, count), zip(built.low, built.count))
            n = next(n for n, (row, want) in enumerate(rows) if row != want)
            raise TableCorruptionError(
                f"record {n} stores low {low[n]} and count {count[n]}, but the build"
                f" gives low {built.low[n]} and count {built.count[n]}",
                record_index=n,
            )
        self._set(built.low, built.count, built.sets)

    @classmethod
    def _built(cls, low: list[int], count: list[int], full) -> "DimTable":
        """The table of the rows :func:`_rows` sized from ``full`` = S(0..K), which it shares."""
        self = object.__new__(cls)
        low = tuple(low)
        self._set(low, tuple(count), SetSequence(low, full))
        return self

    def _set(self, low: tuple[int, ...], count: tuple[int, ...], sets: SetSequence) -> None:
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "sets", sets)

    def _key(self) -> tuple:
        return self.low, self.count

    @property
    def n_max(self) -> int:
        return len(self.low) - 1


class SetSequence(Sequence):
    """``table.sets``: S(n) for n = 0..n_max, each rebuilt on access from
    the table's rows, which hold the build's, so no set is checked again
    (see :class:`DimTable`); slices give tuples of sets."""

    def __init__(self, low: tuple[int, ...], full) -> None:
        self._low, self._full = low, full

    def __len__(self) -> int:
        return len(self._low)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[n] for n in range(len(self))[index])
        n = range(len(self))[index]
        if n < len(self._full):
            return DimSet(n, self._full[n])
        return _stepped_set(n, self._low[n - 1], self._full)

    def __repr__(self) -> str:
        return f"SetSequence(n_max={len(self) - 1})"


def full_set_limit(n_max: int) -> int:
    """K = min(n_max, 2 isqrt(n_max) + 32): a table keeps S(0..K) in
    full.  A step at n reads S(j) for j <= J(n): every j < n for n <= 41,
    and above that J(n) <= 2 isqrt(n) + 5 (checked to 4096; J(1000) = 58)."""
    return min(n_max, 2 * isqrt(n_max) + 32)


def _step(n: int, reach: int, full, first: int = 0) -> int:
    """The bits of S(n) from index ``reach`` = low[n-1] up, bit i standing
    for index reach + i: the OR of the largest-part pieces, read from the
    full sets ``full[j]`` = S(j), j <= J(n); see :func:`build_table`.
    ``first`` > 0 leaves out the pieces j < ``first``.  Needing a set past
    ``full`` raises :class:`ValueError`.  Its loop sits near the start of
    its code object: under tracemalloc, Python 3.11 finds an allocation's
    line by scanning from the start.
    """
    big = 2 * (n + 2 * reach) > n * (n + 1)  # parts all below n/2 give <= n(n-1)/2
    d = n - first
    s, t = d * (d - 1) // 2 - reach, first * (first - 1) // 2  # off(d) - reach, off(j)
    acc = 0
    try:
        for j in range(first, n):  # largest part d = n - j, the rest any partition of j
            if big and (2 * j > n or s + t < 0):
                break
            acc |= full[j] << s if s >= 0 else full[j] >> -s
            d -= 1
            s, t = s - d, t + j  # off(d) = off(d + 1) - d, off(j + 1) = off(j) + j
    except IndexError:
        raise ValueError(
            f"S({n}) from index {reach} reads past S({len(full) - 1}), the last small set"
        ) from None
    return acc


def _stepped_set(n: int, start: int, full) -> DimSet:
    """S(n) by one :func:`_step` from ``start``, below which S(n) has every index."""
    acc = _step(n, start, full)
    low = start + _run(acc)
    return DimSet.from_prefix_tail(n, low, acc >> (low - start))


def build_table(n_max: int) -> DimTable:
    """Build the square-sum sets for all n up to n_max.

    A part 1 added to a partition of n-1 adds 1 to both n and the value,
    so S(n-1) lies in S(n) index for index, and every index below
    ``reach`` = low(n-1), the run of ones from index 0 in S(n-1), is in
    S(n).  Above ``reach`` each set is built from its largest part
    d = n - j, which puts S(j) at off_d = d(d-1)/2.  That piece reaches
    up to f(d) = off_d + top(j), with top(j) = (j^2-j)/2 the index of
    j^2, which is always in S(j).  A partition whose parts are all below
    n/2 has a square sum of at most n(n-1)/2.  So once the value of
    ``reach`` exceeds n(n+1)/2, every index above it has a largest part
    of at least n/2, and j runs up from 0 while 2j <= n and
    f(n-j) >= reach (f falls as j rises to n/2).  Below that bound (34
    values of n, all at most 41) j takes every value below n, which is
    the plain recurrence; the result equals it bit for bit.

    S(0..K), K = :func:`full_set_limit` (n_max), are built so, a step
    each, and kept by the table; the rows above K are sized from them, or
    stepped (:func:`_rows`).  n_max = 0 gives the trivial table of {0}.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    full = _small_sets(full_set_limit(n_max))
    return DimTable._built(*_rows(0, n_max, full), full)


def _rows(min_n: int, max_n: int, full, start: int = 0) -> tuple[list, list]:
    """(low, count) of S(n) for n = min_n..max_n from ``full`` = S(0..k).
    Row n > k starts at low[n - 1], or the window's first at ``start``;
    every index below either is in S(n).

    A step from the start puts piece j, S(j), at s_j = off(n - j) - start,
    n - j below piece j - 1; piece b, the first with s_b <= 0, holds the
    start.  The pieces below j end at most T(j + 1) - n above s_j,
    T(m) = m(m + 1)/2.  Where that is below low(j), the run of S(j), for
    every j <= b, the step holds from s_j to piece j - 1 just S(j)'s
    indices below n - j.  So |S(n)| = off(n - b) + sum_{j <= b} |S(j)
    below n - j|, and low[n] = off(n - j*) + low(j*), j* <= b the first
    piece not full (low(j*) + j* < n).  b only rises over a stretch of
    rows, so :func:`_sums` sums a stretch at once.  Other rows take a
    step (:func:`_stepped`).

    The sum also needs the start in piece b's run, and has it.  Else
    g = off(n - b) + low(b) < start is in S(n) and in no piece j <= n/2
    (b lacks it, j < b begin above the start, j > b end below g), so its
    parts are all below n/2: g <= n(n - 3)/4 < start - n/2, as a step
    starts above n(n - 1)/4.  With start < off(n - b + 1) = off(n - b) +
    n - b that gives T(b + 1) - n < low(b) < n/2 - b, so b^2 + 5b + 2 <
    3n, which puts off(n - b) above n(n - 3)/4 >= g (from n = 27 on as
    b < n/4; below, by trying each b), a contradiction.
    """
    offs = [(d * d - d) // 2 for d in range(max_n + 2)]  # off(d), read at every row
    lows = [_run(s) for s in full]
    sizes = [0, *accumulate(s.bit_count() for s in full)]  # |S(0)| + ... + |S(j - 1)|
    worst = list(accumulate(((j + 1) * (j + 2) // 2 - low for j, low in enumerate(lows)), max))
    rows = range(min_n, max_n + 1)
    low, count = lows[min_n:], [s.bit_count() for s in full[min_n:]]
    start = lows[-1] if min_n <= len(full) else start
    stretches, b = [], -1  # (joins, sized rows) of each stretch of rows over which b only rises
    for i, n in enumerate(rows[len(low) :], len(low)):
        if b < 0 or offs[n - b + 1] <= start:  # b falls: a new stretch
            b, (joins, sized) = -1, ([], [])  # (row, j) as b reaches j; rows to size
            stretches.append((joins, sized))
        while b < 0 or offs[n - b] > start:
            b += 1
            joins.append((i, b))
        big = 2 * (n + 2 * start) > n * (n + 1)  # a largest-part step, as in _step
        if big and 0 < b < len(full) and n > worst[b]:  # each piece's spill lies in its run
            js = b
            while lows[js] + js >= n:  # piece js is full
                js -= 1
            sized.append(i)
            count.append(offs[n - b])
            start = offs[n - js] + lows[js]
        else:
            start, size = _stepped(n, start, full, sizes)
            count.append(size)
        low.append(start)
    for joins, sized in stretches:
        if sized:  # joins past the last sized row count no row
            i0, i1 = joins[0][0], sized[-1]
            totals = _sums(full, [(i - i0, j) for i, j in joins if i <= i1], rows[i0 : i1 + 1])
            for i in sized:
                count[i] += totals[i - i0]
    return low, count


def _stepped(n: int, start: int, full, sizes: list[int]) -> tuple[int, int]:
    """(low, count) of S(n), n >= 1, by one step from ``start`` less its
    first c pieces, which lie apart, above the rest (T(j + 1) < n, s_j >= 0):
    they add ``sizes[c]`` = |S(0)| + ... + |S(c - 1)| to the count and
    nothing to the low, unless the rest is one run, which may reach them."""
    c = (isqrt(8 * n - 3) - 1) // 2 if 2 * (n + 2 * start) > n * (n + 1) else 0
    while c and (n - c + 1) * (n - c) // 2 < start:  # off(n - c + 1)
        c -= 1
    acc = _step(n, start, full, c)
    if c and not acc & (acc + 1):  # one run, which may reach piece c - 1
        c, acc = 0, _step(n, start, full)
    return start + _run(acc), start + sizes[c] + acc.bit_count()


def _small_sets(k: int) -> list[int]:
    """The bits of S(0..k), each step from the run of ones of the set before."""
    full = [1]  # S(0) = {0}
    for m in range(1, k + 1):
        low = _run(full[-1])
        full.append(((_step(m, low, full) + 1) << low) - 1)
    return full


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


def _run(bits: int) -> int:
    """The length of the run of ones from bit 0."""
    return (bits ^ (bits + 1)).bit_length() - 1


def marked_set_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Marked dimension values of partitions with capped parts.

    Bit j of ``rows[p][m]`` is set when m + 2j is the dimension value of
    some marked partition of m whose parts are all at most p.  A block d
    adds d to m and d^2 (unmarked) or d^2 + 2d (marked) to the value: a
    left shift by (d^2 - d)/2 or (d^2 + d)/2 in index space, the same
    shift-and-OR as :func:`build_table`.  Adding parts of size p is an
    unbounded knapsack over m ascending; ``rows[p]`` is the snapshot
    taken after part size p, sharing the unchanged ints of ``rows[p-1]``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    row = [1] + [0] * n_max
    rows = [tuple(row)]
    for p in range(1, n_max + 1):
        unmarked, marked = (p * p - p) // 2, (p * p + p) // 2
        for m in range(p, n_max + 1):
            prev = row[m - p]
            row[m] |= (prev << unmarked) | (prev << marked)
        rows.append(tuple(row))
    return tuple(rows)


def square_sums_bruteforce(n: int) -> DimSet:
    """Oracle: the set of squared-part sums via full partition enumeration.

    Must agree bit-for-bit with the recurrence-built set; refuses n above
    :data:`~reinhardt.partitions.ORACLE_MAX_N`.
    """
    from .partitions import ORACLE_MAX_N, iter_square_sums

    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > ORACLE_MAX_N:
        raise ValueError(f"enumeration oracle is limited to n <= {ORACLE_MAX_N}, got {n}")
    bits = 0
    for total in set(iter_square_sums(n)):
        bits |= 1 << ((total - n) // 2)
    return DimSet(n, bits)


def _check_count_range(table: DimTable, n: int, need_successor: bool) -> None:
    hi = table.n_max - 1 if need_successor else table.n_max
    if not 2 <= n <= hi:
        raise ValueError(f"n={n} out of range; counts are defined for 2 <= n <= {hi}")


def compact_count(table: DimTable, n: int) -> int:
    """c(n): number of compact dimensions (set size minus the top value)."""
    _check_count_range(table, n, need_successor=False)
    return table.count[n] - 1


def noncompact_count(table: DimTable, n: int) -> int:
    """h(n): number of noncompact dimensions, c(n+1) - c(n) - 1."""
    _check_count_range(table, n, need_successor=True)
    return compact_count(table, n + 1) - compact_count(table, n) - 1


def noncompact_set(table: DimTable, n: int) -> DimSet:
    """The set of noncompact dimensions for n.

    Computed as (C(n+1) - 1) minus (C(n) with its top value restored),
    where C(m) drops the top value m^2 from the square-sum set.  In bit
    space the -1 translation is free: the value v in base n+1 and the
    value v-1 in base n share the same index, so dropping the top bit of
    the (n+1)-set and masking off the full n-set is the whole formula.
    """
    _check_count_range(table, n, need_successor=True)
    top_succ = set_bit_length(n + 1) - 1
    shifted = table.sets[n + 1].bits & ~(1 << top_succ)
    return DimSet(n, shifted & ~table.sets[n].bits)


def dimensions_bruteforce(n: int, length: int, marks: int) -> set[int]:
    """Oracle: achievable dimensions for ``length`` blocks and ``marks`` marked.

    Enumerates every partition of n with exactly ``length`` parts and
    every sub-multiset of ``marks`` of its parts.  Out-of-range
    (length, marks) yields an empty set with a degenerate-input notice.
    """
    from .partitions import DegenerateInputWarning, _fixed_length_tuples

    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MARKED_ORACLE_MAX_N:
        raise ValueError(
            f"marked enumeration oracle is limited to n <= {MARKED_ORACLE_MAX_N}, got {n}"
        )
    if not (1 <= length <= n) or not (0 <= marks <= length):
        warnings.warn(
            f"no partitions of {n} with {length} parts and {marks} marks",
            DegenerateInputWarning,
            stacklevel=2,
        )
        return set()
    out: set[int] = set()
    for parts in _fixed_length_tuples(n, length, n):
        base = sum(p * p for p in parts)
        for s in _mark_sums(parts, marks):
            out.add(base + 2 * s)
    return out


def _mark_sums(parts: tuple[int, ...], marks: int) -> set[int]:
    """All distinct value-sums of sub-multisets of ``parts`` of size ``marks``."""
    sums = {0: {0}}  # mark count -> achievable sums
    for v in parts:
        for q in sorted(sums, reverse=True):
            if q + 1 > marks:
                continue
            nxt = sums.setdefault(q + 1, set())
            nxt.update(s + v for s in sums[q])
    return sums.get(marks, set())


def two_block_dimensions(n: int) -> set[int]:
    """Closed form for the dimensions achievable with exactly two blocks.

    Splits (a, n-a) with a >= n-a are parametrized by the offset from the
    even split; the four families below cover zero, one (either block),
    and two marks.
    """
    if n < 2:
        raise ValueError(f"two blocks need n >= 2, got {n}")
    out: set[int] = set()
    if n % 2 == 0:
        half_sq = n * n // 2
        for mu in range(n // 2):
            out.add(half_sq + 2 * mu * mu)
            out.add(half_sq + 2 * mu * (mu - 1) + n)
            out.add(half_sq + 2 * mu * (mu + 1) + n)
            out.add(half_sq + 2 * mu * mu + 2 * n)
    else:
        half_sq = (n * n + 1) // 2
        for mu in range((n - 3) // 2 + 1):
            out.add(half_sq + 2 * mu * (mu + 1))
            out.add(half_sq + 2 * mu * mu + n - 1)
            out.add(half_sq + 2 * mu * (mu + 2) + n + 1)
            out.add(half_sq + 2 * mu * (mu + 1) + 2 * n)
    return out


def smooth_bounded_sets(n: int, table: DimTable) -> tuple[DimSet, DimSet]:
    """(compact, noncompact) dimension sets for smooth bounded domains.

    Compact: squared-part sums over partitions with at least two blocks,
    i.e. the square-sum set minus its top value.  Noncompact: values with
    exactly one marked block and at least two blocks, capped at n^2 - 2,
    minus the compact set.  A marked partition of n with one mark is a
    partition of n+1 with one incremented part, so the one-marked values
    are the (n+1)-set minus {n+1, (n+1)^2}, shifted down by 1.  Both n and
    n^2 lie in S(n), so removing the compact set leaves
    :func:`noncompact_set`.
    """
    noncompact = noncompact_set(table, n)
    top = set_bit_length(n) - 1
    return DimSet(n, table.sets[n].bits & ~(1 << top)), noncompact
