"""Independent expectations for every CLI output the benchmark produces.

The checks run after the timed region.  Each one compares a command's
stdout with something the command did not compute itself: the committed
(c, h) checkpoints, full partition enumeration for small n, the growth
recurrence re-derived from the printed rows, or the counts and sets
that other commands of the same run printed.  A command whose exit code
is not 0, or whose output fails its check, is one failed operation.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from typing import Iterable, Sequence

from reinhardt.dimsets import dimensions_bruteforce, square_sums_bruteforce
from reinhardt.partitions import (
    MarkedPartition,
    Partition,
    dimension_value,
    iter_partition_tuples,
)

#: (c(n), h(n)) at the ten checkpoints committed in the acceptance suite.
CHECKPOINTS = {
    20: (117, 11),
    40: (537, 31),
    60: (1294, 47),
    80: (2403, 62),
    100: (3880, 81),
    200: (16785, 176),
    400: (70922, 365),
    600: (163415, 559),
    800: (294630, 753),
    1000: (464692, 949),
}

#: Set contents and classify statuses are checked by enumeration up to here.
ORACLE_MAX_N = 40

#: Realizations are listed by `classify` up to here; above it the list is empty.
REALIZATION_MAX_N = 80

STATUSES = (
    "compact_bad",
    "noncompact_good",
    "general_only",
    "unrealizable",
    "n_squared",
    "ball",
    "ball_times_disc",
)

_REALIZATION = re.compile(
    r"\((?P<parts>[\d,]*)\) marks\[(?P<marks>[^\]]*)\]"
    r" \(blocks=(?P<blocks>\d+), marked=(?P<marked>\d+)\)"
)
_CLAIMED = re.compile(r"\(construction (egg|marked_egg), claimed dimension (\d+)\)")


class CheckFailure(Exception):
    """A command's output disagrees with its expectation."""


def value_classes(n: int) -> tuple[set[int], set[int], set[int]]:
    """(compact, one-mark, any-mark) dimension values of n by enumeration.

    Compact values are square sums of partitions with at least two
    parts; one-mark values add twice one part to such a sum; any-mark
    values add twice any sub-multiset sum of the parts, found by a
    subset-sum bitset per partition.
    """
    compact: set[int] = set()
    one_mark: set[int] = set()
    any_mark: set[int] = set()
    for parts in iter_partition_tuples(n):
        base = sum(p * p for p in parts)
        sums = 1
        for p in parts:
            sums |= sums << p
        any_mark.update(base + 2 * s for s in range(sums.bit_length()) if sums >> s & 1)
        if len(parts) >= 2:
            compact.add(base)
            one_mark.update(base + 2 * p for p in set(parts))
    return compact, one_mark, any_mark


@functools.lru_cache(maxsize=None)
def _oracle_sets(n: int) -> tuple[set[int], set[int], set[int]]:
    # Zero and one marks come from the package's marked enumeration oracle.
    # Its cost grows with the mark count (about a minute for all marks at
    # n = 40), so values needing two or more marks come from value_classes.
    compact: set[int] = set()
    one_mark: set[int] = set()
    for length in range(2, n + 1):
        compact |= dimensions_bruteforce(n, length, 0)
        one_mark |= dimensions_bruteforce(n, length, 1)
    return compact, one_mark, value_classes(n)[2]


def expected_status(n: int, dim: int) -> str:
    """The classification ladder, decided by enumeration (n <= ORACLE_MAX_N)."""
    top = n * n
    if (dim - n) % 2 or dim < n or dim > top + 2 * n:
        return "unrealizable"
    if dim == top + 2 * n:
        return "ball"
    if dim == top + 2:
        return "ball_times_disc"
    if dim == top:
        return "n_squared"
    if dim > top - 2:
        return "unrealizable"
    compact, one_mark, any_mark = _oracle_sets(n)
    if dim in compact:
        return "compact_bad"
    if dim in one_mark:
        return "noncompact_good"
    if dim in any_mark:
        return "general_only"
    return "unrealizable"


def _options(args: Sequence[str]) -> dict[str, str]:
    return dict(zip(args[1::2], args[2::2]))


def _rows(stdout: str, header: Sequence[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != list(header):
        raise CheckFailure(f"header {rows[0] if rows else None}, expected {list(header)}")
    return rows[1:]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _check_ratio(text: str, num: int, den: int, what: str) -> None:
    _expect(abs(float(text) - num / den) <= 0.5e-4, f"{what} {text} != {num}/{den}")


class Checker:
    """Checks the commands of one run; later commands may rely on the
    counts and sets earlier `table` and `set` outputs printed."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.sets: dict[int, set[int]] = {}

    def check(self, args: Sequence[str], returncode: int, stdout: str) -> None:
        if returncode != 0:
            raise CheckFailure(f"exit code {returncode}")
        getattr(self, "_" + args[0])(_options(args), stdout)

    def _table(self, opts: dict[str, str], stdout: str) -> None:
        lo, hi = int(opts.get("--min-n", 2)), int(opts["--max-n"])
        rows = _rows(stdout, ("n", "c", "c/n^2", "h", "h/n"))
        _expect([int(r[0]) for r in rows] == list(range(lo, hi + 1)), "rows do not run lo..hi")
        for n_text, c_text, cr, h_text, hr in rows:
            n, c = int(n_text), int(c_text)
            _check_ratio(cr, c, n * n, f"c/n^2 at n={n}")
            _expect(self.counts.setdefault(n, c) == c, f"c({n}) differs between commands")
            if n in CHECKPOINTS:
                _expect(c == CHECKPOINTS[n][0], f"c({n}) = {c}, expected {CHECKPOINTS[n][0]}")
            if n == hi:
                _expect(h_text == hr == "", f"top row n={n} reports h")
                continue
            h = int(h_text)
            _check_ratio(hr, h, n, f"h/n at n={n}")
            if n in CHECKPOINTS:
                _expect(h == CHECKPOINTS[n][1], f"h({n}) = {h}, expected {CHECKPOINTS[n][1]}")
            if n + 1 <= hi:
                nxt = int(rows[n + 1 - lo][1])
                _expect(h == nxt - c - 1, f"h({n}) != c({n + 1}) - c({n}) - 1")

    def _set(self, opts: dict[str, str], stdout: str) -> None:
        k = int(opts["--n"])
        # one unquoted row, often longer than the csv module's field limit
        lines = stdout.splitlines()
        _expect(lines[:1] == ["n,values"] and len(lines) == 2, "expected a header and one row")
        n_text, _, values_text = lines[1].partition(",")
        _expect(n_text == str(k), f"row is for n={n_text}, expected {k}")
        values = [int(v) for v in values_text.split()]
        if k <= ORACLE_MAX_N:
            bits = square_sums_bruteforce(k).bits
            expected = [k + 2 * j for j in range(bits.bit_length()) if bits >> j & 1]
            _expect(values == expected, f"S({k}) differs from the enumeration oracle")
        else:
            _expect(values[:1] == [k] and values[-1:] == [k * k], f"S({k}) must run {k}..{k * k}")
            _expect(
                all(b > a and (b - a) % 2 == 0 for a, b in zip(values, values[1:])),
                f"S({k}) is not ascending in steps of 2",
            )
            _expect(k in self.counts, f"no table count for n={k} in this run")
            _expect(
                len(values) == self.counts[k] + 1,
                f"|S({k})| = {len(values)}, table says c({k}) + 1 = {self.counts[k] + 1}",
            )
        self.sets[k] = set(values)

    def _classify(self, opts: dict[str, str], stdout: str) -> None:
        n, dim = int(opts["--n"]), int(opts["--dim"])
        rows = _rows(stdout, ("field", "value"))
        fields = dict(rows[:4])
        _expect(fields.get("n") == str(n) and fields.get("dim") == str(dim), "n/dim not echoed")
        status = fields.get("status")
        _expect(status in STATUSES, f"unknown status {status!r}")
        reals = [value for field, value in rows[4:] if field == "realization"]
        for text in reals:
            m = _REALIZATION.fullmatch(text)
            _expect(m is not None, f"unparsable realization {text!r}")
            parts = tuple(int(p) for p in m["parts"].split(","))
            marks = tuple(
                (int(v), int(c or 1))
                for v, _, c in (entry.partition("x") for entry in m["marks"].split(",") if entry)
            )
            marked = MarkedPartition(Partition(parts), marks)
            _expect(sum(parts) == n and int(m["blocks"]) == len(parts), f"{text} is not of n={n}")
            _expect(int(m["marked"]) == marked.mark_count, f"{text} miscounts its marks")
            _expect(dimension_value(marked) == dim, f"{text} evaluates to {dimension_value(marked)}")
        if n <= REALIZATION_MAX_N:
            _expect(bool(reals) == (status != "unrealizable"), f"status {status} vs realizations")
        if n <= ORACLE_MAX_N:
            want = expected_status(n, dim)
            _expect(status == want, f"status {status}, expected {want}")
        elif n in self.sets and n <= dim <= n * n - 2:
            compact = dim in self.sets[n]
            _expect((status == "compact_bad") == compact, f"status {status} vs S({n})")

    def _witness(self, opts: dict[str, str], stdout: str) -> None:
        lines = stdout.splitlines()
        _expect(len(lines) == 2 and lines[0].endswith("<1"), "expected inequality and label")
        m = _CLAIMED.search(lines[1])
        _expect(m is not None, f"no claimed dimension in {lines[1]!r}")
        _expect(int(m[2]) == int(opts["--dim"]), f"claimed dimension {m[2]} != {opts['--dim']}")

    def _verify(self, opts: dict[str, str], stdout: str) -> None:
        rows = _rows(stdout, ("field", "value"))
        fields = dict(rows)
        suite = opts["--suite"]
        want = "report-only" if suite == "numh" else "pass"
        _expect(fields.get("suite") == suite, f"suite {fields.get('suite')} != {suite}")
        _expect(fields.get("status") == want, f"suite {suite} status {fields.get('status')}")
        _expect(fields.get("n_hi") == opts["--max-n"], "n_hi not echoed")

    def _sequence(self, opts: dict[str, str], stdout: str) -> None:
        rows = [[int(x or -1) for x in r] for r in _rows(stdout, ("n", "f", "2g", "k"))]
        m = int(opts["--max-n"])
        _expect([r[0] for r in rows] == list(range(m + 1)), "rows do not run 0..max_n")
        reach = [0]
        for n, f, two_g, k in rows[1:]:
            _expect(0 <= k < n and (n == 1 or k >= rows[n - 1][3]), f"anchor({n}) = {k}")
            reach.append((n - k) ** 2 + reach[k])
            _expect(f == reach[n] and two_g == f + n + 4, f"row {n} breaks the recurrence")
        if m >= 18:
            _expect(rows[18][3] == 7, f"anchor(18) = {rows[18][3]}, expected 7")


def _check_order(args: Sequence[str]) -> int:
    return {"table": 0, "set": 1}.get(args[0], 2)


def check_commands(
    commands: Iterable[tuple[Sequence[str], int, str]],
) -> list[tuple[int, str]]:
    """Check (args, exit code, stdout) triples of one run.

    Returns (index, reason) for every failed command.  `table` outputs are
    checked first and `set` outputs second, so later checks can use the
    counts and sets they printed.
    """
    commands = list(commands)
    checker = Checker()
    failures = []
    for i in sorted(range(len(commands)), key=lambda i: _check_order(commands[i][0])):
        args, returncode, stdout = commands[i]
        try:
            checker.check(args, returncode, stdout)
        except Exception as exc:  # any malformed output is one failed command
            failures.append((i, f"{' '.join(args)}: {type(exc).__name__}: {exc}"))
    return sorted(failures)
