"""Command-line front end.

Subcommands: ``table`` (counts and ratios, CSV/JSON), ``set`` (one
square-sum set), ``classify`` and ``witness`` (structural answers for a
queried dimension), ``sequence`` (the inductive growth rows), and
``verify`` (the finite check suites).  CSV uses comma separators, LF
line endings and always a header row; JSON output is a single top-level
object with a ``rows`` array.  The environment variable
``REINHARDT_CACHE`` supplies a default table-cache path.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from typing import Any, Iterable, Sequence, TextIO

# Each command imports the rest of the package when it runs, so a process
# loads only what its command uses.
from .dimsets import DimTable, build_table
from .storage import (
    OldFormatError,
    TableCorruptionError,
    UnsupportedFormatError,
    load_table,
    save_table,
)

#: Largest table built inline without --force; a covering cache serves any n.
BUILD_LIMIT = 4096

CACHE_ENV_VAR = "REINHARDT_CACHE"
_CHUNK = 4096  # values per write in `set`


class CliError(Exception):
    pass


def _emit_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]], out: TextIO) -> None:
    import csv as _csv

    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def _json_text(rows: Sequence[dict[str, Any]]) -> str:
    import json

    return json.dumps({"rows": list(rows)}, ensure_ascii=False) + "\n"


def _emit_json(rows: Sequence[dict[str, Any]], out: TextIO) -> None:
    out.write(_json_text(rows))


def _default_cache(value: str | None) -> str | None:
    if value is not None:
        return value
    return os.environ.get(CACHE_ENV_VAR) or None


def _load_or_build(n_max: int, cache: str | None, force: bool = False) -> DimTable:
    """The table for n = 0..n_max: read from the front of the cached table
    if that covers n_max, else built (refused above :data:`BUILD_LIMIT`
    unless ``force``) and saved to the cache, if any.  A cache in an older
    format is rebuilt the same way, with one warning on stderr."""
    if cache and os.path.exists(cache):
        try:
            with open(cache, "rb") as fh:
                table = load_table(fh, n_max)
        except OldFormatError as exc:
            print(f"warning: cache {cache}: {exc}; rebuilding it", file=sys.stderr)
        else:
            if table.n_max >= n_max:
                return table
    if n_max > BUILD_LIMIT and not force:
        raise CliError(
            f"no cached table covers n={n_max}; inline builds stop at n={BUILD_LIMIT}"
            f" (pass --force to `table` or `set`, or set ${CACHE_ENV_VAR} to a cache"
            f" written by `table --max-n {n_max} --force --cache PATH`)"
        )
    table = build_table(n_max)
    if cache:
        _save_cache(table, cache)
    return table


def _save_cache(table: DimTable, cache: str) -> None:
    """Save to a temporary file beside the cache and replace the cache only
    once complete, so a failed save leaves any previous cache intact."""
    tmp = f"{cache}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            save_table(table, fh)
        os.replace(tmp, cache)
    except BaseException:
        os.remove(tmp)
        raise


def _open_out(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_table(args: argparse.Namespace) -> int:
    from .sequences import ratio_table

    if not 2 <= args.min_n <= args.max_n:
        raise CliError(f"need 2 <= min_n <= max_n, got ({args.min_n}, {args.max_n})")
    cache = None if args.no_cache else _default_cache(args.cache)
    table = _load_or_build(args.max_n, cache, args.force)
    records = [
        (r.n, r.compact, r.compact_ratio, r.noncompact, r.noncompact_ratio)
        for r in ratio_table(table, list(range(args.min_n, args.max_n + 1)))
    ]
    out, close = _open_out(args.out)
    try:
        if args.format == "csv":
            rows = [["" if v is None else v for v in record] for record in records]
            _emit_csv(("n", "c", "c/n^2", "h", "h/n"), rows, out)
        else:
            keys = ("n", "c", "c_over_n2", "h", "h_over_n")
            _emit_json([dict(zip(keys, record)) for record in records], out)
    finally:
        if close:
            out.close()
    return 0


def cmd_set(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise CliError(f"n must be non-negative, got {n}")
    cache = None if args.no_cache else _default_cache(args.cache)
    dimset = _load_or_build(n, cache, args.force).sets[n]
    if args.format == "csv":
        head, sep, tail = f"n,values\n{n},", " ", "\n"
    else:
        # the empty set's document, split at its one "[]"; json.dumps
        # separates list items with ", "
        head, tail = _json_text([{"n": n, "values": []}]).split("[]")
        head, sep, tail = head + "[", ", ", "]" + tail
    sys.stdout.write(head)
    # the dense prefix straight from its range; only the tail is walked bit by bit
    prefix = range(n, n + 2 * dimset.low, 2)
    _write_joined(chain(prefix, dimset.tail_values()), sep, sys.stdout)
    sys.stdout.write(tail)
    return 0


def _write_joined(values: Iterable[int], sep: str, out: TextIO) -> None:
    """Write ``sep.join(map(str, values))`` a chunk at a time, so a large
    set is never held as one list or string; one ``%`` per chunk formats
    it faster than a ``str`` call per value."""
    values = iter(values)
    lead = ""
    while chunk := tuple(islice(values, _CHUNK)):
        out.write(lead + sep.join(["%d"] * len(chunk)) % chunk)
        lead = sep


def _classification_record(result) -> dict[str, Any]:
    return {
        "n": result.n,
        "dim": result.dim,
        "status": result.status,
        "notes": result.notes,
        "families": [
            {"tag": f.tag, "description": f.description, "parameters": list(f.parameters)}
            for f in result.families
        ],
        "realizations": [
            {
                "parts": list(r.marked.partition.parts),
                "marks": [[v, c] for v, c in r.marked.marks],
                "blocks": r.length,
                "marked": r.mark_count,
            }
            for r in result.realizations
        ],
    }


def cmd_classify(args: argparse.Namespace) -> int:
    from .classify import classify_dimension

    if args.n < 2:
        raise CliError(f"classification needs n >= 2, got {args.n}")
    table = _load_or_build(args.n + 1, _default_cache(None))
    result = classify_dimension(table, args.n, args.dim)
    if args.format == "json":
        _emit_json([_classification_record(result)], sys.stdout)
        return 0
    rows: list[tuple[str, Any]] = [
        ("n", result.n),
        ("dim", result.dim),
        ("status", result.status),
        ("notes", result.notes),
    ]
    for fam in result.families:
        params = "; ".join(fam.parameters)
        rows.append(("family", f"{fam.tag}: {fam.description}" + (f" [{params}]" if params else "")))
    for real in result.realizations:
        rows.append(("realization", str(real)))
    _emit_csv(("field", "value"), rows, sys.stdout)
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    from .classify import make_witness, realizations

    if args.n < 2:
        raise CliError(f"witnesses need n >= 2, got {args.n}")
    candidates = realizations(args.n, args.dim, mode="smooth_bounded")
    if not candidates:
        raise CliError(
            f"no smooth-bounded witness for (n={args.n}, dim={args.dim}):"
            " smooth bounded domains only realize values with at most one marked"
            " block, at least two blocks, and dim <= n^2-2"
        )
    if not 0 <= args.index < len(candidates):
        raise CliError(
            f"witness index {args.index} out of range: {len(candidates)} candidate(s)"
        )
    witness = make_witness(candidates[args.index])
    print(witness.inequality)
    print(
        f"{witness.label} (construction {witness.construction},"
        f" claimed dimension {witness.claimed_dimension})"
    )
    return 0


# suite -> the function in `verifiers` and its arguments before max_n
_VERIFY_SUITES = {
    "bounds": ("verify_bounds", 2),
    "lemma-largest": ("verify_largest_part", 7),
    "numh": ("verify_noncompact_growth", 2),
    "arms": ("verify_arms", 1),
    "brute": ("verify_dp_oracle", 1),
    "prop7": ("verify_two_block_closed_form", 2),
    "sequences": ("verify_growth_sequence",),
}
# suites limited only by the table they build: how far past max_n it goes
_VERIFY_TABLE_PAST = {"sequences": 0, "numh": 1}


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verifiers

    past = _VERIFY_TABLE_PAST.get(args.suite)
    if past is not None and args.max_n + past > BUILD_LIMIT:
        raise CliError(
            f"suite {args.suite} builds the table to n={args.max_n + past};"
            f" inline builds stop at n={BUILD_LIMIT}"
        )
    name, *lead = _VERIFY_SUITES[args.suite]
    report = getattr(verifiers, name)(*lead, args.max_n)
    if args.format == "json":
        _emit_json(
            [
                {
                    "suite": report.suite,
                    "n_lo": report.n_lo,
                    "n_hi": report.n_hi,
                    "status": report.status,
                    "elapsed_s": round(report.elapsed, 3),
                    "notes": report.notes,
                    "counterexamples": [list(ce) for ce in report.counterexamples],
                }
            ],
            sys.stdout,
        )
    else:
        rows: list[tuple[str, Any]] = [
            ("suite", report.suite),
            ("n_lo", report.n_lo),
            ("n_hi", report.n_hi),
            ("status", report.status),
            ("elapsed_s", round(report.elapsed, 3)),
            ("notes", report.notes),
        ]
        for n, value, detail in report.counterexamples:
            rows.append(("counterexample", f"n={n} value={value}: {detail}"))
        _emit_csv(("field", "value"), rows, sys.stdout)
    return 1 if report.status == verifiers.STATUS_FAIL else 0


def cmd_sequence(args: argparse.Namespace) -> int:
    from .sequences import growth_sequence

    if args.max_n < 1:
        raise CliError(f"max_n must be positive, got {args.max_n}")
    rows = growth_sequence(args.max_n)
    if args.format == "csv":
        _emit_csv(
            ("n", "f", "2g", "k"),
            [
                (r.n, r.reach, 2 * r.threshold, "" if r.anchor is None else r.anchor)
                for r in rows
            ],
            sys.stdout,
        )
    else:
        _emit_json(
            [
                {"n": r.n, "f": r.reach, "2g": 2 * r.threshold, "k": r.anchor}
                for r in rows
            ],
            sys.stdout,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinhardt",
        description=(
            "Achievable automorphism-group dimensions of hyperbolic Reinhardt"
            " domains: tables, classification, witnesses, verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_cache(p: argparse.ArgumentParser) -> None:
        cache_help = f"table cache path (default ${CACHE_ENV_VAR})"
        p.add_argument("--cache", default=None, help=cache_help)
        p.add_argument("--no-cache", action="store_true")
        force_help = f"build past n={BUILD_LIMIT} when no cache covers n"
        p.add_argument("--force", action="store_true", help=force_help)

    p = sub.add_parser("table", help="counts c(n), h(n) and their growth ratios")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--min-n", type=int, default=2, dest="min_n")
    add_format(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    add_cache(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("set", help="print one achievable-dimension set")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    add_cache(p)
    p.set_defaults(func=cmd_set)

    p = sub.add_parser("classify", help="classify a queried (n, dim)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("witness", help="symbolic domain realizing (n, dim)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run a finite verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(_VERIFY_SUITES),
        help=(
            "bounds: value bounds and parity; lemma-largest: large values need a"
            " big block; numh: noncompact growth (report-only); arms: Young-diagram"
            " arm totals; brute: recurrence vs enumeration; prop7: two-block closed"
            " form vs enumeration; sequences: growth-sequence invariants"
        ),
    )
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="rows of the inductive growth sequences")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_format(p)
    p.set_defaults(func=cmd_sequence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        TableCorruptionError,
        UnsupportedFormatError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
