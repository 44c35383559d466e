"""Command-line front end.

Subcommands: ``table`` (counts and ratios, CSV/JSON), ``set`` (one
square-sum set), ``classify`` and ``witness`` (structural answers for a
queried dimension), ``sequence`` (the inductive growth rows), and
``verify`` (the finite check suites).  CSV uses comma separators, LF
line endings and always a header row; JSON output is a single top-level
object with a ``rows`` array.  No command reads or writes a table cache:
``table`` takes each row's count, and ``set`` its one set, from the small
sets alone (see :mod:`reinhardt.lemma`), and ``classify`` reads and
builds no table (see :mod:`reinhardt.classify`).  ``--cache`` and
``--no-cache`` are accepted by ``table`` and ``set`` and not read.
"""

from __future__ import annotations

import gc
import sys
from itertools import islice
from types import SimpleNamespace
from typing import Any, Iterable, NoReturn, Sequence, TextIO

# Each command imports the package's modules when it runs, so a process
# loads only what its command uses.
#: Last row `table` prints, and largest n whose set `set` prints, without
#: --force.  The verify suites keep their own limits (see `verifiers`).
BUILD_LIMIT = 4096

_CHUNK = 512  # values per write in `set`, rows per JSON write in the others
_CENTURIES = 64  # whole centuries of `set`'s dense run per write
_DIGITS = [f"{d:02d}" for d in range(100)]  # the last two digits of a century's values


class CliError(Exception):
    pass


def _emit(fmt: str, header: Sequence[str], rows: Iterable[Sequence[Any]], out: TextIO) -> None:
    """Write ``rows`` as CSV under ``header`` (None is an empty field), or
    as JSON, each row an object keyed by ``header``: the text of one
    ``json.dumps`` of the document, one dump per :data:`_CHUNK` rows."""
    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    import json

    head, tail = _json_frame()
    out.write(head)
    rows, lead = iter(rows), ""
    while chunk := [dict(zip(header, row)) for row in islice(rows, _CHUNK)]:
        out.write(lead + json.dumps(chunk, ensure_ascii=False)[1:-1])
        lead = ", "
    out.write(tail)


def _json_frame() -> tuple[str, str]:
    return '{"rows": [', "]}\n"  # the JSON document around its rows


def cmd_table(args: SimpleNamespace) -> int:
    from .lemma import square_sum_counts
    from .sequences import _ratio_row

    lo, hi = args.min_n, args.max_n
    if not 2 <= lo <= hi:
        raise CliError(f"need 2 <= min_n <= max_n, got ({lo}, {hi})")
    if hi > BUILD_LIMIT and not args.force:
        raise CliError(f"`table` prints rows to n={BUILD_LIMIT} unless --force is given")
    counts = square_sum_counts(lo, hi)  # --cache and --no-cache are accepted and not read
    # h(n) needs |S(n + 1)|, so the last row has none
    rows = map(_ratio_row, range(lo, hi + 1), counts, [*counts[1:], None])
    if args.format == "csv":
        header = ("n", "c", "c/n^2", "h", "h/n")
    else:
        header = ("n", "c", "c_over_n2", "h", "h_over_n")
    if args.out in (None, "-"):
        _emit(args.format, header, rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            _emit(args.format, header, rows, out)
    return 0


def cmd_set(args: SimpleNamespace) -> int:
    from .lemma import square_sum_set

    n = args.n
    if n > BUILD_LIMIT and not args.force:
        raise CliError(
            f"S({n}) holds about {n * n // 2} values; `set` prints at most S({BUILD_LIMIT})"
            " unless --force is given"
        )
    dimset = square_sum_set(n)  # --cache and --no-cache are accepted and not read
    if args.format == "csv":
        head, sep, tail = f"n,values\n{n},", " ", "\n"
    else:  # the one row {"n": n, "values": [...]}, as json.dumps spells it
        head, tail = _json_frame()
        head, sep, tail = f'{head}{{"n": {n}, "values": [', ", ", "]}" + tail
    sys.stdout.write(head)
    # the dense prefix straight from its range; only the tail is walked bit by bit
    lead = _write_run(n, n + 2 * dimset.low, sep, sys.stdout)
    _write_joined(dimset.tail_values(), sep, sys.stdout, lead)
    sys.stdout.write(tail)
    return 0


def _write_run(lo: int, hi: int, sep: str, out: TextIO) -> str:
    """Write ``sep.join(map(str, range(lo, hi, 2)))`` and return the lead
    of what follows: ``sep``, or "" if nothing was written.  In a whole
    century [100q, 100q + 100) the run's 50 values differ only in q, so
    one join of their last two digits writes them, :data:`_CENTURIES`
    centuries per write; values below 100 and the partial centuries at
    either end go through :func:`_write_joined`."""
    p = lo % 2
    first, last = max(1, -(-(lo - p) // 100)), (hi - p) // 100  # whole centuries first..last-1
    if first >= last:
        return _write_joined(range(lo, hi, 2), sep, out)
    lead = _write_joined(range(lo, 100 * first + p, 2), sep, out)
    digits = _DIGITS[p::2]  # "00", "02", ..., "98", or "01", ..., "99"
    for q in range(first, last, _CENTURIES):
        centuries = map(str, range(q, min(q + _CENTURIES, last)))
        out.write(lead + sep.join([c + (sep + c).join(digits) for c in centuries]))
        lead = sep
    return _write_joined(range(100 * last + p, hi, 2), sep, out, lead)


def _write_joined(values: Iterable[int], sep: str, out: TextIO, lead: str = "") -> str:
    """Write ``lead`` and ``sep.join(map(str, values))``, if ``values`` is
    not empty, a chunk at a time, so a large set is never held as one list
    or string; one ``%`` per chunk formats it faster than a ``str`` call
    per value.  Returns the lead of what follows, as :func:`_write_run`."""
    values = iter(values)
    while chunk := tuple(islice(values, _CHUNK)):
        out.write(lead + sep.join(["%d"] * len(chunk)) % chunk)
        lead = sep
    return lead


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


def cmd_classify(args: SimpleNamespace) -> int:
    from .classify import classify_dimension

    result = classify_dimension(args.n, args.dim)
    if args.format == "json":
        record = _classification_record(result)
        _emit("json", record.keys(), [record.values()], sys.stdout)
        return 0
    rows = [(key, getattr(result, key)) for key in ("n", "dim", "status", "notes")]
    for fam in result.families:
        params = "; ".join(fam.parameters)
        rows.append(("family", f"{fam.tag}: {fam.description}" + (f" [{params}]" if params else "")))
    for real in result.realizations:
        rows.append(("realization", str(real)))
    _emit("csv", ("field", "value"), rows, sys.stdout)
    return 0


def cmd_witness(args: SimpleNamespace) -> int:
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


#: suite -> (the function in `verifiers`, its arguments before max_n, help)
_SUITES = {
    "bounds": ("verify_bounds", (2,), "value bounds and parity"),
    "lemma-largest": ("verify_largest_part", (7,), "large values need a big block"),
    "numh": ("verify_noncompact_growth", (2,), "noncompact growth (report-only)"),
    "arms": ("verify_arms", (1,), "Young-diagram arm totals"),
    "brute": ("verify_dp_oracle", (1,), "recurrence vs enumeration"),
    "prop7": ("verify_two_block_closed_form", (2,), "two-block closed form vs enumeration"),
    "sequences": ("verify_growth_sequence", (), "growth-sequence invariants"),
}


def cmd_verify(args: SimpleNamespace) -> int:
    from . import verifiers

    name, lead, _ = _SUITES[args.suite]
    report = getattr(verifiers, name)(*lead, args.max_n)
    record = {
        "suite": report.suite,
        "n_lo": report.n_lo,
        "n_hi": report.n_hi,
        "status": report.status,
        "elapsed_s": round(report.elapsed, 3),
        "notes": report.notes,
        "counterexamples": [list(ce) for ce in report.counterexamples],
    }
    if args.format == "json":
        _emit("json", record.keys(), [record.values()], sys.stdout)
    else:
        rows = [(key, value) for key, value in record.items() if key != "counterexamples"]
        for n, value, detail in report.counterexamples:
            rows.append(("counterexample", f"n={n} value={value}: {detail}"))
        _emit("csv", ("field", "value"), rows, sys.stdout)
    return 1 if report.status == verifiers.STATUS_FAIL else 0


def cmd_sequence(args: SimpleNamespace) -> int:
    from .sequences import _growth_walk

    if args.max_n < 1:
        raise CliError(f"max_n must be positive, got {args.max_n}")
    # 2g(n) = reach(n) + n + 4 (see `sequences.growth_sequence`)
    rows = ((n, f, f + n + 4, k) for n, (f, k) in zip(range(args.max_n + 1), _growth_walk()))
    _emit(args.format, ("n", "f", "2g", "k"), rows, sys.stdout)
    return 0


_FORMAT = ("--format", str, "csv", ("csv", "json"), "output format")
#: accepted by `table` and `set` and not read: no command keeps a cache
_NO_CACHE = (
    ("--cache", str, None, None, "accepted; no command reads a cache"),
    ("--no-cache", bool, False, None, "accepted; no command reads a cache"),
)
_REQUIRED = object()  # the default of an option that must be given

#: command -> (help, options); an option is (flag, type, default or
#: _REQUIRED, choices or None, help), and type ``bool`` takes no value
_COMMANDS = {
    "table": (
        "counts c(n), h(n) and their growth ratios",
        (
            ("--max-n", int, _REQUIRED, None, "last row"),
            ("--min-n", int, 2, None, "first row"),
            _FORMAT,
            ("--out", str, None, None, "output path (default stdout)"),
            *_NO_CACHE,
            ("--force", bool, False, None, f"print rows past n={BUILD_LIMIT}"),
        ),
    ),
    "set": (
        "print one achievable-dimension set",
        (
            ("--n", int, _REQUIRED, None, "complex dimension"),
            _FORMAT,
            *_NO_CACHE,
            ("--force", bool, False, None, f"print S(n) past n={BUILD_LIMIT}"),
        ),
    ),
    "classify": (
        "classify a queried (n, dim)",
        (
            ("--n", int, _REQUIRED, None, "complex dimension"),
            ("--dim", int, _REQUIRED, None, "automorphism-group dimension"),
            _FORMAT,
        ),
    ),
    "witness": (
        "symbolic domain realizing (n, dim)",
        (
            ("--n", int, _REQUIRED, None, "complex dimension"),
            ("--dim", int, _REQUIRED, None, "automorphism-group dimension"),
            ("--index", int, 0, None, "which candidate realization"),
        ),
    ),
    "verify": (
        "run a finite verification suite",
        (
            (
                "--suite",
                str,
                _REQUIRED,
                tuple(sorted(_SUITES)),
                "; ".join(f"{suite}: {entry[2]}" for suite, entry in _SUITES.items()),
            ),
            ("--max-n", int, _REQUIRED, None, "last n checked"),
            _FORMAT,
        ),
    ),
    "sequence": (
        "rows of the inductive growth sequences",
        (("--max-n", int, _REQUIRED, None, "last row"), _FORMAT),
    ),
}
_DESCRIPTION = (
    "Achievable automorphism-group dimensions of hyperbolic Reinhardt"
    " domains: tables, classification, witnesses, verification."
)


def _spelled(flag: str, kind: type, choices: tuple[str, ...] | None) -> str:
    """The option as usage shows it: ``--max-n MAX_N``, ``--format {csv,json}``."""
    if kind is bool:
        return flag
    if choices:
        return f"{flag} {{{','.join(choices)}}}"
    return f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: reinhardt [-h] {{{','.join(_COMMANDS)}}} ..."
    words = ["usage: reinhardt", command, "[-h]"]
    for flag, kind, default, choices, _ in _COMMANDS[command][1]:
        word = _spelled(flag, kind, choices)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    import textwrap

    if command is None:
        lines = [_usage(None), "", _DESCRIPTION, "", "commands:"]
        for name, (summary, _) in _COMMANDS.items():
            lines += [f"  {name:<10}{summary}", "    " + _usage(name)[len("usage: ") :]]
        lines += ["", "Run `reinhardt COMMAND --help` for a command's options."]
        return "\n".join(lines)
    lines = [_usage(command), "", _COMMANDS[command][0], "", "options:"]
    lines.append("  -h, --help\n      show this help message and exit")
    for flag, kind, default, choices, text in _COMMANDS[command][1]:
        if default is _REQUIRED:
            text += " (required)"
        elif default not in (None, False):
            text += f" (default {default})"
        lines.append("  " + _spelled(flag, kind, choices))
        lines += textwrap.wrap(text, 76, initial_indent=" " * 6, subsequent_indent=" " * 6)
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> NoReturn:
    print(_usage(command), file=sys.stderr)
    print(f"reinhardt: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_option(word: str) -> bool:
    """Whether ``word`` names an option: "-" and negative numbers are values."""
    return word[:1] == "-" and word != "-" and not word[1:].isdigit()


def _parse(argv: Sequence[str]) -> tuple[str, SimpleNamespace]:
    """The command named by ``argv`` and its options.  Options are spelled
    in full, as ``--opt value`` or ``--opt=value``; the last of a repeated
    option wins.  ``-h``/``--help`` prints help and exits 0; a usage error
    exits 2."""
    if argv and argv[0] in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = {spec[0]: spec for spec in _COMMANDS[command][1]}
    given: dict[str, Any] = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        flag, eq, value = token.partition("=")
        spec = options.get(flag) if token.startswith("--") else None
        if spec is None:
            _usage_error(command, f"unrecognized arguments: {token}")
        _, kind, _, choices, _ = spec
        if kind is bool:
            if eq:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            given[flag] = True
            continue
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                _usage_error(command, f"argument {flag}: expected one argument")
            value = rest[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid int value: {value!r}")
        if choices and value not in choices:
            listed = ", ".join(map(repr, choices))
            _usage_error(
                command, f"argument {flag}: invalid choice: {value!r} (choose from {listed})"
            )
        given[flag] = value
    missing = [f for f, spec in options.items() if spec[2] is _REQUIRED and f not in given]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    # each option as an attribute: --max-n is max_n
    return command, SimpleNamespace(
        **{flag[2:].replace("-", "_"): given.get(flag, spec[2]) for flag, spec in options.items()}
    )


def main(argv: Sequence[str] | None = None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at call time, so a wrapped cmd_* is the one that runs
        return globals()[f"cmd_{command}"](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if argv is None:
            # a process's entry point: move the heap out of the collector's
            # reach, so the exit does not traverse it in one last collection
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
