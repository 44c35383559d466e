"""Tests of the benchmark's output checker.

    python3 -m pytest perfbench/test_checks.py

Outputs come from the real CLI run in-process, then are tampered with;
every tampered output and every nonzero exit must count as a failed
command.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_commands  # noqa: E402
from reinhardt.cli import main  # noqa: E402


def cli(*args: str) -> tuple[tuple[str, ...], int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return args, code, out.getvalue()


def drop_one_value(outcome):
    args, code, stdout = outcome
    header, row = stdout.splitlines()
    n, _, values = row.partition(",")
    kept = values.split()
    del kept[len(kept) // 2]
    return args, code, f"{header}\n{n},{' '.join(kept)}\n"


def test_correct_outputs_pass():
    commands = [
        cli("set", "--n", "50", "--no-cache"),
        cli("table", "--max-n", "61", "--no-cache"),
        cli("set", "--n", "12", "--no-cache"),
        cli("classify", "--n", "10", "--dim", "62"),
        cli("witness", "--n", "9", "--dim", "45"),
        cli("verify", "--suite", "numh", "--max-n", "20"),
        cli("sequence", "--max-n", "30"),
    ]
    assert check_commands(commands) == []


def test_dropped_set_value_is_a_failed_command():
    table = cli("table", "--max-n", "61", "--no-cache")
    small = drop_one_value(cli("set", "--n", "12", "--no-cache"))
    large = drop_one_value(cli("set", "--n", "50", "--no-cache"))
    failures = check_commands([table, small, large])
    assert [i for i, _ in failures] == [1, 2]
    assert "enumeration oracle" in failures[0][1] and "c(50) + 1" in failures[1][1]


def test_nonzero_exit_is_a_failed_command():
    args, _, stdout = cli("verify", "--suite", "brute", "--max-n", "10")
    failures = check_commands([(args, 1, stdout), cli("set", "--n", "3", "--no-cache")])
    assert failures == [(0, " ".join(args) + ": CheckFailure: exit code 1")]


def test_wrong_checkpoint_status_and_claim_fail():
    args, code, stdout = cli("table", "--max-n", "41", "--no-cache")
    table = (args, code, stdout.replace("\n20,117,", "\n20,118,"))
    args, code, stdout = cli("classify", "--n", "10", "--dim", "62")
    classify = (args, code, stdout.replace("status,general_only", "status,unrealizable"))
    args, code, stdout = cli("witness", "--n", "9", "--dim", "45")
    witness = (args, code, stdout.replace("claimed dimension 45", "claimed dimension 47"))
    assert [i for i, _ in check_commands([table, classify, witness])] == [0, 1, 2]
