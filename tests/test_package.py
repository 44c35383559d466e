"""The package imports lazily, and a CLI command loads only what it runs."""

import json
import os
import subprocess
import sys

import pytest

import reinhardt


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(reinhardt)
    for name in reinhardt.__all__:
        assert name in listed
        value = getattr(reinhardt, name)
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from reinhardt import *", namespace)
    assert set(reinhardt.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        reinhardt.no_such_name


# Run in a fresh interpreter: prints the modules that `import reinhardt.cli`,
# then one `sequence` command, one `set` command and one `table` command
# load on top of what the interpreter started with.
_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import reinhardt.cli
after_import = set(sys.modules) - before
with redirect_stdout(io.StringIO()):
    code = reinhardt.cli.main(["sequence", "--max-n", "20"])
after_sequence = set(sys.modules) - before
with redirect_stdout(io.StringIO()):
    code |= reinhardt.cli.main(["set", "--n", "30", "--no-cache"])
after_set = set(sys.modules) - before
with redirect_stdout(io.StringIO()):
    code |= reinhardt.cli.main(["table", "--min-n", "89", "--max-n", "100", "--cache", "t.rdim"])
after_table = set(sys.modules) - before
print(json.dumps([sorted(after_import), sorted(after_set), sorted(after_table),
                  sorted(after_sequence), code]))
"""


def test_cli_imports_only_what_a_command_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(reinhardt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    ).stdout
    after_import, after_set, after_table, after_sequence, code = json.loads(out)
    assert code == 0
    unused = {"dataclasses", "inspect", "fractions", "reinhardt.classify", "reinhardt.verifiers"}
    unused |= {"argparse", "gettext", "locale"}  # argv is parsed from a table in `cli`
    assert not unused & set(after_import)
    assert not {"reinhardt.partitions", "reinhardt.sequences"} & set(after_import)
    assert not unused & set(after_set)
    # `set` reads no cache: it loads neither the table format nor classify
    assert not {"reinhardt.storage", "reinhardt.classify"} & set(after_set)
    # nor does `table`, which takes its rows from the growth lemma's step
    assert not {"reinhardt.storage", "reinhardt.classify", "reinhardt.verifiers"} & set(
        after_table
    )
    assert list(tmp_path.iterdir()) == []  # and writes no cache
    # after_table holds what all three commands loaded
    assert not {"fractions", "decimal"} & set(after_table)
    assert not {"fractions", "decimal"} & set(after_sequence)
    # `sequence` runs the growth walk alone: no sets, no partitions
    assert not {"reinhardt.dimsets", "reinhardt._frozen", "reinhardt.partitions"} & set(
        after_sequence
    )


# Run in a fresh interpreter: prints the `reinhardt` modules that one
# classify command loads, with its exit code.
_CLASSIFY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import reinhardt.cli
with redirect_stdout(io.StringIO()):
    code = reinhardt.cli.main(["classify", "--n", "391", "--dim", "2159"])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("reinhardt")), code]))
"""


def test_classify_loads_no_growth_sequence_module():
    # n = 391 is past the fixed base, so the query needs reach(391), which
    # classify takes from the growth lemma's module, not from the sequences
    src = os.path.dirname(os.path.dirname(reinhardt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _CLASSIFY_PROBE], env=env, check=True, capture_output=True, text=True
    ).stdout
    loaded, code = json.loads(out)
    assert code == 0 and "reinhardt.classify" in loaded
    assert "reinhardt.sequences" not in loaded
