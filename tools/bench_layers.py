"""Layer timings of one or two source trees, each measured in child processes.

    python3 tools/bench_layers.py --tree NAME=TREE [--tree OTHER=TREE2]
                                  --out BENCH_x.json [--sizes 500 1000 2000]

Every layer runs ``ROUNDS`` rounds, and each round starts one child per
tree.  With two trees the order alternates, so each tree goes first in
half the rounds: trees measured one after the other drift apart by more
than most changes (unchanged code read up to 1.6x apart that way).  A
child times its job ``REPEATS`` times and keeps the best; per tree a
layer records ``s``, the median over rounds of those best times, with
its quartiles (``s_quartiles``), the largest child peak RSS
(``maxrss_mib``) and the median of the children's minor page faults
(``minflt``, from ``ru_minflt``).  With two trees the second also
records ``ratio``: the median and quartiles over rounds of its best time
divided by the first tree's in the same round, and ``lower_in``, the
number of rounds in which it read lower.  A host that drifts moves both
children of a round alike, so the paired ratio can resolve a change that
the two medians cannot.  The layers are:

* ``build_table(n)`` for each n in ``--sizes``, and the build's growth
  exponent from n = 1000 to each larger size (from the medians);
* ``save_table`` of the n_max = 1000, 4096 and 32768 tables to memory (the
  child builds the table untimed, then writes it to a file of its tree)
  and ``load_table`` of that file (a child that only imports and loads),
  each with its bytes;
* sets rebuilt on access: ``table.sets[n]`` of a built table of each
  n_max in ``SETS_N`` (built untimed) for n = K + 1, K + 10, ... up to
  n_max, K = ``full_set_limit(n_max)``, each a step from the sets the
  table keeps;
* the ``set`` command, ``reinhardt.cli.main(["set", "--n", n,
  "--no-cache"])`` in-process at each n in ``SET_N``, its stdout
  written to a null sink and the caches cleared as below;
* the ``table`` command, ``reinhardt.cli.main(["table", "--min-n", a,
  "--max-n", b, "--cache", FILE, "--force"])`` in-process for each
  window (a, b) in ``TABLE_WINDOWS``, FILE being the n_max = 4096 file
  the save layer wrote, so a tree that reads its cache times a warm load;
  stdout and caches as for ``set``;
* the ``sequence`` command, ``reinhardt.cli.main(["sequence", "--max-n",
  n, "--format", FORMAT])`` in-process for each (n, FORMAT) in
  ``SEQUENCE``, stdout and caches as for ``set``;
* of these three commands, one that a tree refuses (exit 1) records no
  time: its child gives ``refused``, the first line of its stderr, and
  the layer keeps that, with no ratio;
* membership, ``is_realizable(n, dim)`` for each (n, dim) in
  ``MEMBERSHIP``, with every ``functools`` cache of every loaded
  ``reinhardt.*`` module cleared before each timed call, so each one pays
  for what it builds;
* the growth prefix, ``lemma.reach(n)`` for each n in ``REACH``, caches
  cleared as above, with the size of its memo after the call (``memo``);
* classify's fixed base: ``classify_dimension(n, dim,
  include_realizations=False)`` for each (n, dim) in ``CLASSIFY_BASE``,
  caches cleared as above, which at n <= 80 builds both halves of the
  fixed base: S's small sets and G's marked rows;
* classify, ``reinhardt.cli.main(["classify", ...])`` in-process for each
  (n, dim) in ``CLASSIFY``, with no ``REINHARDT_CACHE`` and the caches
  cleared as above, with the exit code and the status line; a query that
  a tree refuses (exit 1) records ``refused`` and no time, as the commands
  above do;
* enumeration: each stream in ``ENUMERATION`` drained at each n in
  ``ENUMERATION_N``, all partitions uncapped;
* each verify suite in ``SUITES`` at its range;
* start-up: for ``python -c pass``, ``python -c "import reinhardt.cli"``
  and the argvs of ``STARTUP_ARGV``, one small one per CLI subcommand
  and a ``set`` whose output is mostly its dense run, the wall time
  of a whole ``python ARGV`` process, and the number of ``reinhardt.*``
  and of standard-library modules it imports (from one more run under
  ``-X importtime``).  These processes get the environment
  perfbench/run.py gives its children.  The child that starts them is
  not the one measured, so this layer has no peak RSS or page faults;
* ``wc -l src/reinhardt/*.py``, a digest of those files, which identifies
  the code, and the git revision of a tree that holds ``.git``.

Every child starts from a fresh interpreter with ``PYTHONPATH`` set to
its tree's ``src``, whose ``.pyc`` files the tool writes first, and a
working directory of its tree's own, so its peak RSS covers one
measurement.  It reads that peak as its own
``VmHWM`` where Linux gives one: its ``ru_maxrss`` also counts the
memory of this process, which it starts as a copy of.  Each tree's
result is stored under ``runs[NAME]`` in the ``--out`` JSON file; runs
already there under other names are kept.  Mind the sizes: a tree that
expands every set, as the sources before format v3 do, needs about
1.4 GB at n = 4096, and one that holds every tail (format v3) about
0.5 GB at n = 8192, and one whose ``table`` builds every row below its
window cannot run the windows at n = 10^5 and 10^6.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SAVE_LOAD_N = (1000, 4096, 32768)
TABLE_FILE_N = 4096  # the save layer's file of this n_max also serves TABLE_WINDOWS
SETS_N = (1000,)
SET_N = (803, 4096)
#: (min_n, max_n) of the `table` command: two of the windows perfbench's
#: warm-lookups draws, two whole tables, and c and h at n = 10^5 and 10^6
TABLE_WINDOWS = (
    (668, 779), (933, 957), (2, 1004), (2, 4096), (10**5, 10**5 + 1), (10**6, 10**6 + 1)
)
#: (max_n, format) of the `sequence` command: perfbench's size, 10^5 and 10^6
SEQUENCE = tuple((n, fmt) for n in (1004, 100_000, 10**6) for fmt in ("csv", "json"))
#: (n, dim) membership queries, both unrealizable: n^2 - 2 at n = 1000 and
#: n^2 - 4 at n = 4000
MEMBERSHIP = ((1000, 999998), (4000, 15999996))
#: (n, dim) at n <= 80, unrealizable (n^2 - 2), so that all three of
#: classify's membership tests read the base
CLASSIFY_BASE = ((80, 6398),)
#: n of the cold ``lemma.reach`` layer
REACH = (10**30, 10**100)
#: (n, dim) classify queries: reach(n) + 2 and + 4, just above the
#: growth-sequence prefix, and one unrealizable dim, at n = 10^5, 10^7 and
#: 10^8; and the two unrealizable n^2 - 2 and n^2 - 4, which take all three
#: membership tests, at n = 10^30 and 10^100
CLASSIFY = (
    (10**5, 9903036100),
    (10**5, 9903036102),
    (10**5, 9979433350),
    (10**7, 99908341012162),
    (10**7, 99908341012164),
    (10**7, 99986804603564),
    (10**8, 9997133805402704),
    (10**8, 9997133805402706),
    (10**8, 9999999999999996),
    *((n, n * n - d) for n in REACH for d in (2, 4)),
)
#: the partition streams drained by the enumeration layer, and their n
ENUMERATION = ("iter_partition_tuples", "iter_square_sums")
ENUMERATION_N = (40, 50, 60)
ROUNDS = 20  # children per tree and layer; even, so each tree leads in half
REPEATS = 5  # timed runs per child; the best is kept
#: (suite function, n_lo or None for a suite over 0..n_hi, n_hi): the
#: enumeration-heavy suites at the range perfbench's small-n-queries runs
#: them and at a larger one: their largest, or n = 50 for the enumeration
#: oracle, which takes about a minute at 80; and the two suites that build
#: a table, at the largest range that table may have
SUITES = (
    ("verify_bounds", 2, 30),
    ("verify_bounds", 2, 40),
    ("verify_largest_part", 7, 40),
    ("verify_largest_part", 7, 60),
    ("verify_dp_oracle", 1, 30),
    ("verify_dp_oracle", 1, 50),
    ("verify_noncompact_growth", 2, 99_999),
    ("verify_growth_sequence", None, 100_000),
)
#: one small argv per subcommand, so start-up dominates each child, and
#: one `set` whose output, S(801), is about 2 MB of dense run
STARTUP_ARGV = {
    "table": ("table", "--max-n", "20", "--no-cache"),
    "set": ("set", "--n", "30", "--no-cache"),
    "set 801": ("set", "--n", "801", "--no-cache"),
    "classify": ("classify", "--n", "10", "--dim", "50"),
    "witness": ("witness", "--n", "4", "--dim", "12"),
    "sequence": ("sequence", "--max-n", "20"),
    "verify": ("verify", "--suite", "brute", "--max-n", "10"),
}

_CHILD = r"""
import io, json, os, resource, sys, time
import reinhardt

op, n, reps, args = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
best, result = float("inf"), {}

def clear_caches():  # of every loaded reinhardt.* module, whatever it imports
    for name, module in list(sys.modules.items()):
        if name.startswith("reinhardt."):
            for fn in list(vars(module).values()):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()

if op == "build":
    for _ in range(reps):
        started = time.perf_counter()
        table = reinhardt.build_table(n)
        best = min(best, time.perf_counter() - started)
        del table
elif op == "save":  # to memory, then to the file args[0] for load and set
    table = reinhardt.build_table(n)
    for _ in range(reps):
        buf = io.BytesIO()
        started = time.perf_counter()
        result["bytes"] = reinhardt.save_table(table, buf)
        best = min(best, time.perf_counter() - started)
    with open(args[0], "wb") as fh:
        fh.write(buf.getvalue())
elif op == "load":
    with open(args[0], "rb") as fh:
        for _ in range(reps):
            fh.seek(0)
            started = time.perf_counter()
            table = reinhardt.load_table(fh)
            best = min(best, time.perf_counter() - started)
            result["bytes"] = fh.tell()
            assert table.n_max == n
            del table
elif op == "sets":  # table.sets[m] above K, the table built untimed
    table = reinhardt.build_table(n)
    rows = range(reinhardt.dimsets.full_set_limit(n) + 1, n + 1, 9)
    for _ in range(reps):
        started = time.perf_counter()
        for m in rows:
            table.sets[m]
        best = min(best, time.perf_counter() - started)
    result["sets"] = len(rows)
elif op.startswith("cli_"):  # a command in-process, stdout to a null sink
    from contextlib import redirect_stderr, redirect_stdout
    from reinhardt import cli
    if op == "cli_set":  # `set --n n --no-cache`
        argv = ["set", "--n", str(n), "--no-cache"]
    elif op == "cli_sequence":  # `sequence --max-n n --format args[0]`
        argv = ["sequence", "--max-n", str(n), "--format", args[0]]
    else:  # `table --min-n args[0] --max-n n --cache args[1] --force`
        argv = ["table", "--min-n", args[0], "--max-n", str(n), "--cache", args[1], "--force"]
    err = io.StringIO()
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(err):
        for _ in range(reps):
            clear_caches()
            started = time.perf_counter()
            result["exit"] = cli.main(argv)
            best = min(best, time.perf_counter() - started)
    if result["exit"]:  # refused: the time of an error message is no time
        best, result["refused"] = None, err.getvalue().split("\n")[0]
elif op.startswith("verify_"):  # a suite over n = int(args[0])..n, or 0..n
    suite = getattr(reinhardt, op)
    for _ in range(reps):
        started = time.perf_counter()
        report = suite(*map(int, args), n)
        best = min(best, time.perf_counter() - started)
        assert report.status in ("pass", "report-only"), report
elif op.startswith("iter_"):  # drain a partition stream of n
    from collections import deque
    from reinhardt import partitions
    stream = getattr(partitions, op)
    for _ in range(reps):
        started = time.perf_counter()
        deque(stream(n), maxlen=0)
        best = min(best, time.perf_counter() - started)
elif op == "reach":  # lemma.reach(n) cold, and the memo it leaves
    from reinhardt import lemma
    for _ in range(reps):
        clear_caches()
        started = time.perf_counter()
        lemma.reach(n)
        best = min(best, time.perf_counter() - started)
    result["memo"] = lemma.reach.cache_info().currsize
elif op in ("member", "base", "classify"):  # at (n, dim = args[0]), caches cleared
    from contextlib import redirect_stderr, redirect_stdout
    import reinhardt.classify  # loaded before the timed calls
    if op == "classify":
        from reinhardt import cli
    for _ in range(reps):
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        if op == "member":
            result["realizable"] = reinhardt.is_realizable(n, int(args[0]))
        elif op == "base":
            result["status"] = reinhardt.classify_dimension(n, int(args[0]), False).status
        else:
            with redirect_stdout(out), redirect_stderr(err):
                result["exit"] = cli.main(["classify", "--n", str(n), "--dim", args[0]])
        best = min(best, time.perf_counter() - started)
    if op == "classify":
        if result["exit"]:  # refused: the time of an error message is no time
            best, result["refused"] = None, err.getvalue().split("\n")[0]
        else:
            result["answer"] = next(l for l in out.getvalue().splitlines() if l.startswith("status,"))
else:  # startup: the wall time of a whole python ARGV (args) process
    import subprocess
    env = {  # as perfbench/run.py's CHILD_ENV: bytecode caching stays on
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.environ["PYTHONPATH"],
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
    }
    traced = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, check=True, capture_output=True, text=True,
    ).stderr
    for _ in range(reps):
        started = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
        best = min(best, time.perf_counter() - started)
    # a header, then lines "import time: self | cumulative | <indent>name"
    names = [l.rsplit("|", 1)[1].strip() for l in traced.splitlines() if "|" in l][1:]
    result["reinhardt_modules"] = sum(m.split(".")[0] == "reinhardt" for m in names)
    result["stdlib_modules"] = sum(m.split(".")[0] in sys.stdlib_module_names for m in names)
if op != "startup":
    result["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:  # this process's own high-water mark; ru_maxrss would count the parent
        with open("/proc/self/status") as fh:  # it was started as a copy of
            rss = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    except OSError:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    result["maxrss_mib"] = round(rss / 1024, 1)
print(json.dumps({"s": best, **result, "module": reinhardt.__file__}))
"""


def _child(src: Path, cwd: str, op: str, n: int, *args: str) -> dict:
    """Run one measuring child in ``cwd`` against the tree's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    env.pop("REINHARDT_CACHE", None)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, op, str(n), str(REPEATS), *args],
        cwd=cwd, env=env, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out)
    if not Path(result.pop("module")).resolve().is_relative_to(src):
        raise RuntimeError(f"child imported reinhardt from outside {src}")
    return result


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def _interleaved(trees: dict[str, tuple[Path, str]], op: str, n: int, *args: str) -> dict:
    """One layer: ROUNDS rounds of one child per tree, the trees' order
    alternating; per tree the median best time with its quartiles, the
    largest peak RSS, the median minor page faults and the child's other
    fields, and for a second tree its paired ratio to the first."""
    labels = list(trees)
    results: dict[str, list[dict]] = {label: [] for label in labels}
    for i in range(ROUNDS):
        for label in labels[::-1] if i % 2 else labels:
            results[label].append(_child(*trees[label], op, n, *args))
    layer = {}
    for label, runs in results.items():
        if runs[0]["s"] is None:  # the tree refused the job
            layer[label] = runs[0] | {"maxrss_mib": max(r["maxrss_mib"] for r in runs)}
            continue
        q1, median, q3 = _quartiles([r["s"] for r in runs])
        layer[label] = runs[0] | {"s": round(median, 4), "s_quartiles": [round(q1, 4), round(q3, 4)]}
        if "maxrss_mib" in runs[0]:
            layer[label]["maxrss_mib"] = max(r["maxrss_mib"] for r in runs)
        if "minflt" in runs[0]:
            layer[label]["minflt"] = round(statistics.median(r["minflt"] for r in runs))
    if len(labels) == 2 and all(runs[0]["s"] is not None for runs in results.values()):
        # the second tree's time over the first's, round by round
        ratios = [b["s"] / a["s"] for a, b in zip(*results.values())]
        q1, median, q3 = _quartiles(ratios)
        layer[labels[1]]["ratio"] = {
            "median": round(median, 3),
            "quartiles": [round(q1, 3), round(q3, 3)],
            "lower_in": sum(r < 1 for r in ratios),
        }
    return layer


def _growth_exponents(builds: dict[int, float]) -> dict[str, float]:
    """log(t_m / t_1000) / log(m / 1000) for each measured size m above 1000."""
    base = builds.get(1000)
    return {
        f"1000-{m}": round(math.log(s / base) / math.log(m / 1000), 2)
        for m, s in sorted(builds.items())
        if base and m > 1000
    }


def _revision(tree: Path) -> str | None:
    """The tree's git revision, if it holds ``.git``."""
    if not (tree / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _describe(tree: Path) -> dict:
    files = sorted((tree / "src" / "reinhardt").glob("*.py"))
    return {
        "revision": _revision(tree),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()[:12],
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
        "rounds": ROUNDS,
        "repeats": REPEATS,
    }


def measure(trees: dict[str, Path], sizes: list[int]) -> dict[str, dict]:
    """Every layer of every tree, interleaved; the run of each tree by label."""
    runs = {
        label: {**_describe(tree), "interleaved_with": [other for other in trees if other != label]}
        for label, tree in trees.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        children = {}  # label: (src, working directory), each tree its own files
        for i, (label, tree) in enumerate(trees.items()):
            os.mkdir(cwd := os.path.join(tmp, str(i)))
            children[label] = (src := (tree / "src").resolve(), cwd)
            # bytecode for every tree alike: a child that compiles the
            # package from source peaks about 1 MiB higher
            compileall.compile_dir(src / "reinhardt", quiet=1)

        def layer(section: str, key: str, op: str, n: int, *args: str) -> None:
            for label, result in _interleaved(children, op, n, *args).items():
                runs[label].setdefault(section, {})[key] = result

        for n in sizes:
            layer("build_table", str(n), "build", n)
        for n in SAVE_LOAD_N:
            layer("save_table", str(n), "save", n, f"{n}.rdim")
            layer("load_table", str(n), "load", n, f"{n}.rdim")
        for n in SETS_N:
            layer("sets", str(n), "sets", n)
        for n in SET_N:
            layer("set_command", str(n), "cli_set", n)
        for lo, hi in TABLE_WINDOWS:
            layer("table_command", f"{lo}..{hi}", "cli_table", hi, str(lo), f"{TABLE_FILE_N}.rdim")
        for n, fmt in SEQUENCE:
            layer("sequence_command", f"{n} {fmt}", "cli_sequence", n, fmt)
        for n, dim in MEMBERSHIP:
            layer("membership", f"{n}, {dim}", "member", n, str(dim))
        for n in REACH:
            layer("reach", str(n), "reach", n)
        for n, dim in CLASSIFY_BASE:
            layer("classify_base", f"{n}, {dim}", "base", n, str(dim))
        for n, dim in CLASSIFY:
            layer("classify", f"{n}, {dim}", "classify", n, str(dim))
        for op in ENUMERATION:
            for n in ENUMERATION_N:
                layer("enumeration", f"{op}({n})", op, n)
        for name, lo, hi in SUITES:
            lead = () if lo is None else (str(lo),)
            layer("suites", f"{name}({', '.join((*lead, str(hi)))})", name, hi, *lead)
        probes = {"pass": ("-c", "pass"), "import reinhardt.cli": ("-c", "import reinhardt.cli")}
        probes.update((cmd, ("-m", "reinhardt.cli", *a)) for cmd, a in STARTUP_ARGV.items())
        for name, argv in probes.items():
            layer("startup", name, "startup", 0, *argv)
    for run in runs.values():
        times = {int(n): r["s"] for n, r in run["build_table"].items()}
        run["build_growth_exp"] = _growth_exponents(times)
    return runs


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        return None


def _tree(spec: str) -> tuple[str, Path]:
    label, sep, path = spec.partition("=")
    if not (label and sep and path):
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {spec!r}")
    return label, Path(path)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", required=True, action="append", type=_tree, metavar="NAME=PATH",
        help="a source tree (holds src/) and its name in the output; once or twice",
    )
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 1000, 2000])
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) != len(args.tree) or len(trees) > 2:
        parser.error("--tree takes one or two trees with distinct names")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = (
        "tools/bench_layers.py: per source tree and layer, the median over"
        " rounds (s) and quartiles (s_quartiles) of each child's untraced"
        " best-of-repeats wall time, the trees' children alternating, and"
        " the largest child peak RSS (maxrss_mib) and the median child minor"
        " page faults (minflt); with two trees, ratio: the second tree's"
        " per-round time over the first's (median, quartiles, lower_in"
        " rounds); startup: whole-process wall time and the modules the"
        " process imports"
    )
    doc["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
    }
    runs = measure(trees, sorted(args.sizes))
    doc.setdefault("runs", {}).update(runs)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(runs))


if __name__ == "__main__":
    main()
