"""Layer timings of one source tree, each measured in its own child process.

    python3 tools/bench_layers.py --src TREE --label NAME --out BENCH_x.json
                                  [--sizes 500 1000 2000] [--revision REV]
                                  [--versus OTHER_TREE]

For the tree's ``src`` it records, untraced:

* ``build_table(n)`` for each n in ``--sizes``: the best of ``REPEATS``
  wall times in one child, and that child's peak RSS;
* ``save_table`` of the n_max = 1000 and 4096 tables to memory (one
  child each, which builds the table untimed) and ``load_table`` of that
  file (another child, which only imports and loads), each with bytes
  and peak RSS;
* one set on demand, ``load_table(fh, n).sets[n]`` from the n_max = 4096
  file, at each n in ``ON_DEMAND_N`` (a child each; bytes read, peak RSS);
* membership, ``is_realizable(n, dim)`` for each (n, dim) in
  ``MEMBERSHIP``, with every ``functools`` cache in ``dimsets`` and
  ``classify`` cleared before each timed call, so each one pays for what
  it builds (a child each; peak RSS).  A tree whose ``is_realizable``
  still takes a table gets it loaded untimed from the same file;
* classify, ``reinhardt.cli.main(["classify", ...])`` in-process for each
  (n, dim) in ``CLASSIFY``, with no ``REINHARDT_CACHE`` and the caches
  cleared as above: the best time, the exit code and the status line,
  or the first line of stderr when it exits 1 (a child each; peak RSS);
* the build's growth exponent from n = 1000 to each larger size;
* enumeration: each stream in ``ENUMERATION`` drained at each n in
  ``ENUMERATION_N``, all partitions uncapped, the best of ``REPEATS`` in
  one child each, and that child's peak RSS;
* each verify suite in ``SUITES`` at its range, the best of ``REPEATS``
  in-process runs in one child each, and that child's peak RSS;
* start-up: for ``python -c pass``, ``python -c "import reinhardt.cli"``
  and one small argv per CLI subcommand (``STARTUP_ARGV``), the best of
  ``REPEATS`` child wall times, and the number of ``reinhardt.*`` and of
  standard-library modules the child imports (from one more run under
  ``-X importtime``).  These children get the environment perfbench/run.py
  gives its children, so they write and reuse ``.pyc`` files;
* with ``--versus OTHER_TREE``, the same start-up argv run ``PAIRED``
  times in each tree, the two trees' children alternating (and which goes
  first alternating too), with the median child wall time of each tree:
  trees measured minutes apart differ by more than host drift allows;
* ``wc -l src/reinhardt/*.py``, the git revision of the tree (or
  ``--revision`` for a tree without ``.git``, such as a ``git archive``
  copy) and a digest of those files (the revision alone misses
  uncommitted edits).

Every child starts from a fresh interpreter with ``PYTHONPATH`` set to
the tree's ``src``, so its peak RSS covers one measurement.  It reads
that peak as its own ``VmHWM`` where Linux gives one: its ``ru_maxrss``
also counts the memory of this process, which it starts as a copy of,
so it never read below about 18.6 MiB.  The result
is stored under ``runs[NAME]`` in the ``--out`` JSON file; runs already
there under other names are kept, so measuring two trees into one file
compares them.  Mind the sizes: a tree that expands every set, as the
sources before format v3 do, needs about 1.4 GB at n = 4096, and one
that holds every tail (format v3) about 0.5 GB at n = 8192.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SAVE_LOAD_N = (1000, 4096)  # the last file also serves ON_DEMAND_N
ON_DEMAND_N = (803, 4096)
#: (n, dim) membership queries, both unrealizable: n^2 - 2 at n = 1000 and
#: n^2 - 4 at n = 4000
MEMBERSHIP = ((1000, 999998), (4000, 15999996))
#: (n, dim) classify queries: reach(n) + 2 and + 4, just above the
#: growth-sequence prefix, and one unrealizable dim, at n = 10^5 and 10^7
CLASSIFY = (
    (10**5, 9903036100),
    (10**5, 9903036102),
    (10**5, 9979433350),
    (10**7, 99908341012162),
    (10**7, 99908341012164),
    (10**7, 99986804603564),
)
#: the partition streams drained by the enumeration layer, and their n
ENUMERATION = ("iter_partition_tuples", "iter_square_sums")
ENUMERATION_N = (40, 50, 60)
PAIRED = 30  # interleaved start-up children per tree and argv
REPEATS = 5  # timed runs per child; the best is kept
#: (suite function, n_lo, n_hi): the enumeration-heavy suites at the range
#: perfbench's small-n-queries runs them and at their largest range
SUITES = (
    ("verify_bounds", 2, 30),
    ("verify_bounds", 2, 40),
    ("verify_largest_part", 7, 40),
    ("verify_largest_part", 7, 60),
)
#: one small argv per subcommand, so start-up dominates each child
STARTUP_ARGV = {
    "table": ("table", "--max-n", "20", "--no-cache"),
    "set": ("set", "--n", "30", "--no-cache"),
    "classify": ("classify", "--n", "10", "--dim", "50"),
    "witness": ("witness", "--n", "4", "--dim", "12"),
    "sequence": ("sequence", "--max-n", "20"),
    "verify": ("verify", "--suite", "brute", "--max-n", "10"),
}

_CHILD = r"""
import io, json, resource, sys, time
import reinhardt
from reinhardt import build_table, load_table, save_table

op, n, reps, path = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
best, size = float("inf"), None
if op == "build":
    for _ in range(reps):
        started = time.perf_counter()
        table = build_table(n)
        best = min(best, time.perf_counter() - started)
        del table
elif op == "save":
    table = build_table(n)
    for _ in range(reps):
        buf = io.BytesIO()
        started = time.perf_counter()
        size = save_table(table, buf)
        best = min(best, time.perf_counter() - started)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())
elif op == "load":
    with open(path, "rb") as fh:
        for _ in range(reps):
            fh.seek(0)
            started = time.perf_counter()
            table = load_table(fh)
            best = min(best, time.perf_counter() - started)
            size = fh.tell()
            assert table.n_max == n
            del table
elif op.startswith("verify_"):  # a suite over n = int(path)..n
    suite = getattr(reinhardt, op)
    for _ in range(reps):
        started = time.perf_counter()
        report = suite(int(path), n)
        best = min(best, time.perf_counter() - started)
        assert report.status == "pass", report
elif op.startswith("iter_"):  # drain a partition stream of n
    from collections import deque
    from reinhardt import partitions
    stream = getattr(partitions, op)
    for _ in range(reps):
        started = time.perf_counter()
        deque(stream(n), maxlen=0)
        best = min(best, time.perf_counter() - started)
elif op == "member":  # is_realizable at (n, dim); path holds "FILE DIM"
    import inspect
    from reinhardt import classify, dimsets
    path, dim = path.split()
    args = (n, int(dim))
    if "table" in inspect.signature(reinhardt.is_realizable).parameters:
        with open(path, "rb") as fh:
            args = (load_table(fh, n), *args)
    for _ in range(reps):
        for fn in [*vars(dimsets).values(), *vars(classify).values()]:
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        started = time.perf_counter()
        realizable = reinhardt.is_realizable(*args)
        best = min(best, time.perf_counter() - started)
elif op == "classify":  # the CLI's classify at (n, dim = path), in-process
    from contextlib import redirect_stderr, redirect_stdout
    from reinhardt import classify, cli, dimsets
    for _ in range(reps):
        for fn in [*vars(dimsets).values(), *vars(classify).values()]:
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["classify", "--n", str(n), "--dim", path])
        best = min(best, time.perf_counter() - started)
    lines = out.getvalue().splitlines()
    answer = next((l for l in lines if l.startswith("status,")), err.getvalue().split("\n")[0])
else:  # one set on demand from the front of a larger file
    with open(path, "rb") as fh:
        for _ in range(reps):
            fh.seek(0)
            started = time.perf_counter()
            dimset = load_table(fh, n).sets[n]
            best = min(best, time.perf_counter() - started)
            size = fh.tell()
            assert dimset.n == n
            del dimset
try:  # this process's own high-water mark; ru_maxrss would count the parent
    with open("/proc/self/status") as fh:  # it was started as a copy of
        rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
result = {"s": round(best, 4), "bytes": size, "maxrss_mib": round(rss / 1024, 1)}
if op == "member":
    result["realizable"] = realizable
if op == "classify":
    result.update(exit=code, answer=answer)
print(json.dumps({**result, "module": reinhardt.__file__}))
"""


def _child(src: Path, op: str, n: int, path: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    env.pop("REINHARDT_CACHE", None)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, op, str(n), str(REPEATS), path],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out)
    if not Path(result.pop("module")).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"child imported reinhardt from outside {src}")
    if result["bytes"] is None:
        del result["bytes"]
    return result


def _startup_env(src: Path) -> dict:
    return {  # as perfbench/run.py's CHILD_ENV: bytecode caching stays on
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
    }


def _startup(src: Path, argv: tuple[str, ...]) -> dict:
    """Best-of-REPEATS wall time of ``python ARGV`` and the modules it imports."""
    env = _startup_env(src)
    with tempfile.TemporaryDirectory() as cwd:
        # untimed, and it writes any .pyc file still missing
        traced = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            cwd=cwd, env=env, check=True, capture_output=True, text=True,
        ).stderr
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, *argv], cwd=cwd, env=env, check=True, capture_output=True
            )
            best = min(best, time.perf_counter() - started)
    # a header, then lines "import time: self | cumulative | <indent>name"
    names = [line.rsplit("|", 1)[1].strip() for line in traced.splitlines() if "|" in line][1:]
    return {
        "s": round(best, 4),
        "reinhardt_modules": sum(name.split(".")[0] == "reinhardt" for name in names),
        "stdlib_modules": sum(name.split(".")[0] in sys.stdlib_module_names for name in names),
    }


def _startup_paired(src: Path, other: Path, argv: tuple[str, ...]) -> dict:
    """Median wall time of ``python ARGV`` in each tree over PAIRED children
    per tree, the trees' children alternating."""
    envs = (_startup_env(src), _startup_env(other))
    times: tuple[list[float], list[float]] = ([], [])
    with tempfile.TemporaryDirectory() as cwd:
        for env in envs:  # untimed, and it writes any .pyc file still missing
            subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True, capture_output=True)
        for i in range(2 * PAIRED):
            side = (i + i // 2) % 2  # 0 1, 1 0, 0 1, ...: each goes first in half the pairs
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, *argv], cwd=cwd, env=envs[side], check=True, capture_output=True
            )
            times[side].append(time.perf_counter() - started)
    return {"s": round(statistics.median(times[0]), 4), "versus_s": round(statistics.median(times[1]), 4)}


def _growth_exponents(builds: dict[int, float]) -> dict[str, float]:
    """log(t_m / t_1000) / log(m / 1000) for each measured size m above 1000."""
    base = builds.get(1000)
    return {
        f"1000-{m}": round(math.log(s / base) / math.log(m / 1000), 2)
        for m, s in sorted(builds.items())
        if base and m > 1000
    }


def _revision(tree: Path, given: str | None) -> str | None:
    """The tree's git revision, or ``given`` for a tree without ``.git``."""
    if not (tree / ".git").exists():
        return given
    try:
        return subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return given


def _source_files(tree: Path) -> list[Path]:
    return sorted((tree / "src" / "reinhardt").glob("*.py"))


def _digest(tree: Path) -> str:
    return hashlib.sha256(b"".join(p.read_bytes() for p in _source_files(tree))).hexdigest()[:12]


def measure(
    tree: Path, sizes: list[int], revision: str | None = None, versus: Path | None = None
) -> dict:
    src = tree / "src"
    files = _source_files(tree)
    run: dict = {
        "revision": _revision(tree, revision),
        "src_sha256": _digest(tree),
        "repeats": REPEATS,
    }
    run["src_lines"] = sum(len(p.read_text().splitlines()) for p in files)
    run["build_table"] = {str(n): _child(src, "build", n, "") for n in sizes}
    run["save_table"], run["load_table"] = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.rdim")
        for n in SAVE_LOAD_N:
            run["save_table"][str(n)] = _child(src, "save", n, path)
            run["load_table"][str(n)] = _child(src, "load", n, path)
        run["set_on_demand"] = {str(n): _child(src, "set", n, path) for n in ON_DEMAND_N}
        run["membership"] = {
            f"{n}, {dim}": _child(src, "member", n, f"{path} {dim}") for n, dim in MEMBERSHIP
        }
    run["classify"] = {f"{n}, {dim}": _child(src, "classify", n, str(dim)) for n, dim in CLASSIFY}
    times = {int(n): r["s"] for n, r in run["build_table"].items()}
    run["build_growth_exp"] = _growth_exponents(times)
    run["enumeration"] = {
        f"{op}({n})": _child(src, op, n, "") for op in ENUMERATION for n in ENUMERATION_N
    }
    run["suites"] = {
        f"{name}({lo}, {hi})": _child(src, name, hi, str(lo)) for name, lo, hi in SUITES
    }
    probes = {"pass": ("-c", "pass"), "import reinhardt.cli": ("-c", "import reinhardt.cli")}
    probes.update((cmd, ("-m", "reinhardt.cli", *a)) for cmd, a in STARTUP_ARGV.items())
    run["startup"] = {name: _startup(src, argv) for name, argv in probes.items()}
    if versus is not None:
        run["startup_paired"] = {
            "versus": {"revision": _revision(versus, None), "src_sha256": _digest(versus)},
            "children": PAIRED,
            **{name: _startup_paired(src, versus / "src", argv) for name, argv in probes.items()},
        }
    return run


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="source tree (holds src/)")
    parser.add_argument("--label", required=True, help="name of this run in the output")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[500, 1000, 2000])
    parser.add_argument("--revision", help="revision to record when the tree has no .git")
    parser.add_argument("--versus", type=Path, help="a second tree to interleave start-up with")
    args = parser.parse_args()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = (
        "tools/bench_layers.py: per source tree, untraced best-of-repeats wall"
        " time (s) and the measuring child's peak RSS (maxrss_mib); startup:"
        " whole-child wall time and the modules the child imports; startup_paired:"
        " median child wall time, this tree (s) and the --versus tree (versus_s),"
        " children interleaved"
    )
    doc["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
    }
    doc.setdefault("runs", {})[args.label] = measure(
        args.src, sorted(args.sizes), args.revision, args.versus
    )
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["runs"][args.label]))


if __name__ == "__main__":
    main()
