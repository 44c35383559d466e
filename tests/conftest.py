import functools
import time
import tracemalloc

import pytest
from hypothesis import settings

from reinhardt import build_table
from reinhardt.dimsets import DimTable, full_set_limit
from reinhardt.partitions import iter_partition_tuples

# Property tests draw the same examples on every run, and a slow example
# is not a failure.
settings.register_profile("reinhardt", derandomize=True, deadline=None)
settings.load_profile("reinhardt")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table64():
    return build_table(64)


@pytest.fixture(scope="session")
def smooth_bounded_oracle():
    """Oracle: n -> (compact, noncompact) smooth-bounded values as sets, by
    enumerating every partition of n with two or more blocks and at most
    one mark, capped at n^2 - 2."""

    @functools.cache
    def sets(n):
        compact, one_marked = set(), set()
        cap = n * n - 2
        for parts in iter_partition_tuples(n):
            if len(parts) < 2:
                continue
            base = sum(p * p for p in parts)
            if base <= cap:
                compact.add(base)
            for v in set(parts):
                if base + 2 * v <= cap:
                    one_marked.add(base + 2 * v)
        return compact, one_marked - compact

    return sets


def oracle_step(n: int, reach: int, full, offs: list[int], first: int = 0) -> int:
    """Oracle: the bits of S(n) from index ``reach`` up, less the pieces
    j < ``first``, as the OR of the largest-part pieces S(j) at
    ``offs[n - j]`` = off(n - j), with the early stop of
    :func:`~reinhardt.dimsets._step`, which carries off in closed form."""
    big = 2 * (n + 2 * reach) > n * (n + 1)
    acc = 0
    for j in range(first, n):
        if big and (2 * j > n or offs[n - j] + offs[j] < reach):
            break
        s = offs[n - j] - reach
        acc |= full[j] << s if s >= 0 else full[j] >> -s
    return acc


def step_build(n_max: int) -> DimTable:
    """Oracle: the table by one largest-part step per row, each from
    low[n - 1], keeping S(0..K) in full for the steps above K.  It sizes
    no row and takes its steps with :func:`oracle_step`, so it shares no
    code with ``build_table``: its table holds its own S(0..K).  Its work
    grows as n^4."""
    offs, keep = [(d * d - d) // 2 for d in range(n_max + 1)], full_set_limit(n_max)
    low, count, full = [1], [1], [1]  # S(0) = {0}
    for n in range(1, n_max + 1):
        reach = low[-1]
        acc = oracle_step(n, reach, full, offs)
        low.append(reach + (acc ^ (acc + 1)).bit_length() - 1)
        count.append(reach + acc.bit_count())
        if n <= keep:
            full.append(((acc + 1) << reach) - 1)
    return DimTable._built(low, count, full)


@pytest.fixture(scope="session")
def table4097():
    """The table one past the CLI's build limit, so S(n + 1) is there for
    every n the CLI builds, from the step oracle (:func:`step_build`)."""
    return step_build(4097)


@pytest.fixture(scope="session")
def big_build():
    """Timed, allocation-traced build to n_max=1001 shared across the session."""
    tracemalloc.start()
    started = time.perf_counter()
    table = build_table(1001)
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return table, elapsed, peak


@pytest.fixture(scope="session")
def big_table(big_build):
    return big_build[0]


@pytest.fixture(scope="session")
def acceptance():
    def record(number: int | str, passed: bool, detail: str) -> None:
        line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
