import functools
import time
import tracemalloc

import pytest
from hypothesis import settings

from reinhardt import build_table
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


@pytest.fixture(scope="session")
def table4097():
    """The table one past the CLI's build limit, so S(n + 1) is there for
    every n the CLI builds."""
    return build_table(4097)


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
