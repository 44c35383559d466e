"""Seeded command streams, one per workload.

A workload turns a seed into CLI argument lists and nothing else: the
program under test only ever sees the generated argv.  Draws are
stratified (a fixed number of commands per size bucket, the size drawn
within the bucket) so that different seeds give streams of about the
same cost, and the run-to-run spread measures the program rather than
the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import value_classes

CACHE = "lookups.rdim"
CACHE_N_MAX = 1000


@dataclass(frozen=True)
class Workload:
    prepare: tuple[tuple[str, ...], ...]  # run once in set-up, untimed
    stream: tuple[tuple[str, ...], ...]  # the timed commands, in order
    fresh_dir: bool  # every repetition of the stream starts in an empty directory


def cold_build(rng: random.Random) -> Workload:
    # The recurrence in dimsets.build_table does about 90% of the work here,
    # and the two sizes expose its growth order.  No cached load and no
    # DimSet.values occur, so storage-read and iteration changes should not
    # move this workload.  M stays above 1000 so the table reports h(1000).
    m = rng.randint(1001, 1008)
    stream = (
        ("table", "--max-n", str(m // 2), "--cache", "half.rdim"),
        ("table", "--max-n", str(m), "--cache", "full.rdim"),
        ("sequence", "--max-n", str(m)),
    )
    return Workload((), stream, fresh_dir=True)


#: (lowest n, highest n, commands) for `set --n`: skewed toward small and
#: medium n, with two just above 800 where DimSet.values costs seconds.
#: The costly buckets are narrow because that cost grows as n^4.
SET_BUCKETS = ((2, 100, 3), (101, 300, 3), (301, 400, 2), (520, 560, 1), (801, 803, 2))
TABLE_WINDOWS = 7


def warm_lookups(rng: random.Random) -> Workload:
    # Every command loads the full 20 MB table to answer one row, and
    # classify bypasses the cache entirely.  So storage.load_table,
    # DimSet.values and the CLI cache path dominate, and the recurrence
    # does almost nothing.
    ks = [rng.randint(lo, hi) for lo, hi, count in SET_BUCKETS for _ in range(count)]
    commands = [("set", "--n", str(k), "--cache", CACHE) for k in ks]
    for _ in range(TABLE_WINDOWS):
        width = rng.randint(10, 200)
        lo = rng.randint(2, CACHE_N_MAX - width)
        commands.append(
            ("table", "--min-n", str(lo), "--max-n", str(lo + width), "--cache", CACHE)
        )
    # classify at an n the stream also prints S(n) for, so its status can be
    # cross-checked against that set; one medium and one larger n.
    for k in (ks[3], ks[6]):
        dim = k + 2 * rng.randint(0, (k * k - 2 - k) // 2)
        commands.append(("classify", "--n", str(k), "--dim", str(dim)))
    rng.shuffle(commands)
    prepare = (("table", "--max-n", str(CACHE_N_MAX), "--cache", CACHE),)
    return Workload(prepare, tuple(commands), fresh_dir=False)


#: One classify per status, each at one of these n (shuffled across
#: statuses).  The n are fixed so that the enumeration that draws the dims,
#: which grows as p(n), costs every seed the same.
STATUS_NS = (10, 15, 20, 25, 30, 35, 40)
#: Witness cost climbs steeply past n = 35 (about 5x by n = 43), so the top
#: bucket is narrow.
WITNESS_N_BUCKETS = ((8, 20), (21, 32), (33, 35))
#: The verify suites at the ranges their unit tests use.
SUITES = (
    ("brute", 30),
    ("arms", 30),
    ("bounds", 30),
    ("lemma-largest", 40),
    ("prop7", 40),
    ("sequences", 64),
    ("numh", 60),
)


def _upper_half(n: int, values) -> list[int]:
    # Low values have up to millions of marked realizations (44 MB of output
    # at n = 50, dim = 400), so queries stay in the upper half of the range,
    # where the realization count, and hence the command's cost, stays small.
    values = sorted(values)
    upper = [v for v in values if 2 * v >= n * n]
    return upper or values


def _pick_dim(rng: random.Random, n: int, status: str) -> int:
    # enumerate for every status, so set-up costs the same whichever n
    # each status lands on
    compact, one_mark, any_mark = value_classes(n)
    top = n * n
    fixed = {"n_squared": top, "ball": top + 2 * n, "ball_times_disc": top + 2}
    if status in fixed:
        return fixed[status]
    pools = {
        "compact_bad": compact,
        "noncompact_good": one_mark - compact,
        "general_only": any_mark - one_mark - compact,
        "unrealizable": set(range(n, top - 1, 2)) - any_mark,
    }
    return rng.choice(_upper_half(n, (v for v in pools[status] if v <= top - 2)))


def _smooth_dim(rng: random.Random, n: int) -> int:
    """A value with a smooth bounded realization: the square sum of a
    partition with at least two parts, plus twice one part when that
    stays at or below n^2 - 2.  A largest part of at least 3n/4 keeps the
    value in the upper half of the range (see _upper_half)."""
    parts = [rng.randint((3 * n + 3) // 4, n - 1)]
    while sum(parts) < n:
        parts.append(rng.randint(1, min(parts[-1], n - sum(parts))))
    base = sum(p * p for p in parts)
    marked = base + 2 * rng.choice(parts)
    return marked if rng.random() < 0.5 and marked <= n * n - 2 else base


def small_n_queries(rng: random.Random) -> Workload:
    # Partition enumeration, realizations and the suites dominate here, and
    # the tables stay tiny.  This is where the marked-set table and the
    # single enumeration pass show, and where the dense-prefix table and
    # storage format v2 should show no change.
    statuses = ["compact_bad", "noncompact_good", "general_only", "unrealizable",
                "n_squared", "ball", "ball_times_disc"]
    rng.shuffle(statuses)
    commands = []
    for n, status in zip(STATUS_NS, statuses):
        commands.append(("classify", "--n", str(n), "--dim", str(_pick_dim(rng, n, status))))
    # n = 44 is the largest indexed partition list, which sets the peak RSS;
    # 49..52 take the streaming branch, drawn as a pair of nearly fixed cost.
    r = rng.randint(0, 1)
    for n in (44, 49 + r, 52 - r):
        commands.append(("classify", "--n", str(n), "--dim", str(_smooth_dim(rng, n))))
    for lo, hi in WITNESS_N_BUCKETS:
        n = rng.randint(lo, hi)
        commands.append(("witness", "--n", str(n), "--dim", str(_smooth_dim(rng, n))))
    commands += [("verify", "--suite", suite, "--max-n", str(m)) for suite, m in SUITES]
    rng.shuffle(commands)
    return Workload((), tuple(commands), fresh_dir=False)


BUILDERS = {
    "cold-build": cold_build,
    "warm-lookups": warm_lookups,
    "small-n-queries": small_n_queries,
}


def make(name: str, seed: int) -> Workload:
    """The workload's inputs for this seed; the same seed gives the same argv."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
