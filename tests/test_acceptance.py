"""Acceptance suite: one test per criterion, each reporting a verdict line.

The big table (n_max = 1001) is built once per session with timing and
allocation tracing; see conftest.big_build.
"""

import io
import time

from reinhardt import (
    build_table,
    classify_dimension,
    compact_count,
    format_ratio,
    load_table,
    noncompact_count,
    noncompact_set,
    save_table,
    smooth_bounded_sets,
    square_sums_bruteforce,
    two_block_dimensions,
    verify_bounds,
    verify_growth_sequence,
    verify_largest_part,
)
from reinhardt.dimsets import dimensions_bruteforce
from reinhardt.partitions import iter_partition_tuples

TABLE_CHECKPOINTS = {
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


def test_criterion_1_table_regression_and_budget(big_build, acceptance):
    table, elapsed, peak = big_build
    mismatches = [
        n
        for n, (c, h) in TABLE_CHECKPOINTS.items()
        if compact_count(table, n) != c or noncompact_count(table, n) != h
    ]
    peak_mib = peak / 2**20
    ok = not mismatches and elapsed <= 60 and peak_mib <= 256
    acceptance(
        1,
        ok,
        f"counts exact at {len(TABLE_CHECKPOINTS)} checkpoints"
        f" (mismatches: {mismatches or 'none'}); build {elapsed:.1f}s <= 60s,"
        f" peak {peak_mib:.0f} MiB <= 256 MiB",
    )


def test_criterion_2_oracle_equivalence(big_table, acceptance):
    started = time.perf_counter()
    bad = [
        n
        for n in range(1, 41)
        if square_sums_bruteforce(n).bits != big_table.sets[n].bits
    ]
    elapsed = time.perf_counter() - started
    acceptance(
        2,
        not bad and elapsed <= 10,
        f"recurrence equals enumeration bit-for-bit for n <= 40 in {elapsed:.1f}s <= 10s",
    )


def test_criterion_3_two_block_closed_form(acceptance):
    bad = []
    for n in range(2, 61):
        brute = set()
        for q in range(3):
            brute |= dimensions_bruteforce(n, 2, q)
        if two_block_dimensions(n) != brute:
            bad.append(n)
    acceptance(3, not bad, f"two-block closed form equals oracle for 2 <= n <= 60")


def test_criterion_4_bounds_and_trichotomy(acceptance):
    report = verify_bounds(2, 30)
    tri_bad = []
    for n in range(2, 31):
        achievable = set()
        for parts in iter_partition_tuples(n):
            base = sum(p * p for p in parts)
            sums = 1
            for v in parts:
                sums |= sums << v
            s = 0
            while sums:
                if sums & 1:
                    achievable.add(base + 2 * s)
                sums >>= 1
                s += 1
        if {v for v in achievable if v > n * n - 2} != {n * n, n * n + 2, n * n + 2 * n}:
            tri_bad.append(n)
    ok = report.status == "pass" and not tri_bad
    acceptance(
        4,
        ok,
        f"bounds suite {report.status} for 2 <= n <= 30;"
        f" trichotomy above n^2-2 holds (violations: {tri_bad or 'none'})",
    )


def test_criterion_5_growth_sequence_suite(big_table, acceptance):
    report = verify_growth_sequence(500, big_table)
    acceptance(
        5,
        report.status == "pass",
        f"growth-sequence suite {report.status} for n <= 500"
        " (parity, interval, reach >= 2n, monotone anchor, anchor(18)=7, count bound)",
    )


def test_criterion_6_largest_part_suite(big_table, acceptance):
    report = verify_largest_part(7, 40, big_table)
    acceptance(6, report.status == "pass", f"largest-part suite {report.status} for 7 <= n <= 40")


def test_criterion_7_consistency(big_table, smooth_bounded_oracle, acceptance):
    count_bad = [
        n
        for n in range(2, 1000)
        if len(noncompact_set(big_table, n)) != noncompact_count(big_table, n)
    ]
    smooth_bad = []
    for n in range(2, 41):
        _, nc = smooth_bounded_sets(n, big_table)
        if nc.to_set() != smooth_bounded_oracle(n)[1]:
            smooth_bad.append(n)
    acceptance(
        7,
        not count_bad and not smooth_bad,
        "noncompact set size equals count difference for 2 <= n <= 999;"
        " smooth-bounded noncompact set matches enumeration for n <= 40",
    )


def test_criterion_8_classification_goldens(acceptance):
    checks = [
        (5, 35, "ball", None),
        (5, 27, "ball_times_disc", None),
        (3, 9, "n_squared", "Polydisc3"),
        (4, 16, "n_squared", "ProductB2B2"),
        (4, 12, "noncompact_good", None),
        (4, 14, "general_only", None),
        (4, 15, "unrealizable", None),
    ]
    failures = []
    for n, dim, status, family in checks:
        got = classify_dimension(n, dim)
        if got.status != status or (family and family not in {f.tag for f in got.families}):
            failures.append((n, dim, got.status))
    acceptance(8, not failures, f"7 classification goldens (failures: {failures or 'none'})")


def test_criterion_9_storage_round_trip(acceptance):
    ok = True
    for n_max in (0, 4, 100):
        table = build_table(n_max)
        buf = io.BytesIO()
        save_table(table, buf)
        loaded = load_table(io.BytesIO(buf.getvalue()))
        ok = ok and all(a.bits == b.bits for a, b in zip(loaded.sets, table.sets))
    blob = bytearray(buf.getvalue())
    blob[20] ^= 0x04  # single bit inside record 0's tail-length field
    corrupted_detected = False
    try:
        load_table(io.BytesIO(bytes(blob)))
    except Exception:
        corrupted_detected = True
    acceptance(
        9,
        ok and corrupted_detected,
        "save/load identity at n_max in {0, 4, 100}; single-bit corruption detected",
    )


def test_report_only_ratio_trend(big_table, acceptance):
    ratios = [
        (n, format_ratio(compact_count(big_table, n), n * n))
        for n in sorted(TABLE_CHECKPOINTS)
    ]
    values = [float(r) for _, r in ratios]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    acceptance(
        "ratio-trend (report-only)",
        increasing and values[-1] >= 0.46,
        "c(n)/n^2 strictly increasing over the checkpoints and 0.4647 at n=1000: "
        + ", ".join(f"{n}:{r}" for n, r in ratios),
    )
