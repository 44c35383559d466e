#!/usr/bin/env python3
"""Build the achievable-dimension tables and reproduce the counts.

For a hyperbolic Reinhardt domain in C^n the automorphism-group
dimension is a sum of squared block sizes over a partition of n, plus 2
for each marked block.  The family of achievable square-sum sets obeys a
simple union recurrence, which we evaluate with one big bit-packed
integer per n.
"""

import io
import time

from reinhardt import (
    build_table,
    compact_count,
    noncompact_count,
    noncompact_set,
    ratio_table,
    save_table,
    square_sums_bruteforce,
)

print("=" * 64)
print("A. small sets, by recurrence and by full enumeration")
print("=" * 64)

table = build_table(64)
for n in (2, 4, 5, 6):
    values = list(table.sets[n].values())
    print(f"  S({n}) = {values}")
    assert square_sums_bruteforce(n).bits == table.sets[n].bits
print("  recurrence agrees with enumeration for every n up to 40:",
      all(square_sums_bruteforce(n).bits == table.sets[n].bits for n in range(1, 41)))

print()
print("=" * 64)
print("B. compact ('bad') and noncompact ('good') dimension counts")
print("=" * 64)

# compact values are square sums with >= 2 blocks; noncompact values
# additionally need exactly one marked block and sit below n^2 - 2
for n in (4, 10, 20):
    c, h = compact_count(table, n), noncompact_count(table, n)
    print(f"  n={n}: compact count c={c}, noncompact count h={h},"
          f" noncompact set {sorted(noncompact_set(table, n).values())[:8]}")

print()
print("=" * 64)
print("C. the desk-scale table: counts and growth ratios")
print("=" * 64)

started = time.perf_counter()
big = build_table(1001)
elapsed = time.perf_counter() - started
file_bytes = save_table(big, io.BytesIO())
print(f"  built every set up to n=1001 in {elapsed:.2f}s; the table keeps each"
      f" set's low and size ({file_bytes} bytes as a file)")
print("  n      c(n)   c/n^2     h(n)   h/n")
for row in ratio_table(big, [20, 100, 400, 1000]):
    print(f"  {row.n:<5}{row.compact:>8}   {row.compact_ratio}"
          f"  {row.noncompact:>7}   {row.noncompact_ratio}")
print("  c(n)/n^2 climbs toward 1/2; h(n)/n drifts toward 1.")
