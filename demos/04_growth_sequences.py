#!/usr/bin/env python3
"""The inductive growth scaffolding behind the density of achievable values.

Three sequences are built together: reach(n) tops a guaranteed interval
{n, n+2, ..., reach(n)} of achievable square sums, threshold(n) is the
exact half of reach(n)+n+4, and anchor(n) is the largest kappa < n whose
threshold fits under n.  reach(n)/n^2 tending to 1 is what drives the
compact count toward n^2/2.
"""

from reinhardt import build_table, compact_count, growth_sequence

rows = growth_sequence(500)

print("n    reach  2*threshold  anchor")
for n in (0, 1, 4, 18, 50, 200, 500):
    r = rows[n]
    anchor = "-" if r.anchor is None else r.anchor
    print(f"{n:<5}{r.reach:<7}{2 * r.threshold:<13}{anchor}")

print()
print("frozen landmark: anchor(18) =", rows[18].anchor)

table = build_table(500)
print()
print("the guaranteed interval sits inside every set, and bounds the count:")
for n in (10, 100, 500):
    r = rows[n]
    span = (r.reach - n) // 2
    mask = (1 << (span + 1)) - 1
    inside = table.sets[n].bits & mask == mask
    print(f"  n={n}: interval up to {r.reach} inside set: {inside};"
          f" c({n})={compact_count(table, n)} >= {span}")

print()
print("reach(n)/n^2 over n:", ", ".join(
    f"{n}:{rows[n].reach / (n * n):.3f}" for n in (50, 100, 200, 500)))
