#!/usr/bin/env python3
"""Classify queried dimensions and emit witness domains.

The top of the achievable range is rigid: n^2+2n only for the ball,
n^2+2 only for ball x disc, n^2 for a short list of families.  Below
n^2-2 a value is compact ('bad', unclassifiable domains), noncompact
('good'), or reachable only with two or more marked blocks (no smooth
bounded domain).  No table is needed: membership below n^2 - 2 is
decided by the growth-sequence prefix and the largest-part recursion,
so the ladder answers at n = 10^7 in milliseconds.
"""

from reinhardt import classify_dimension, make_witness, realizations

print("=" * 64)
print("A. the decision ladder at small n and at n=10^7")
print("=" * 64)

for n, dim in [(5, 35), (5, 27), (4, 16), (3, 9), (4, 12), (4, 14), (4, 15), (4, 8)]:
    c = classify_dimension(n, dim)
    fams = ", ".join(f.tag for f in c.families)
    extra = f" families: {fams}" if fams else ""
    print(f"  (n={n}, dim={dim}) -> {c.status}{extra}")
    if c.notes:
        print(f"      note: {c.notes}")

n = 10**7
for label, dim in [("2n+2", n * n - 2 * n + 2), ("2n+4", n * n - 2 * n + 4),
                   ("2n+6", n * n - 2 * n + 6), ("2", n * n - 2)]:
    print(f"  (n=10^7, dim=n^2-{label}) -> {classify_dimension(n, dim, False).status}")

print()
print("=" * 64)
print("B. realizations: which marked partitions hit a value")
print("=" * 64)

for n, dim in [(4, 16), (4, 12)]:
    print(f"  (n={n}, dim={dim}):")
    for r in realizations(n, dim):
        print(f"    {r}")

print()
print("=" * 64)
print("C. symbolic witness domains (canonical exponent choice)")
print("=" * 64)

# one marked block: the marked block keeps |z|^2, the rest get distinct
# even exponents; no marked block: a generalized egg
for n, dim in [(4, 12), (4, 10), (5, 13)]:
    candidates = realizations(n, dim, mode="smooth_bounded")
    w = make_witness(candidates[0])
    print(f"  (n={n}, dim={dim}):  {w.inequality}")
    print(f"      blocks {w.blocks}, construction {w.construction},"
          f" claimed dimension {w.claimed_dimension}")
print("  each witness is a candidate: its automorphism group is not"
      " verified here")
