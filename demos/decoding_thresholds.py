#!/usr/bin/env python3
"""Reproduce the bit-flipping decoding-threshold curves.

For each column weight d_v, the threshold is the largest error count the
density-evolution analysis of threshold-b flipping still drives to zero,
maximized over b.  It grows linearly in the code length and generally
shrinks as the parity-check matrix gets denser: the sparse families correct
far more errors, which is the engine behind the density optimization.
"""

from qcmc import ThresholdQuery, bf_threshold_detail
from qcmc.cli import main

n0 = 4
lengths = [16384, 20480, 24576, 28672]
weights = [13, 15, 25, 45, 59, 77]

print(f"BF decoding thresholds, n0 = {n0}")
header = "d_v \\ n " + "".join(f"{n:>9}" for n in lengths)
print(header)
for d_v in weights:
    cells = []
    for n in lengths:
        t_max, b_opt = bf_threshold_detail(ThresholdQuery(n, n0, d_v))
        cells.append(f"{t_max:>6}/b{b_opt}")
    print(f"{d_v:>7} " + "".join(f"{c:>9}" for c in cells))

print()
print("well-known reference points:")
for n, d_v, quoted in [(16384, 13, 181), (16384, 15, 187), (28672, 15, 327),
                       (16384, 59, 68), (28672, 77, 98), (25088, 85, 77)]:
    got = bf_threshold_detail(ThresholdQuery(n, n0, d_v))[0]
    print(f"  n={n:6d} d_v={d_v:3d}: computed {got:4d}  (published {quoted})")

print()
print("CSV of the grid (same data the `qcmc threshold` command emits):")
main(["threshold", "--n0", str(n0), "--dv", "13,15", "--p-range", "16384,28672"])
