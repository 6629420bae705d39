"""Fractional-pel interpolation at 1/64-pel steps

Prediction samples rarely land on the integer grid, so the warp
resolves each correspondence coordinate with separable 8-tap filters.
The bank holds one filter per 1/64-pel phase; the quarter-pel phases
coincide with the familiar HEVC luma filters.
"""

import numpy as np

from cubemc import (
    Block,
    CubeLayout,
    MotionVector,
    build_correspondence_field,
    generate_dctif_bank,
    sample_fractional,
    warp_block,
)

bank = generate_dctif_bank()
print(f"filter bank: {bank.shape[0]} phases x {bank.shape[1]} taps, "
      f"every row sums to {int(bank.sum(axis=1).min())}")
for phase in (0, 16, 32, 48):
    taps = ", ".join(f"{t:3d}" for t in bank[phase])
    print(f"  phase {phase:2d}: [{taps}]")

# A linear ramp interpolates exactly at every phase.
ramp = np.arange(64, dtype=np.uint8).reshape(1, 64).repeat(8, axis=0)
x_q6 = np.int32(10 * 64 + 32)            # x = 10.5
val = sample_fractional(ramp, x_q6, np.int32(4 * 64))
print(f"\nramp value at x=10.5: {val} (midpoint of 10 and 11)")

vals = np.array([int(sample_fractional(ramp, 10 * 64 + p, 4 * 64))
                 for p in range(64)])
steps = np.diff(vals)
print(f"64 sub-pel steps from x=10 to x=11: values {vals[0]}..{vals[-1]}, "
      f"step spread {steps.min()}..{steps.max()}")

# Warping a block with a zero MV is a plain copy; quarter-pel MVs
# engage the filters.
rng = np.random.default_rng(3)
plane = rng.integers(16, 236, size=(192, 256), dtype=np.uint8)
layout = CubeLayout(64, 64)
block = Block(24, 88, 16, 16)

still = warp_block(plane, build_correspondence_field(block, MotionVector(0, 0), layout))
src = plane[88:104, 24:40]
print(f"\nzero-MV warp identical to copy: {np.array_equal(still, src)}")

moved = warp_block(plane, build_correspondence_field(block, MotionVector(5, -3), layout))
print(f"quarter-pel warp (5,-3): mean |difference| vs copy "
      f"{np.abs(moved.astype(int) - src.astype(int)).mean():.1f} gray levels")
