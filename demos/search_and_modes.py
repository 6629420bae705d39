"""Motion search and per-block mode decision

Runs the zone search and the three-way mode decision (translational,
advanced merge, advanced AMVP) over one synthetic frame pair and prints
what the grid decided.

1. generate two frames of a sphere-uniform synthetic sequence,
2. search every block of the grid,
3. tally modes and show a few records.
"""

from collections import Counter

from cubemc import (
    BlockGrid,
    CubeLayout,
    ReferencePicture,
    SearchConfig,
    SyntheticSpec,
    generate_synthetic,
    mode_decide,
)


def main():
    spec = SyntheticSpec(face_width=64, frames=2, velocity=(0.0, 2.0, 0.0), seed=11)
    ref_frame, cur_frame = generate_synthetic(spec)
    layout = CubeLayout(spec.face_width, spec.face_width)

    grid = BlockGrid(layout, block_size=16)
    ref = ReferencePicture(ref_frame, poc=0)
    cfg = SearchConfig(search_range=16)

    print(f"searching {len(grid.blocks)} blocks of {grid.block_size} px ...")
    for block in grid.blocks:
        mode_decide(block, cur_frame.y, ref, grid, cfg, layout)

    modes = Counter(rec.mode.value for rec in grid.records.values())
    total = sum(modes.values())
    print("mode histogram:")
    for mode, count in sorted(modes.items()):
        print(f"  {mode:10s} {count:3d}  ({count / total:.0%})")

    print("\nfirst blocks of the front face:")
    for key in sorted(grid.records):
        x0, y0 = key
        if not (x0 < 48 and 64 <= y0 < 96):
            continue
        rec = grid.records[key]
        print(f"  block ({x0:3d},{y0:3d}): {rec.mode.value:10s} "
              f"mv=({rec.mv.dx_q2:3d},{rec.mv.dy_q2:3d}) q2  cost={rec.cost:.0f}")


if __name__ == "__main__":
    main()
