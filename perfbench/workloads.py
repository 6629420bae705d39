"""The benchmark's workloads: one synthetic clip shape each.

Every workload uses search range 64 and reference distance 1, and two
frames, so one eval predicts one frame: short evals let a run take the
median of several.  The three clips stress different layers of
``cubemc eval``:

- ``small-blocks``: many small blocks, so per-candidate fixed overhead
  (scalar ``face_of`` calls, field builds, tiny warps) dominates.
- ``large-blocks``: few large blocks on a big canvas, so per-pixel warp
  cost and the full-plane pad on every warp call dominate.  Face 192
  rather than 256: one face-256 eval takes 15-45 s on a 2-core box, which
  leaves a traced run (three evals plus micro-timings) too close to the
  180-s limit of one benchmark run; the micro-timings still cover 256.
- ``fast-motion``: 12 px/frame, so the stage-2 winner lies far out, the
  stage-3 raster fires and the integer SAD stages dominate; the only
  workload with the MV-bits term (lambda 4) switched on.
"""

from __future__ import annotations

from dataclasses import dataclass

SEARCH_RANGE = 64
REF_DISTANCE = 1


@dataclass(frozen=True)
class Workload:
    name: str
    face: int
    block: int
    frames: int
    velocity: tuple[float, float, float]
    lambda_: float

    @property
    def width(self) -> int:
        return 4 * self.face

    @property
    def height(self) -> int:
        return 3 * self.face

    def render(self, seed: int, path) -> None:
        """Render the clip for texture ``seed`` and write it as raw 4:2:0."""
        from cubemc.frame_io import SyntheticSpec, generate_synthetic, write_yuv420

        spec = SyntheticSpec(self.face, self.frames, self.velocity, seed=seed)
        write_yuv420(path, generate_synthetic(spec))

    def argv(self, clip, out) -> list[str]:
        """``cubemc eval`` arguments; the program sees only the .yuv file."""
        return [
            "eval",
            "--input", str(clip),
            "--width", str(self.width),
            "--height", str(self.height),
            "--face-size", str(self.face),
            "--block-size", str(self.block),
            "--ref-distance", str(REF_DISTANCE),
            "--search-range", str(SEARCH_RANGE),
            "--lambda", str(self.lambda_),
            "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-blocks", face=64, block=16, frames=2, velocity=(0.0, 2.0, 0.0), lambda_=0.0),
        Workload("large-blocks", face=192, block=64, frames=2, velocity=(0.0, 2.0, 0.0), lambda_=0.0),
        Workload("fast-motion", face=128, block=32, frames=2, velocity=(0.0, 12.0, 0.0), lambda_=4.0),
    )
}
