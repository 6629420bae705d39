"""Raw YUV 4:2:0 sequence I/O and synthetic cube-map content.

Files are headerless planar 8-bit 4:2:0; the frame count is inferred
from the file size.  The synthetic generator renders a fixed procedural
texture on the sphere and translates it by a constant sphere-space
velocity per frame, so the true inter-frame correspondence of every
pixel is known in closed form (``ground_truth_match``).  That makes the
sequences usable as oracles for the motion model and the evaluator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from cubemc.geometry import CubeLayout, Face, face_of, sphere_to_unfold, unfold_to_sphere

__all__ = [
    "Frame",
    "SyntheticSpec",
    "read_yuv420",
    "write_yuv420",
    "generate_synthetic",
    "ground_truth_match",
]

HOLE_VALUE = 128  # unused corner regions of the 4x3 canvas

LUMA_LO, LUMA_HI = 16, 235
CHROMA_LO, CHROMA_HI = 16, 240


@dataclass
class Frame:
    """One picture: full-size luma plus half-size chroma planes, all uint8."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    poc: int = 0

    def __post_init__(self):
        if any(p.dtype != np.uint8 for p in (self.y, self.u, self.v)):
            raise ValueError("planes must be uint8")
        h, w = self.y.shape
        if h % 2 or w % 2:
            raise ValueError("luma dimensions must be even")
        if self.u.shape != (h // 2, w // 2) or self.v.shape != (h // 2, w // 2):
            raise ValueError("chroma planes must be half the luma size")


def read_yuv420(path, width: int, height: int) -> list[Frame]:
    """Read a headerless planar 4:2:0 file; frame count from its size.
    Each plane is read straight into its own array, with no file copy."""
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    if width % 2 or height % 2:
        raise ValueError("width and height must be even")
    frame_bytes = width * height * 3 // 2
    shapes = ((height, width), (height // 2, width // 2), (height // 2, width // 2))
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % frame_bytes:
            raise ValueError(
                f"file size {size} is not a multiple of the "
                f"{width}x{height} 4:2:0 frame size {frame_bytes}"
            )
        frames = []
        for t in range(size // frame_bytes):
            planes = [np.empty(shape, dtype=np.uint8) for shape in shapes]
            for plane in planes:
                if fh.readinto(plane) != plane.size:
                    raise ValueError(f"short read in frame {t} of {size // frame_bytes}")
            frames.append(Frame(*planes, poc=t))
    return frames


def write_yuv420(path, frames) -> None:
    with open(path, "wb") as fh:
        for f in frames:
            fh.write(f.y.tobytes())
            fh.write(f.u.tobytes())
            fh.write(f.v.tobytes())


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a procedurally textured sphere-translation clip.

    The per-frame velocity must stay below face_width/8 so the
    correspondence transport remains well conditioned everywhere.
    """

    face_width: int
    frames: int
    velocity: tuple[float, float, float]
    seed: int = 0
    lobes: int = 4

    def __post_init__(self):
        if self.face_width < 8 or self.frames < 1:
            raise ValueError("face_width must be >= 8 and frames >= 1")
        if self.lobes < 3:
            raise ValueError("need at least 3 texture lobes")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not all(math.isfinite(c) for c in self.velocity):
            raise ValueError("velocity components must be finite")
        speed = math.sqrt(sum(c * c for c in self.velocity))
        if speed >= self.face_width / 8.0:
            raise ValueError("velocity magnitude must stay below face_width/8")


@dataclass(frozen=True)
class _Texture:
    amp: np.ndarray
    freq: np.ndarray
    axes: np.ndarray
    phase: np.ndarray

    def __call__(self, dx, dy, dz) -> np.ndarray:
        # sum of cosine lobes over unit directions, range [-1, 1]
        out = np.zeros(np.shape(dx), dtype=np.float64)
        for a, f, g, ph in zip(self.amp, self.freq, self.axes, self.phase):
            out += a * np.cos(f * (dx * g[0] + dy * g[1] + dz * g[2]) + ph)
        return out


def _draw_texture(rng: np.random.Generator, lobes: int) -> _Texture:
    amp = rng.uniform(0.5, 1.0, size=lobes)
    amp /= amp.sum()
    freq = rng.uniform(2.0, 5.0, size=lobes)
    axes = rng.normal(size=(lobes, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=lobes)
    return _Texture(amp, freq, axes, phase)


def _face_grid(layout: CubeLayout, step: int):
    """Coordinates and face mask of a (possibly subsampled) canvas grid."""
    ys, xs = np.mgrid[0 : layout.canvas_height : step, 0 : layout.canvas_width : step]
    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    mask = face_of(x, y, layout) >= 0
    return x, y, mask


def _render_plane(tex, x, y, mask, t, velocity, layout, lo, hi) -> np.ndarray:
    # hole pixels are rendered at a face center, then overwritten
    hole_x, hole_y = layout.face_center(Face.FRONT)
    sx, sy, sz = unfold_to_sphere(np.where(mask, x, hole_x), np.where(mask, y, hole_y), layout)
    qx = sx - t * velocity[0]
    qy = sy - t * velocity[1]
    qz = sz - t * velocity[2]
    norm = np.sqrt(qx * qx + qy * qy + qz * qz)
    val = tex(qx / norm, qy / norm, qz / norm)
    plane = lo + np.rint((val + 1.0) / 2.0 * (hi - lo))
    return np.where(mask, plane, HOLE_VALUE).astype(np.uint8)


def generate_synthetic(spec: SyntheticSpec) -> list[Frame]:
    """Render the sequence described by ``spec``.

    Frame t shows the texture translated by t * velocity in sphere
    space; corner holes hold 128.  Chroma uses two companion textures
    rendered at half resolution with the same motion.
    """
    layout = CubeLayout(spec.face_width, spec.face_width)
    rng = np.random.default_rng(spec.seed)
    tex_y = _draw_texture(rng, spec.lobes)
    tex_u = _draw_texture(rng, spec.lobes)
    tex_v = _draw_texture(rng, spec.lobes)

    # chroma samples are co-located with every second luma sample
    xl, yl, ml = _face_grid(layout, 1)
    xc, yc, mc = _face_grid(layout, 2)

    frames = []
    for t in range(spec.frames):
        y = _render_plane(tex_y, xl, yl, ml, t, spec.velocity, layout, LUMA_LO, LUMA_HI)
        u = _render_plane(tex_u, xc, yc, mc, t, spec.velocity, layout, CHROMA_LO, CHROMA_HI)
        v = _render_plane(tex_v, xc, yc, mc, t, spec.velocity, layout, CHROMA_LO, CHROMA_HI)
        frames.append(Frame(y, u, v, poc=t))
    return frames


def ground_truth_match(p, t_delta: float, spec: SyntheticSpec):
    """Where the content of pixel ``p`` at frame t sits at frame t + t_delta.

    Follows the generator's motion exactly: the sphere point of ``p``
    translated by t_delta * velocity, projected back to the canvas.
    Accepts scalar or array coordinates.
    """
    layout = CubeLayout(spec.face_width, spec.face_width)
    sx, sy, sz = unfold_to_sphere(p[0], p[1], layout)
    _, x, y = sphere_to_unfold(
        sx + t_delta * spec.velocity[0],
        sy + t_delta * spec.velocity[1],
        sz + t_delta * spec.velocity[2],
        layout,
    )
    return x, y
