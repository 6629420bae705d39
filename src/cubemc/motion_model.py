"""Per-pixel motion correspondence derived from one block motion vector.

A block carries a single MV measured at its center in the unfold plane.
Because most scene motion is uniform on the sphere rather than in the
projected plane, the true displacement of off-center pixels differs from
the center MV.  The transport here maps the center displacement onto the
sphere, applies it to each pixel's sphere position, and maps the result
back to the unfold plane, yielding one fractional reference coordinate
per pixel.

Fixed-point conventions: MVs are quarter-pel integers, correspondence
fields are 1/64-pel integers, both rounded half away from zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from cubemc.geometry import CubeLayout, face_of, sphere_to_unfold, unfold_to_sphere

__all__ = [
    "Block",
    "CorrespondenceField",
    "MotionVector",
    "build_correspondence_field",
    "translational_field",
    "transport_mv_predictor",
    "transport_point",
]

MV_UNIT = 4        # quarter-pel positions per pixel
FIELD_UNIT = 64    # 1/64-pel positions per pixel

# |s1 - s0 + s2| below this (times face_width) cannot be projected back
# to the cube reliably; affected pixels fall back to translation.
DEGENERATE_NORM = 1e-6


class MotionVector(NamedTuple):
    """2-D displacement in the unfold plane, quarter-pel units."""

    dx_q2: int
    dy_q2: int


class Block(NamedTuple):
    """Pixel-aligned block; must lie inside a single face rectangle."""

    x0: int
    y0: int
    width: int
    height: int

    @property
    def center(self) -> tuple[float, float]:
        """Continuous block center under the pixel-center convention."""
        return (self.x0 + (self.width - 1) / 2.0, self.y0 + (self.height - 1) / 2.0)


@dataclass
class CorrespondenceField:
    """Per-pixel reference coordinates for one block, 1/64-pel integers.

    The arrays are (h, w) for one field, or (n, h, w) for a batch of n
    fields of the same block (``build_correspondence_fields``).
    ``valid`` is False only where the sphere transport degenerated and
    the entry was filled with the translational fallback.
    """

    rx_q6: np.ndarray
    ry_q6: np.ndarray
    valid: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rx_q6.shape


def round_half_away(x):
    """Round to nearest integer, halves away from zero (sign-symmetric)."""
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


def block_face(block: Block, layout: CubeLayout):
    """The face containing the whole block; raises if it straddles.

    Face rectangles are axis-aligned, so two opposite corners decide.
    """
    face = face_of(block.x0, block.y0, layout)
    far = face_of(block.x0 + block.width - 1, block.y0 + block.height - 1, layout)
    if face is None or face != far:
        raise ValueError("block must lie inside a single face")
    return face


def _transport_from_sphere(s0, s1, s2x, s2y, s2z, layout: CubeLayout):
    s3x = s1[0] - s0[0] + s2x
    s3y = s1[1] - s0[1] + s2y
    s3z = s1[2] - s0[2] + s2z

    # the norm is summed in place and dropped once tested: only the three
    # coordinates and ok stay alive through sphere_to_unfold
    norm = s3x * s3x
    norm += s3y * s3y
    norm += s3z * s3z
    ok = np.sqrt(norm) >= DEGENERATE_NORM * layout.face_width
    del norm
    if not ok.all():
        # keep sphere_to_unfold total: substitute a unit ray where degenerate
        s3x = np.where(ok, s3x, 1.0)
        s3y = np.where(ok, s3y, 0.0)
        s3z = np.where(ok, s3z, 0.0)
    _, x3, y3 = sphere_to_unfold(s3x, s3y, s3z, layout)
    return x3, y3, ok


def _transport_arrays(u0, u1, x2, y2, layout: CubeLayout):
    """Vectorized sphere-uniform transport; returns (x3, y3, ok).

    Entries with ok == False hold unusable coordinates and must be
    replaced by the caller's fallback.  One geometry call maps all points.
    """
    x2, y2 = np.broadcast_arrays(x2, y2)
    xs = np.concatenate(([u0[0], u1[0]], x2.ravel()))
    ys = np.concatenate(([u0[1], u1[1]], y2.ravel()))
    s = unfold_to_sphere(xs, ys, layout)
    s0, s1 = ([axis[i] for axis in s] for i in (0, 1))
    s2x, s2y, s2z = (axis[2:].reshape(x2.shape) for axis in s)
    return _transport_from_sphere(s0, s1, s2x, s2y, s2z, layout)


@lru_cache(maxsize=1)
def _block_sphere(block: Block, layout: CubeLayout):
    """Sphere points of the block center (s0) and of its pixel grid,
    after the single-face check.  Cached for the block costed last: every
    candidate of a block is costed before the next block's, so one entry
    serves the whole block, and each frame of a run rebuilds each block's
    grid once.  Exceptions are not cached, so a straddling block raises
    on every call."""
    block_face(block, layout)
    s0 = unfold_to_sphere(*block.center, layout)
    ys, xs = np.mgrid[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
    grid = unfold_to_sphere(xs, ys, layout)
    for axis in grid:
        axis.flags.writeable = False
    return s0, grid


def transport_point(u0, u1, u2, layout: CubeLayout) -> tuple[float, float]:
    """Transport the center displacement u0 -> u1 to the pixel u2.

    All three inputs are on-face unfold points.  The result may land on
    a different face than u2.  Raises ``ValueError`` when the transported
    sphere point collapses toward the origin.
    """
    x3, y3, ok = _transport_arrays(u0, u1, u2[0], u2[1], layout)
    if not np.all(ok):
        raise ValueError("degenerate transport")
    return x3, y3


class CenterLattice(NamedTuple):
    """Sphere points of a block's moved center under every quarter-pel MV
    within ``reach`` of ``anchor`` per component (``center_lattice``)."""

    anchor: MotionVector
    reach: int
    s1: np.ndarray  # (3, 2 reach + 1, 2 reach + 1): axis, dy, dx

    def centers(self, mvs: Sequence[MotionVector]):
        """The s1 points of ``mvs`` as three (n, 1, 1) arrays, or None if
        one lies outside the lattice."""
        r, ax, ay = self.reach, self.anchor.dx_q2, self.anchor.dy_q2
        ix = [mv.dx_q2 - ax + r for mv in mvs]
        iy = [mv.dy_q2 - ay + r for mv in mvs]
        if not (0 <= min(ix) and max(ix) <= 2 * r and 0 <= min(iy) and max(iy) <= 2 * r):
            return None
        return self.s1[:, iy, ix][:, :, None, None]


def center_lattice(block: Block, anchor: MotionVector, reach: int,
                   layout: CubeLayout) -> CenterLattice | None:
    """Map the moved centers of ``block`` under every quarter-pel MV within
    ``reach`` of ``anchor`` in one ``unfold_to_sphere`` call, or return
    None if any of them is off the faces: the builds then map their own.

    The geometry is elementwise and each center is the same float64 sum
    ``cx + dx_q2 / 4`` a build computes, so every point has the bits that
    the build's own call would give it.
    """
    cx, cy = block.center
    q = np.arange(-reach, reach + 1)
    # a row of xs and a column of ys: the transforms broadcast them
    xs, ys = cx + (anchor.dx_q2 + q) / MV_UNIT, cy + (anchor.dy_q2 + q)[:, None] / MV_UNIT
    try:
        return CenterLattice(anchor, reach, np.array(unfold_to_sphere(xs, ys, layout)))
    except ValueError:  # the window reaches off the faces
        return None


def build_correspondence_field(
    block: Block, mv: MotionVector, layout: CubeLayout, lattice: CenterLattice | None = None
) -> CorrespondenceField:
    """Reference coordinates for every pixel of ``block`` under ``mv``.

    The center MV is applied at quarter-pel precision; per-pixel results
    are quantized to 1/64 pel.  Degenerate pixels fall back to plain
    translation and are flagged invalid.
    """
    batch = build_correspondence_fields(block, [mv], layout, lattice)
    return CorrespondenceField(batch.rx_q6[0], batch.ry_q6[0], batch.valid[0])


def build_correspondence_fields(
    block: Block, mvs: Sequence[MotionVector], layout: CubeLayout,
    lattice: CenterLattice | None = None,
) -> CorrespondenceField:
    """The fields of ``block`` under each of ``mvs``, as one (n, h, w) batch.

    Slice i equals ``build_correspondence_field(block, mvs[i], layout)``.
    The block's face check, its center's sphere point s0 and its pixel
    grid's sphere points are computed once per block and cached; only
    the chord s1 - s0 differs between MVs, so all the moved centers u1
    are mapped in one call, or read from ``lattice`` (a ``center_lattice``
    of this block) when it holds every one, and the transport broadcasts
    over the batch.  Raises ``ValueError`` if the block straddles faces
    ("single face") or if any u1 is off the faces ("invalid center MV").
    """
    s0, (s2x, s2y, s2z) = _block_sphere(block, layout)
    s1 = None if lattice is None else lattice.centers(mvs)
    if s1 is None:
        cx, cy = block.center
        u1 = np.array([(cx + mv.dx_q2 / MV_UNIT, cy + mv.dy_q2 / MV_UNIT) for mv in mvs])
        try:
            s1 = [axis[:, None, None] for axis in unfold_to_sphere(*u1.T, layout)]
        except ValueError as exc:
            raise ValueError("invalid center MV") from exc
    x3, y3, ok = _transport_from_sphere(s0, s1, s2x, s2y, s2z, layout)

    rx, ry = _to_q6(x3), _to_q6(y3)
    if not ok.all():
        fallback = [translational_field(block, mv) for mv in mvs]
        rx = np.where(ok, rx, np.stack([f.rx_q6 for f in fallback]))
        ry = np.where(ok, ry, np.stack([f.ry_q6 for f in fallback]))
    return CorrespondenceField(rx, ry, ok)


def _to_q6(x: np.ndarray) -> np.ndarray:
    """``round_half_away(x * FIELD_UNIT)`` as int32, computed in place in
    ``x`` as ``floor(64 x + 0.5)``: the same wherever ``64 x > -0.5``, and
    an unfold coordinate from ``sphere_to_unfold`` is never below about
    -1e-15 R (a face-center constant of at least R minus at most R)."""
    x *= FIELD_UNIT
    x += 0.5
    return np.floor(x, out=x).astype(np.int32)


def translational_field(block: Block, mv: MotionVector) -> CorrespondenceField:
    """Classic block MC: every pixel shares the center MV."""
    ys, xs = np.mgrid[
        block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width
    ]
    rx = xs.astype(np.int64) * FIELD_UNIT + mv.dx_q2 * (FIELD_UNIT // MV_UNIT)
    ry = ys.astype(np.int64) * FIELD_UNIT + mv.dy_q2 * (FIELD_UNIT // MV_UNIT)
    return CorrespondenceField(
        rx.astype(np.int32), ry.astype(np.int32), np.ones(xs.shape, dtype=bool)
    )


def transport_mv_predictor(
    nb_center: tuple[float, float],
    nb_mv: MotionVector,
    cur_center: tuple[float, float],
    layout: CubeLayout,
) -> MotionVector:
    """Carry a neighbor's MV to the current block center.

    The neighbor's displacement is transported through the sphere to the
    current center and re-rounded to the quarter-pel grid.  Degenerate
    transport returns ``nb_mv`` unchanged.
    """
    u1 = (nb_center[0] + nb_mv.dx_q2 / MV_UNIT, nb_center[1] + nb_mv.dy_q2 / MV_UNIT)
    x3, y3, ok = _transport_arrays(nb_center, u1, cur_center[0], cur_center[1], layout)
    if not ok:
        return nb_mv
    dx = int(round_half_away((x3 - cur_center[0]) * MV_UNIT))
    dy = int(round_half_away((y3 - cur_center[1]) * MV_UNIT))
    return MotionVector(dx, dy)
