"""Coordinate transforms between the unfolded 4x3 cube map, the cube, and the sphere.

Conventions
-----------
* The unfolded canvas is ``4*face_width`` wide and ``3*face_height`` tall.
  The top-left pixel has continuous coordinate ``(0, 0)``; integer
  coordinates are pixel centers.
* Face placement on the canvas (column, row in face units)::

      TOP    = (0, 0)
      FRONT  = (0, 1)   RIGHT = (1, 1)   REAR = (2, 1)   LEFT = (3, 1)
      BOTTOM = (0, 2)

  The remaining six cells of the 4x3 grid are unused corner holes.
* The cube is centered at the origin with half-edge ``face_width / 2``;
  every on-surface point has dominant coordinate ``+-face_width / 2``.
* The sphere is the cube's inscribed-direction sphere of radius
  ``face_width / 2``; cube <-> sphere projection is radial.

All transforms accept scalars or numpy arrays (broadcast elementwise) and
are pure functions, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from numbers import Real

import numpy as np

__all__ = [
    "Face",
    "CubeLayout",
    "face_of",
    "unfold_to_cube",
    "cube_to_unfold",
    "cube_to_sphere",
    "sphere_to_cube",
    "unfold_to_sphere",
    "sphere_to_unfold",
]

NO_FACE = -1


class Face(IntEnum):
    """The six cube faces, in dominant-axis tie-break priority order."""

    TOP = 0     # +z
    FRONT = 1   # +y
    BOTTOM = 2  # -z
    RIGHT = 3   # +x
    REAR = 4    # -y
    LEFT = 5    # -x


# Face placement on the unfolded canvas, (column, row) in face units.
_FACE_CELL = {
    Face.TOP: (0, 0),
    Face.FRONT: (0, 1),
    Face.RIGHT: (1, 1),
    Face.REAR: (2, 1),
    Face.LEFT: (3, 1),
    Face.BOTTOM: (0, 2),
}

# Middle-row faces indexed by canvas column.
_ROW1 = (Face.FRONT, Face.RIGHT, Face.REAR, Face.LEFT)
_ROW1_FACES = np.array(_ROW1, dtype=np.int8)

# Per-face affine maps from unfold (x_u, y_u) to cube (x_c, y_c, z_c),
# expressed as coeff_x * x_u + coeff_y * y_u + const, with the constant in
# units of the face width.  Order follows the Face enum.
_TO_CUBE = {
    # x_c
    "xx": np.array([1.0, 1.0, 1.0, 0.0, -1.0, 0.0]),
    "xy": np.zeros(6),
    "xc": np.array([-0.5, -0.5, -0.5, 0.5, 2.5, -0.5]),
    # y_c
    "yx": np.array([0.0, 0.0, 0.0, -1.0, 0.0, 1.0]),
    "yy": np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]),
    "yc": np.array([-0.5, 0.5, 2.5, 1.5, -0.5, -3.5]),
    # z_c
    "zx": np.zeros(6),
    "zy": np.array([0.0, -1.0, 0.0, -1.0, -1.0, -1.0]),
    "zc": np.array([0.5, 1.5, -0.5, 1.5, 1.5, 1.5]),
}

# Inverse maps from cube (x_c, y_c, z_c) back to unfold (x_u, y_u).
_TO_UNFOLD = {
    "ux": np.array([1.0, 1.0, 1.0, 0.0, -1.0, 0.0]),
    "uy": np.array([0.0, 0.0, 0.0, -1.0, 0.0, 1.0]),
    "uz": np.zeros(6),
    "uc": np.array([0.5, 0.5, 0.5, 1.5, 2.5, 3.5]),
    "vx": np.zeros(6),
    "vy": np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]),
    "vz": np.array([0.0, -1.0, 0.0, -1.0, -1.0, -1.0]),
    "vc": np.array([0.5, 1.5, 2.5, 1.5, 1.5, 1.5]),
}


@dataclass(frozen=True)
class CubeLayout:
    """Dimensions and face placement of the unfolded 4x3 cube map.

    Faces must be square and at least 8 px wide; the equations mix width
    and height in a way that is only self-consistent for square faces.
    """

    face_width: int
    face_height: int

    def __post_init__(self) -> None:
        if self.face_width != self.face_height:
            raise ValueError("faces must be square")
        if self.face_width < 8:
            raise ValueError("face_width must be >= 8")

    @property
    def canvas_width(self) -> int:
        return 4 * self.face_width

    @property
    def canvas_height(self) -> int:
        return 3 * self.face_height

    @property
    def radius(self) -> float:
        """Sphere radius (= cube half-edge) in pixels."""
        return self.face_width / 2.0

    def face_rect(self, face: Face) -> tuple[int, int, int, int]:
        """Half-open rectangle ``(x0, y0, x1, y1)`` of ``face`` on the canvas."""
        col, row = _FACE_CELL[Face(face)]
        w, h = self.face_width, self.face_height
        return (col * w, row * h, (col + 1) * w, (row + 1) * h)

    def face_center(self, face: Face) -> tuple[float, float]:
        """Continuous center of the face rectangle.

        Maps to the face's signed axis point on the cube and sphere
        (e.g. the FRONT center of a 64-px layout is (32, 96) -> (0, 32, 0)).
        """
        x0, y0, x1, y1 = self.face_rect(face)
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


def _is_scalar(*values) -> bool:
    return all(np.ndim(v) == 0 for v in values)


def _face_of_arrays(x, y, layout: CubeLayout):
    w, h = layout.face_width, layout.face_height
    inside = (x >= 0) & (x < 4 * w) & (y >= 0) & (y < 3 * h)
    col = np.clip(np.floor(x / w), 0, 3).astype(np.intp)
    row = np.clip(np.floor(y / h), 0, 2).astype(np.intp)

    top = inside & (row == 0) & (col == 0)
    mid = inside & (row == 1)
    bot = inside & (row == 2) & (col == 0)
    face = np.where(
        top, np.int8(Face.TOP),
        np.where(bot, np.int8(Face.BOTTOM),
                 np.where(mid, _ROW1_FACES[col], np.int8(NO_FACE))),
    )
    return face.astype(np.int8)


def face_of(x_u, y_u, layout: CubeLayout):
    """Face containing the unfold point, or none.

    Scalar inputs return a :class:`Face` or ``None``; array inputs return
    an int8 array with ``NO_FACE`` (-1) marking corner holes and
    out-of-canvas points.  Face rectangles are half-open.  Real scalars
    are resolved with plain float arithmetic and no numpy call, using the
    same float64 division as the array path.
    """
    if isinstance(x_u, Real) and isinstance(y_u, Real):
        x, y = float(x_u), float(y_u)
        w, h = layout.face_width, layout.face_height
        if not (0 <= x < 4 * w and 0 <= y < 3 * h):  # also rejects NaN
            return None
        col, row = math.floor(x / w), math.floor(y / h)
        if row == 1:
            return _ROW1[col]
        if col == 0:
            return Face.TOP if row == 0 else Face.BOTTOM
        return None
    scalar = _is_scalar(x_u, y_u)
    x = np.asarray(x_u, dtype=np.float64)
    y = np.asarray(y_u, dtype=np.float64)
    face = _face_of_arrays(x, y, layout)
    if scalar:
        f = int(face)
        return None if f == NO_FACE else Face(f)
    return face


def unfold_to_cube(x_u, y_u, layout: CubeLayout):
    """Map on-face unfold points to the cube surface.

    Returns ``(x_c, y_c, z_c)``.  Raises ``ValueError`` for points in
    corner holes or outside the canvas.
    """
    scalar = _is_scalar(x_u, y_u)
    x = np.asarray(x_u, dtype=np.float64)
    y = np.asarray(y_u, dtype=np.float64)
    face = _face_of_arrays(x, y, layout)
    if np.any(face == NO_FACE):
        raise ValueError("not on a face")
    out = _unfold_to_cube_on(face, x, y, layout)
    if scalar:
        return tuple(float(v) for v in out)
    return out


def _unfold_to_cube_on(face, x, y, layout: CubeLayout):
    """Apply the per-face affine maps; ``face`` must already be valid."""
    w = float(layout.face_width)
    t = _TO_CUBE
    x_c = t["xx"][face] * x + t["xy"][face] * y + t["xc"][face] * w
    y_c = t["yx"][face] * x + t["yy"][face] * y + t["yc"][face] * w
    z_c = t["zx"][face] * x + t["zy"][face] * y + t["zc"][face] * w
    return x_c, y_c, z_c


def _dominant_face(x_c, y_c, z_c):
    """Face whose axis dominates, ties broken in Face priority order."""
    m = np.maximum(np.maximum(np.abs(x_c), np.abs(y_c)), np.abs(z_c))
    return np.select(
        [z_c == m, y_c == m, -z_c == m, x_c == m, -y_c == m],
        [Face.TOP, Face.FRONT, Face.BOTTOM, Face.RIGHT, Face.REAR],
        default=Face.LEFT,
    ).astype(np.int8), m


def _cube_to_unfold_on(face, x_c, y_c, z_c, layout: CubeLayout):
    w = float(layout.face_width)
    t = _TO_UNFOLD
    x_u = t["ux"][face] * x_c + t["uy"][face] * y_c + t["uz"][face] * z_c + t["uc"][face] * w
    y_u = t["vx"][face] * x_c + t["vy"][face] * y_c + t["vz"][face] * z_c + t["vc"][face] * w
    return x_u, y_u


def cube_to_unfold(x_c, y_c, z_c, layout: CubeLayout):
    """Inverse of :func:`unfold_to_cube` for on-surface cube points.

    Returns ``(face, x_u, y_u)``.  Raises ``ValueError`` if the dominant
    coordinate is not ``+-face_width/2`` within ``1e-9 * face_width``.
    """
    scalar = _is_scalar(x_c, y_c, z_c)
    xc = np.asarray(x_c, dtype=np.float64)
    yc = np.asarray(y_c, dtype=np.float64)
    zc = np.asarray(z_c, dtype=np.float64)
    face, m = _dominant_face(xc, yc, zc)
    if np.any(np.abs(m - layout.radius) > 1e-9 * layout.face_width):
        raise ValueError("not on surface")
    x_u, y_u = _cube_to_unfold_on(face, xc, yc, zc, layout)
    if scalar:
        return Face(int(face)), float(x_u), float(y_u)
    return face, x_u, y_u


def cube_to_sphere(x_c, y_c, z_c, layout: CubeLayout):
    """Radial projection of a cube point onto the sphere of radius w/2."""
    scalar = _is_scalar(x_c, y_c, z_c)
    xc = np.asarray(x_c, dtype=np.float64)
    yc = np.asarray(y_c, dtype=np.float64)
    zc = np.asarray(z_c, dtype=np.float64)
    norm = np.sqrt(xc * xc + yc * yc + zc * zc)
    if np.any(norm == 0.0):
        raise ValueError("degenerate direction")
    scale = layout.radius / norm
    out = (xc * scale, yc * scale, zc * scale)
    if scalar:
        return tuple(float(v) for v in out)
    return out


def sphere_to_cube(x_s, y_s, z_s, layout: CubeLayout):
    """Radial projection of any nonzero point onto the cube surface.

    The input need not lie on the sphere; only its direction matters.
    """
    scalar = _is_scalar(x_s, y_s, z_s)
    xs = np.asarray(x_s, dtype=np.float64)
    ys = np.asarray(y_s, dtype=np.float64)
    zs = np.asarray(z_s, dtype=np.float64)
    m = np.maximum(np.maximum(np.abs(xs), np.abs(ys)), np.abs(zs))
    if np.any(m == 0.0):
        raise ValueError("degenerate direction")
    scale = layout.radius / m
    out = (xs * scale, ys * scale, zs * scale)
    if scalar:
        return tuple(float(v) for v in out)
    return out


def unfold_to_sphere(x_u, y_u, layout: CubeLayout):
    """Unfold -> cube -> sphere composition."""
    return cube_to_sphere(*unfold_to_cube(x_u, y_u, layout), layout)


def sphere_to_unfold(x_s, y_s, z_s, layout: CubeLayout):
    """Sphere (or any nonzero direction) -> cube -> unfold composition.

    Total on nonzero inputs: every ray from the origin hits exactly one
    face, with edge/corner ties broken in Face priority order.
    Returns ``(face, x_u, y_u)``.
    """
    scalar = _is_scalar(x_s, y_s, z_s)
    xc, yc, zc = sphere_to_cube(x_s, y_s, z_s, layout)
    xc = np.asarray(xc, dtype=np.float64)
    yc = np.asarray(yc, dtype=np.float64)
    zc = np.asarray(zc, dtype=np.float64)
    face, _ = _dominant_face(xc, yc, zc)
    x_u, y_u = _cube_to_unfold_on(face, xc, yc, zc, layout)
    if scalar:
        return Face(int(face)), float(x_u), float(y_u)
    return face, x_u, y_u
