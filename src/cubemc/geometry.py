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

Each transform is an array core on float64 arrays behind one scalar
adapter, which converts the coordinates once and broadcasts them
elementwise.  When every coordinate is a scalar or 0-d array, results are
Python values: ``float``, ``Face``, and ``None`` for ``NO_FACE``.
Otherwise faces are int8 arrays with ``NO_FACE`` (-1) marking corner holes
and off-canvas points.  All transforms are pure, safe to call concurrently.
"""

from __future__ import annotations

import functools
import inspect
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


def _elementwise(core):
    """Lift an array core to the scalar-or-array API of the module docstring."""

    @functools.wraps(core)
    def transform(*args, **kwargs):
        if kwargs:
            args = inspect.signature(core).bind(*args, **kwargs).args
        *coords, layout = args
        arrays = [np.asarray(v, dtype=np.float64) for v in coords]
        out = core(*arrays, layout)
        if any(a.ndim for a in arrays):
            return out
        if isinstance(out, tuple):
            return tuple(_python(v) for v in out)
        return _python(out)

    transform.__name__ = transform.__qualname__ = core.__name__.lstrip("_")
    return transform


def _python(v):
    if v.dtype == np.int8:
        return None if v == NO_FACE else Face(int(v))
    return float(v)


def _face_of(x_u, y_u, layout: CubeLayout):
    w, h = layout.face_width, layout.face_height
    inside = (x_u >= 0) & (x_u < 4 * w) & (y_u >= 0) & (y_u < 3 * h)
    col = np.clip(np.floor(x_u / w), 0, 3).astype(np.intp)
    row = np.clip(np.floor(y_u / h), 0, 2).astype(np.intp)

    top = inside & (row == 0) & (col == 0)
    mid = inside & (row == 1)
    bot = inside & (row == 2) & (col == 0)
    face = np.where(
        top, np.int8(Face.TOP),
        np.where(bot, np.int8(Face.BOTTOM),
                 np.where(mid, _ROW1_FACES[col], np.int8(NO_FACE))),
    )
    return face.astype(np.int8)


_face_of_any = _elementwise(_face_of)


def face_of(x_u, y_u, layout: CubeLayout):
    """Face containing the unfold point, or none (``NO_FACE`` in arrays).

    Face rectangles are half-open.  Real scalars are resolved with plain
    float arithmetic and no numpy call, using the same float64 division
    as the array path.
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
    return _face_of_any(x_u, y_u, layout)


def _unfold_to_cube(x_u, y_u, layout: CubeLayout):
    """Map on-face unfold points to the cube surface.

    Returns ``(x_c, y_c, z_c)``.  Raises ``ValueError`` for points in
    corner holes or outside the canvas.
    """
    face = _face_of(x_u, y_u, layout)
    if np.any(face == NO_FACE):
        raise ValueError("not on a face")
    w = float(layout.face_width)
    t = _TO_CUBE
    x_c = t["xx"][face] * x_u + t["xy"][face] * y_u + t["xc"][face] * w
    y_c = t["yx"][face] * x_u + t["yy"][face] * y_u + t["yc"][face] * w
    z_c = t["zx"][face] * x_u + t["zy"][face] * y_u + t["zc"][face] * w
    return x_c, y_c, z_c


def _max_abs(x, y, z):
    return np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z))


def _to_unfold(x_c, y_c, z_c, layout: CubeLayout):
    """Dominant face of on-surface cube points (ties broken in Face
    priority order) and their unfold coordinates."""
    m = _max_abs(x_c, y_c, z_c)
    face = np.select(
        [z_c == m, y_c == m, -z_c == m, x_c == m, -y_c == m],
        [Face.TOP, Face.FRONT, Face.BOTTOM, Face.RIGHT, Face.REAR],
        default=Face.LEFT,
    ).astype(np.int8)
    w = float(layout.face_width)
    t = _TO_UNFOLD
    x_u = t["ux"][face] * x_c + t["uy"][face] * y_c + t["uz"][face] * z_c + t["uc"][face] * w
    y_u = t["vx"][face] * x_c + t["vy"][face] * y_c + t["vz"][face] * z_c + t["vc"][face] * w
    return face, x_u, y_u


def _cube_to_unfold(x_c, y_c, z_c, layout: CubeLayout):
    """Inverse of :func:`unfold_to_cube` for on-surface cube points.

    Returns ``(face, x_u, y_u)``.  Raises ``ValueError`` if the dominant
    coordinate is not ``+-face_width/2`` within ``1e-9 * face_width``.
    """
    if np.any(np.abs(_max_abs(x_c, y_c, z_c) - layout.radius) > 1e-9 * layout.face_width):
        raise ValueError("not on surface")
    return _to_unfold(x_c, y_c, z_c, layout)


def _rescale(x, y, z, length, layout: CubeLayout):
    """Scale each point by ``radius / length``; a zero length is degenerate."""
    if np.any(length == 0.0):
        raise ValueError("degenerate direction")
    scale = layout.radius / length
    return x * scale, y * scale, z * scale


def _cube_to_sphere(x_c, y_c, z_c, layout: CubeLayout):
    """Radial projection of a cube point onto the sphere of radius w/2."""
    return _rescale(x_c, y_c, z_c, np.sqrt(x_c * x_c + y_c * y_c + z_c * z_c), layout)


def _sphere_to_cube(x_s, y_s, z_s, layout: CubeLayout):
    """Radial projection of any nonzero point onto the cube surface.

    The input need not lie on the sphere; only its direction matters.
    """
    return _rescale(x_s, y_s, z_s, _max_abs(x_s, y_s, z_s), layout)


def _unfold_to_sphere(x_u, y_u, layout: CubeLayout):
    """Unfold -> cube -> sphere composition."""
    return _cube_to_sphere(*_unfold_to_cube(x_u, y_u, layout), layout)


def _sphere_to_unfold(x_s, y_s, z_s, layout: CubeLayout):
    """Sphere (or any nonzero direction) -> cube -> unfold composition.

    Total on nonzero inputs: every ray from the origin hits exactly one
    face, with edge/corner ties broken in Face priority order.
    Returns ``(face, x_u, y_u)``.
    """
    return _to_unfold(*_sphere_to_cube(x_s, y_s, z_s, layout), layout)


unfold_to_cube = _elementwise(_unfold_to_cube)
cube_to_unfold = _elementwise(_cube_to_unfold)
cube_to_sphere = _elementwise(_cube_to_sphere)
sphere_to_cube = _elementwise(_sphere_to_cube)
unfold_to_sphere = _elementwise(_unfold_to_sphere)
sphere_to_unfold = _elementwise(_sphere_to_unfold)
