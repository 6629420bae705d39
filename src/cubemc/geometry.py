"""Coordinate transforms between the unfolded 4x3 cube map, the cube, and the sphere.

Conventions
-----------
* The unfolded canvas is ``4*face_width`` wide and ``3*face_height`` tall.
  The top-left pixel has continuous coordinate ``(0, 0)``; integer
  coordinates are pixel centers.
* The cube map is stated twice, in two tables.  ``_CELLS`` places the
  faces on the 4x3 grid of face-sized cells::

      TOP
      FRONT  RIGHT  REAR  LEFT
      BOTTOM

  and the remaining six cells are unused corner holes.  ``_FRAME`` orients
  each face: its outward axis and the cube axes along which canvas x and
  y grow.  Every cell lookup and every coefficient of the unfold <-> cube
  maps derives from these two tables.
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


# The 4x3 canvas in face units: _CELLS[row][col] is the face drawn in
# that cell, or None for a corner hole.
_CELLS = (
    (Face.TOP, None, None, None),
    (Face.FRONT, Face.RIGHT, Face.REAR, Face.LEFT),
    (Face.BOTTOM, None, None, None),
)

# Face frames in Face order: the outward axis n, and the cube axes e_u and
# e_v along which canvas x and y grow on the face.  The face plane is
# n * w/2 + s * e_u + t * e_v for all real s, t, not only its cell.
_FRAME = (
    # n           e_u          e_v
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),     # TOP
    ((0, 1, 0), (1, 0, 0), (0, 0, -1)),    # FRONT
    ((0, 0, -1), (1, 0, 0), (0, -1, 0)),   # BOTTOM
    ((1, 0, 0), (0, -1, 0), (0, 0, -1)),   # RIGHT
    ((0, -1, 0), (-1, 0, 0), (0, 0, -1)),  # REAR
    ((-1, 0, 0), (0, 1, 0), (0, 0, -1)),   # LEFT
)

# (column, row) of each face's cell, and the cell lookup of the array path.
_FACE_CELL = {
    f: (col, row) for row, cells in enumerate(_CELLS) for col, f in enumerate(cells) if f is not None
}
_CELL_FACE = np.array(
    [[NO_FACE if f is None else f for f in cells] for cells in _CELLS], dtype=np.int8
)

# Per-face coefficient vectors, in Face order.  _N, _EU and _EV hold one
# row per cube axis; _CU and _CV are the face-center coordinates in face
# widths.  The unfold point (x_u, y_u) of a face sits on the cube at
# n * w/2 + e_u * (x_u - _CU * w) + e_v * (y_u - _CV * w), so each cube
# axis is one +-1 term of x_u or y_u plus the constant _C * w; the inverse
# is x_u = e_u . c + _CU * w and y_u = e_v . c + _CV * w.
_N, _EU, _EV = np.array(_FRAME, dtype=np.float64).transpose(1, 2, 0).copy()
_CU = np.array([_FACE_CELL[f][0] + 0.5 for f in Face])
_CV = np.array([_FACE_CELL[f][1] + 0.5 for f in Face])
_C = 0.5 * _N - _EU * _CU - _EV * _CV


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
    inside = (x_u >= 0) & (x_u < 4 * w) & (y_u >= 0) & (y_u < 3 * h)  # False for NaN
    # points off the canvas (NaN and +-inf too) look up cell (0, 0) and are
    # masked below; x < 4w rounds to x / w < 4, as in the scalar path
    col = np.floor(np.where(inside, x_u, 0.0) / w).astype(np.intp)
    row = np.floor(np.where(inside, y_u, 0.0) / h).astype(np.intp)
    return np.where(inside, _CELL_FACE[row, col], np.int8(NO_FACE))


_face_of_any = _elementwise(_face_of)


def face_of(x_u, y_u, layout: CubeLayout):
    """Face containing the unfold point, or none (``NO_FACE`` in arrays).

    Face rectangles are half-open.  Real scalars are resolved with plain
    float arithmetic and no numpy call, using the same float64 division
    as the array path.
    """
    # the Real ABC check is slow; try the concrete types first
    if (isinstance(x_u, (float, int)) or isinstance(x_u, Real)) and (
        isinstance(y_u, (float, int)) or isinstance(y_u, Real)
    ):
        x, y = float(x_u), float(y_u)
        w, h = layout.face_width, layout.face_height
        if not (0 <= x < 4 * w and 0 <= y < 3 * h):  # also rejects NaN
            return None
        return _CELLS[math.floor(y / h)][math.floor(x / w)]
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
    return tuple(cx[face] * x_u + cy[face] * y_u + c[face] * w for cx, cy, c in zip(_EU, _EV, _C))


def _max_abs(x, y, z):
    return np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z))


def _to_unfold(x_c, y_c, z_c, layout: CubeLayout):
    """Dominant face of on-surface cube points (ties broken in Face
    priority order) and their unfold coordinates."""
    m = _max_abs(x_c, y_c, z_c)
    # the conditions are _FRAME's outward axes n, in Face order
    face = np.select(
        [z_c == m, y_c == m, -z_c == m, x_c == m, -y_c == m],
        [Face.TOP, Face.FRONT, Face.BOTTOM, Face.RIGHT, Face.REAR],
        default=Face.LEFT,
    ).astype(np.int8)
    w = float(layout.face_width)
    x_u, y_u = (
        e[0][face] * x_c + e[1][face] * y_c + e[2][face] * z_c + c[face] * w
        for e, c in ((_EU, _CU), (_EV, _CV))
    )
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
