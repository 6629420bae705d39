"""Unit and property tests for the unfold/cube/sphere transforms."""

import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubemc.geometry as geometry
from cubemc.geometry import (
    NO_FACE,
    CubeLayout,
    Face,
    cube_to_sphere,
    cube_to_unfold,
    face_of,
    sphere_to_cube,
    sphere_to_unfold,
    unfold_to_cube,
    unfold_to_sphere,
)
from cubemc.motion_model import Block, block_face

L64 = CubeLayout(64, 64)


def oracle_unfold_to_cube(x_u, y_u, w):
    """Scalar reference: the per-face maps written out case by case."""
    h = w
    if 0 <= x_u < w and 0 <= y_u < h:
        return (x_u - w / 2, y_u - h / 2, h / 2)                      # TOP
    if 0 <= x_u < w and h <= y_u < 2 * h:
        return (x_u - w / 2, h / 2, 3 * h / 2 - y_u)                  # FRONT
    if 0 <= x_u < w and 2 * h <= y_u < 3 * h:
        return (x_u - w / 2, 5 * h / 2 - y_u, -h / 2)                 # BOTTOM
    if w <= x_u < 2 * w and h <= y_u < 2 * h:
        return (h / 2, 3 * w / 2 - x_u, 3 * h / 2 - y_u)              # RIGHT
    if 2 * w <= x_u < 3 * w and h <= y_u < 2 * h:
        return (5 * w / 2 - x_u, -h / 2, 3 * h / 2 - y_u)             # REAR
    if 3 * w <= x_u < 4 * w and h <= y_u < 2 * h:
        return (-h / 2, x_u - 7 * w / 2, 3 * h / 2 - y_u)             # LEFT
    raise AssertionError("oracle input off-face")


def sample_on_face_points(n, layout, rng, margin=1e-6):
    """Uniform points on faces, at least `margin` px from rect borders."""
    w = layout.face_width
    faces = rng.integers(0, 6, size=n)
    xs = np.empty(n)
    ys = np.empty(n)
    for f in Face:
        m = faces == f
        x0, y0, x1, y1 = layout.face_rect(f)
        xs[m] = rng.uniform(x0 + margin, x1 - margin, size=m.sum())
        ys[m] = rng.uniform(y0 + margin, y1 - margin, size=m.sum())
    return faces.astype(np.int8), xs, ys


class TestFaceOf:
    def test_front_center(self):
        assert face_of(32, 96, L64) is Face.FRONT

    def test_corner_hole_is_none(self):
        assert face_of(200, 10, L64) is None

    def test_half_open_boundary(self):
        assert face_of(63.999, 63.999, L64) is Face.TOP
        assert face_of(64.0, 64.0, L64) is Face.RIGHT

    def test_out_of_canvas(self):
        assert face_of(-0.001, 96, L64) is None
        assert face_of(500, 96, L64) is None

    def test_array_input(self):
        f = face_of(np.array([32.0, 200.0]), np.array([96.0, 10.0]), L64)
        assert f.tolist() == [Face.FRONT, -1]

    @staticmethod
    def assert_scalar_matches_arrays(xs, ys, layout):
        want = face_of(np.asarray(xs), np.asarray(ys), layout)
        for x, y, f in zip(xs, ys, want.tolist()):
            assert face_of(x, y, layout) == (None if f == NO_FACE else Face(f)), (x, y)

    @pytest.mark.parametrize("w", [8, 64, 72, 192])
    def test_scalar_agrees_with_array_core_on_seams(self, w):
        # exact seams k*w and the largest double below each
        seams = [float(k * w) for k in range(-1, 6)]
        seams += [math.nextafter(v, -math.inf) for v in seams]
        xs, ys = zip(*[(x, y) for x in seams for y in seams])
        self.assert_scalar_matches_arrays(xs, ys, CubeLayout(w, w))

    @pytest.mark.parametrize("w", [8, 64, 72, 192])
    @given(data=st.data())
    def test_scalar_agrees_with_array_core(self, w, data):
        coords = st.lists(st.floats(-w, 5.0 * w), min_size=8, max_size=8)
        xs, ys = data.draw(coords), data.draw(coords)
        self.assert_scalar_matches_arrays(xs, ys, CubeLayout(w, w))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_non_finite_is_none(self, bad):
        assert face_of(bad, 96.0, L64) is None
        assert face_of(32.0, bad, L64) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.filterwarnings("error")
    def test_array_non_finite_is_no_face(self, bad):
        # no cast warning, and the finite neighbours keep their faces
        xs = np.array([bad, 5.0, 32.0, bad])
        ys = np.array([5.0, bad, 96.0, bad])
        f = face_of(xs, ys, L64)
        assert f.dtype == np.int8
        assert f.tolist() == [NO_FACE, NO_FACE, Face.FRONT, NO_FACE]
        assert face_of(np.array([bad]), 96.0, L64).tolist() == [NO_FACE]

    def test_scalar_types(self):
        # Python and numpy scalars take the scalar path and agree
        for x, y in [(32, 96), (32.0, 96.0), (np.float64(32), np.int64(96)),
                     (np.int32(32), np.float32(96)), (True, 96)]:
            assert face_of(x, y, L64) is Face.FRONT, (x, y)

    def test_rects_cover_exactly_six_cells(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 256, 5000)
        y = rng.uniform(0, 192, 5000)
        f = face_of(x, y, L64)
        on = f >= 0
        # every on-face point is inside its face rect
        for fid in Face:
            m = f == fid
            x0, y0, x1, y1 = L64.face_rect(fid)
            assert np.all((x[m] >= x0) & (x[m] < x1))
            assert np.all((y[m] >= y0) & (y[m] < y1))
        # holes are the two 3x1 corner strips
        hole = ~on
        assert np.all((x[hole] >= 64) | (y[hole] < 64) | (y[hole] >= 128))


class TestUnfoldToCube:
    def test_front_center(self):
        assert unfold_to_cube(32, 96, L64) == (0, 32, 0)

    def test_right_face_point(self):
        assert unfold_to_cube(96, 96, L64) == (32, 0, 0)

    def test_front_off_center(self):
        assert unfold_to_cube(48, 80, L64) == (16, 32, 16)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        _, xs, ys = sample_on_face_points(500, L64, rng)
        xc, yc, zc = unfold_to_cube(xs, ys, L64)
        for i in range(len(xs)):
            exp = oracle_unfold_to_cube(xs[i], ys[i], 64)
            assert (xc[i], yc[i], zc[i]) == pytest.approx(exp, abs=1e-12)

    def test_off_face_raises(self):
        with pytest.raises(ValueError, match="not on a face"):
            unfold_to_cube(200, 10, L64)

    def test_dominant_coordinate_is_half_width(self):
        rng = np.random.default_rng(13)
        _, xs, ys = sample_on_face_points(2000, L64, rng)
        xc, yc, zc = unfold_to_cube(xs, ys, L64)
        m = np.maximum(np.maximum(np.abs(xc), np.abs(yc)), np.abs(zc))
        assert np.all(m == 32.0)


class TestCubeToUnfold:
    def test_front_center_inverse(self):
        assert cube_to_unfold(0, 32, 0, L64) == (Face.FRONT, 32, 96)

    def test_rear_row_inverse(self):
        assert cube_to_unfold(0, -32, 0, L64) == (Face.REAR, 160, 96)

    def test_front_off_center_inverse(self):
        assert cube_to_unfold(16, 32, 16, L64) == (Face.FRONT, 48, 80)

    def test_interior_point_raises(self):
        with pytest.raises(ValueError, match="not on surface"):
            cube_to_unfold(1, 2, 3, L64)

    def test_edge_tie_prefers_priority_order(self):
        # +y/+z edge: TOP wins over FRONT
        f, _, _ = cube_to_unfold(0, 32, 32, L64)
        assert f is Face.TOP
        # +x/+y edge: FRONT wins over RIGHT
        f, _, _ = cube_to_unfold(32, 32, 0, L64)
        assert f is Face.FRONT


class TestSphereHops:
    def test_face_center_ray_fixed(self):
        assert cube_to_sphere(0, 32, 0, L64) == (0, 32, 0)

    def test_generic_point(self):
        s = cube_to_sphere(16, 32, 16, L64)
        r = 32 / math.sqrt(16**2 + 32**2 + 16**2)
        assert s == pytest.approx((16 * r, 32 * r, 16 * r), abs=1e-12)
        assert s == pytest.approx((13.0639, 26.1279, 13.0639), abs=1e-3)

    def test_negative_axis_keeps_sign(self):
        assert cube_to_sphere(-32, 0, 0, L64) == (-32, 0, 0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            cube_to_sphere(0, 0, 0, L64)
        with pytest.raises(ValueError, match="degenerate"):
            sphere_to_cube(0, 0, 0, L64)

    def test_sphere_to_cube_roundtrip(self):
        c = sphere_to_cube(13.0639, 26.1279, 13.0639, L64)
        assert c == pytest.approx((16, 32, 16), abs=1e-3)

    def test_sphere_to_cube_off_sphere_input(self):
        c = sphere_to_cube(5.8651, 15.3988, 0, L64)
        assert c == pytest.approx((12.188, 32, 0), abs=1e-3)


class TestComposites:
    def test_unfold_to_sphere_center(self):
        assert unfold_to_sphere(32, 96, L64) == (0, 32, 0)

    def test_sphere_to_unfold_center(self):
        assert sphere_to_unfold(0, 32, 0, L64) == (Face.FRONT, 32, 96)

    def test_unfold_to_sphere_generic(self):
        s = unfold_to_sphere(48, 80, L64)
        assert s == pytest.approx((13.0639, 26.1279, 13.0639), abs=1e-3)

    def test_face_centers_map_to_axes(self):
        expected = {
            Face.TOP: (0, 0, 32),
            Face.FRONT: (0, 32, 0),
            Face.BOTTOM: (0, 0, -32),
            Face.RIGHT: (32, 0, 0),
            Face.REAR: (0, -32, 0),
            Face.LEFT: (-32, 0, 0),
        }
        for f, axis in expected.items():
            cx, cy = L64.face_center(f)
            assert unfold_to_sphere(cx, cy, L64) == pytest.approx(axis, abs=1e-12)


class TestRoundTripProperties:
    def test_round_trip_100k(self):
        rng = np.random.default_rng(101)
        faces, xs, ys = sample_on_face_points(100_000, L64, rng)
        f2, x2, y2 = sphere_to_unfold(*unfold_to_sphere(xs, ys, L64), L64)
        err = np.maximum(np.abs(x2 - xs), np.abs(y2 - ys))
        assert err.max() < 1e-9 * 64
        assert np.array_equal(f2, faces)

    def test_sphere_norm(self):
        rng = np.random.default_rng(103)
        _, xs, ys = sample_on_face_points(10_000, L64, rng)
        sx, sy, sz = unfold_to_sphere(xs, ys, L64)
        r = np.sqrt(sx * sx + sy * sy + sz * sz)
        assert np.abs(r - 32.0).max() < 1e-9 * 64

    def test_collinearity_cube_sphere(self):
        rng = np.random.default_rng(107)
        _, xs, ys = sample_on_face_points(10_000, L64, rng)
        c = np.stack(unfold_to_cube(xs, ys, L64))
        s = np.stack(cube_to_sphere(*c, L64))
        cross = np.cross(c.T, s.T)
        sin_angle = np.linalg.norm(cross, axis=1) / (
            np.linalg.norm(c.T, axis=1) * np.linalg.norm(s.T, axis=1)
        )
        assert sin_angle.max() < 1e-12

    def test_other_layout_sizes(self):
        for w in (8, 32, 128):
            layout = CubeLayout(w, w)
            rng = np.random.default_rng(w)
            faces, xs, ys = sample_on_face_points(5_000, layout, rng)
            f2, x2, y2 = sphere_to_unfold(*unfold_to_sphere(xs, ys, layout), layout)
            err = np.maximum(np.abs(x2 - xs), np.abs(y2 - ys))
            assert err.max() < 1e-9 * w
            assert np.array_equal(f2, faces)


class TestLayoutValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CubeLayout(64, 32)

    def test_rejects_tiny_faces(self):
        with pytest.raises(ValueError, match=">= 8"):
            CubeLayout(4, 4)

    def test_rect_disjointness(self):
        rects = [L64.face_rect(f) for f in Face]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                disjoint = a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]
                assert disjoint
        for x0, y0, x1, y1 in rects:
            assert 0 <= x0 < x1 <= 256 and 0 <= y0 < y1 <= 192


# Every public transform, its parameter names and the space its points live in.
TRANSFORMS = [
    (face_of, ("x_u", "y_u"), "unfold"),
    (unfold_to_cube, ("x_u", "y_u"), "unfold"),
    (unfold_to_sphere, ("x_u", "y_u"), "unfold"),
    (cube_to_unfold, ("x_c", "y_c", "z_c"), "cube"),
    (cube_to_sphere, ("x_c", "y_c", "z_c"), "cube"),
    (sphere_to_cube, ("x_s", "y_s", "z_s"), "sphere"),
    (sphere_to_unfold, ("x_s", "y_s", "z_s"), "sphere"),
]
TRANSFORM_IDS = [fn.__name__ for fn, _, _ in TRANSFORMS]

# Face priority order for dominant-axis ties: (face, axis, sign).
PRIORITY = [
    (Face.TOP, 2, 1), (Face.FRONT, 1, 1), (Face.BOTTOM, 2, -1),
    (Face.RIGHT, 0, 1), (Face.REAR, 1, -1), (Face.LEFT, 0, -1),
]


@st.composite
def on_face_point(draw, w):
    """A point of a face: its edges and corners (the first coordinate
    and the double just below the next face's), or anywhere inside."""
    x0, y0, x1, y1 = CubeLayout(w, w).face_rect(draw(st.sampled_from(list(Face))))

    def coord(lo, hi):
        edges = st.sampled_from([float(lo), math.nextafter(hi, -math.inf)])
        return draw(st.one_of(edges, st.floats(lo, hi, exclude_max=True)))

    return coord(x0, x1), coord(y0, y1)


def _python(v):
    v = v.item()
    if isinstance(v, int):
        return None if v == NO_FACE else Face(v)
    return v


class TestScalarAdapter:
    @pytest.mark.parametrize("w", [8, 64, 72])
    @pytest.mark.parametrize("fn,params,space", TRANSFORMS, ids=TRANSFORM_IDS)
    @given(data=st.data())
    def test_scalar_is_array_element(self, w, fn, params, space, data):
        layout = CubeLayout(w, w)
        xs, ys = map(np.array, zip(*data.draw(st.lists(on_face_point(w), min_size=1, max_size=8))))
        coords = {
            "unfold": (xs, ys),
            "cube": unfold_to_cube(xs, ys, layout),
            "sphere": unfold_to_sphere(xs, ys, layout),
        }[space]
        out = fn(*coords, layout)
        out = out if isinstance(out, tuple) else (out,)
        for i in range(len(xs)):
            want = tuple(_python(o[i]) for o in out)
            # Python floats and 0-d arrays are both scalars
            for point in ([float(c[i]) for c in coords], [np.asarray(c[i]) for c in coords]):
                got = fn(*point, layout)
                got = got if isinstance(got, tuple) else (got,)
                assert got == want, (fn.__name__, point)
                assert [type(v) for v in got] == [type(v) for v in want]
                assert all(type(v) in (float, Face, type(None)) for v in got)

    def test_scalar_broadcasts_against_array(self):
        xs = np.array([16.0, 48.0])
        assert face_of(xs, 96.0, L64).tolist() == [Face.FRONT, Face.FRONT]
        x_c, y_c, z_c = unfold_to_cube(xs, 96.0, L64)
        assert (x_c.tolist(), y_c.tolist(), z_c.tolist()) == ([-16, 16], [32, 32], [0, 0])

    @pytest.mark.parametrize("fn,params,space", TRANSFORMS, ids=TRANSFORM_IDS)
    def test_signature_and_keyword_call(self, fn, params, space):
        assert tuple(inspect.signature(fn).parameters) == (*params, "layout")
        assert fn.__name__ == fn.__qualname__
        assert getattr(geometry, fn.__name__) is fn
        coords = {"unfold": (32.0, 96.0), "cube": (16.0, 32.0, 16.0), "sphere": (3.0, 9.0, 1.0)}[space]
        assert fn(**dict(zip(params, coords)), layout=L64) == fn(*coords, L64)

    @given(
        r=st.floats(0.01, 1e3),
        tied=st.sampled_from([(0, 1), (1, 2), (0, 2), (0, 1, 2)]),
        signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
        rest=st.floats(-1.0, 1.0),
    )
    def test_sphere_to_unfold_edge_and_corner_priority(self, r, tied, signs, rest):
        v = [rest * r] * 3
        for axis in tied:
            v[axis] = r
        v = [s * c for s, c in zip(signs, v)]
        m = max(abs(c) for c in v)
        want = next(f for f, axis, sign in PRIORITY if sign * v[axis] == m)
        assert sphere_to_unfold(*v, L64)[0] is want
        face, _, _ = sphere_to_unfold(*(np.array([c, c]) for c in v), L64)
        assert face.tolist() == [want, want]


class TestBlockFace:
    @pytest.mark.parametrize("bs", [8, 16])
    def test_matches_per_pixel_faces_at_every_position(self, bs):
        ys, xs = np.mgrid[0 : L64.canvas_height, 0 : L64.canvas_width]
        pixels = face_of(xs, ys, L64)
        windows = np.lib.stride_tricks.sliding_window_view(pixels, (bs, bs))
        lo, hi = windows.min(axis=(2, 3)), windows.max(axis=(2, 3))
        for y0, x0 in np.ndindex(lo.shape):
            block = Block(x0, y0, bs, bs)
            if lo[y0, x0] == hi[y0, x0] != NO_FACE:
                assert block_face(block, L64) is Face(int(lo[y0, x0]))
            else:
                with pytest.raises(ValueError, match="single face"):
                    block_face(block, L64)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _quarter_pel_face_points(layout):
    """Every quarter-pel point of the six face rectangles, face by face."""
    xs, ys = [], []
    for f in Face:
        x0, y0, x1, y1 = layout.face_rect(f)
        y, x = np.mgrid[4 * y0 : 4 * y1, 4 * x0 : 4 * x1] / 4.0
        xs.append(x.ravel())
        ys.append(y.ravel())
    return np.concatenate(xs), np.concatenate(ys)


def _directions_with_ties(seed=11, n=4096):
    """Seeded random directions, then exact ties of two or three axes in
    every sign combination, scaled so the tied magnitude dominates."""
    rng = np.random.default_rng(seed)
    dirs = [rng.normal(size=(n, 3)) * rng.uniform(0.1, 300.0, size=(n, 1))]
    for tied in [(0, 1), (1, 2), (0, 2), (0, 1, 2)]:
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            v = np.repeat(rng.uniform(-1.0, 1.0, size=(64, 1)), 3, axis=1)
            v[:, list(tied)] = 1.0
            dirs.append(v * rng.uniform(0.1, 300.0, size=(64, 1)) * signs)
    return np.concatenate(dirs).T


def _seam_grid(w):
    """Every cell boundary k*w of the canvas, the double just below it,
    and a half-pel lattice running past the canvas on every side."""
    seams = [float(k * w) for k in range(-1, 6)]
    coords = seams + [math.nextafter(v, -math.inf) for v in seams]
    coords += list(np.arange(-w, 5 * w, 0.5))
    return np.meshgrid(np.array(coords), np.array(coords))


# SHA-256 of the transforms' float64/int8 outputs: a changed coefficient,
# cell, seam rule or tie-break shows here, even where round trips still hold.
GEOMETRY_GOLDEN = {
    "unfold_to_sphere": {
        64: "50f6d248b19448604522d8b6f3e1bc42b49da4fee1ffee5ec4c36e5b36b51f3c",
        72: "db6fa9bd3fa2179df9fb96310b2d3a99cfb3b2b2720b273c6547d017ae40294d",
    },
    "sphere_to_unfold": {
        64: "24f91982d9f7a37bab4a08c0467ae2a97cfcd602d97b01b6b494a931ec076e98",
        72: "b94e8ccecd08e030ae0b70754585efa560430708dc571af74af113a56eabba15",
    },
    "face_of": {
        64: "9e4976a495e4a5e2d80a6e83b4f51b0200294ac2e125475aa16b14b7137e06aa",
        72: "9cdedced5a6f766c7a7ef15a152e2d917c9cd81a333b9f4f7e2f2d8331cf3edb",
    },
}


class TestGeometryGolden:
    @pytest.mark.parametrize("w", [64, 72])
    def test_unfold_to_sphere_on_every_quarter_pel(self, w):
        layout = CubeLayout(w, w)
        out = unfold_to_sphere(*_quarter_pel_face_points(layout), layout)
        assert _sha256(*out) == GEOMETRY_GOLDEN["unfold_to_sphere"][w]

    @pytest.mark.parametrize("w", [64, 72])
    def test_sphere_to_unfold_with_ties(self, w):
        layout = CubeLayout(w, w)
        out = sphere_to_unfold(*_directions_with_ties(), layout)
        assert _sha256(*out) == GEOMETRY_GOLDEN["sphere_to_unfold"][w]

    @pytest.mark.parametrize("w", [64, 72])
    def test_face_of_on_seam_grid(self, w):
        layout = CubeLayout(w, w)
        assert _sha256(face_of(*_seam_grid(w), layout)) == GEOMETRY_GOLDEN["face_of"][w]
