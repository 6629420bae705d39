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

    @pytest.mark.parametrize("w,h,name", [
        (32.0, 32.0, "face_width"),
        (32, 32.0, "face_height"),
        (np.float64(32), 32, "face_width"),
        (True, True, "face_width"),
    ])
    def test_rejects_non_integer_sizes(self, w, h, name):
        # a float size would build, then fail in range() or an array shape
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            CubeLayout(w, h)

    def test_numpy_integer_sizes_accepted(self):
        assert CubeLayout(np.int64(32), np.int32(32)).canvas_width == 128

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


def _lattice(lo, hi):
    """Edges, a nine-point interior lattice and a third-pel point of
    [lo, hi): the edge values lo and the double below hi, -0.0 when lo
    is 0, and the center exactly."""
    pts = [lo, math.nextafter(hi, -math.inf), lo + (hi - lo) / 3]
    pts += list(np.linspace(lo, hi, 10)[1:-1]) + [(lo + hi) / 2]
    return [-0.0] + pts if lo == 0 else pts


def _single_face_unfold_sets(layout):
    """Per face, its interior lattice and its edge and corner points on
    the canvas, each a separate single-face point set."""
    for f in Face:
        x0, y0, x1, y1 = layout.face_rect(f)
        xs, ys = _lattice(x0, x1), _lattice(y0, y1)
        edge_x, edge_y = xs[: 3 if x0 == 0 else 2], ys[: 3 if y0 == 0 else 2]
        inner = np.meshgrid(np.array(xs[len(edge_x):]), np.array(ys[len(edge_y):]))
        edges = [(x, y) for x in xs for y in ys if x in edge_x or y in edge_y]
        yield inner
        yield np.array(edges).T


def _single_face_cube_sets(r):
    """Per face, on-surface cube points: an interior lattice with +-0
    in-plane coordinates, then its edges (exact two-axis ties) and
    corners (exact three-axis ties)."""
    inner = [-0.0, 0.0, r / 3, -r / 3] + list(np.linspace(-r, r, 10)[1:-1])
    rim = [-r, r]
    for _, axis, sign in PRIORITY:
        for s_vals, t_vals in ((inner, inner), (rim, inner + rim), (inner, rim)):
            s, t = (v.ravel() for v in np.meshgrid(np.array(s_vals), np.array(t_vals)))
            pts = [s, t]
            pts.insert(axis, np.full(s.shape, sign * r))
            yield np.array(pts)


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


# SHA-256 of the transforms on single-face point sets (see
# test_single_face_point_sets), recorded before the face-uniform branch.
SINGLE_FACE_GOLDEN = {
    64: {
        "unfold_to_cube": "37e525696d164278139d7ae82ff47522aff56719ede2ec4c868439edf9ae8428",
        "unfold_to_sphere": "01c324160914272b844243fd17e7155af88fa88c69567d21b16694be77a54f1a",
        "cube_to_unfold": "ef3b4b287a7537f99d1d20a84015097b0423d9981ddaf7e44f9b8bf71fdd9c61",
        "sphere_to_unfold": "2d216c597d707e6f229eeeff93d630164d552ce9ce0272046b53fcd024bfb469",
    },
    72: {
        "unfold_to_cube": "9ede48eff8162675bd8e66588dc2e84fd7037ad05f0966be485d5089e4123ef6",
        "unfold_to_sphere": "94c40db8cc37637bf0ff74779d03cae2daef03d1f82b80a998fd304777d26b93",
        "cube_to_unfold": "f20844055c0b79fa1ee4fe78df544300b01b370d1dceee6fd80bb73b66caf17d",
        "sphere_to_unfold": "880947b879bdf26005881ca7328d16689276e23513d733b91265085b5e582a09",
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

    @pytest.mark.parametrize("w", [64, 72])
    def test_single_face_point_sets(self, w):
        # each face's points as their own calls, whether or not every
        # point lies strictly on the face, and all of them in one call
        layout = CubeLayout(w, w)
        r = layout.radius
        unfold = list(_single_face_unfold_sets(layout))
        cube = list(_single_face_cube_sets(r))
        calls = {
            "unfold_to_cube": [unfold_to_cube(x, y, layout) for x, y in unfold],
            "unfold_to_sphere": [unfold_to_sphere(x, y, layout) for x, y in unfold],
            "cube_to_unfold": [cube_to_unfold(*c, layout) for c in cube],
            # the same directions off the cube and on the sphere
            "sphere_to_unfold": [sphere_to_unfold(*(c * 1.75), layout) for c in cube]
            + [sphere_to_unfold(*(c * (r / np.sqrt((c * c).sum(axis=0)))), layout) for c in cube],
        }
        calls["unfold_to_cube"].append(
            unfold_to_cube(*np.concatenate([np.reshape(u, (2, -1)) for u in unfold], axis=1), layout)
        )
        calls["cube_to_unfold"].append(cube_to_unfold(*np.concatenate(cube, axis=1), layout))
        got = {name: _sha256(*(a for out in outs for a in out)) for name, outs in calls.items()}
        assert got == SINGLE_FACE_GOLDEN[w]

    @given(
        w=st.sampled_from([8, 64, 72]),
        points=st.lists(
            st.tuples(*[st.one_of(
                st.sampled_from([1.0, -1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]),
                st.floats(-1.0, 1.0),
            )] * 3),
            min_size=1, max_size=40,
        ),
    )
    def test_mixed_face_branch_matches_gather_formula(self, w, points):
        # ±1 stands for ±r, so ties of two or three axes are common; every
        # set also holds the edge tie (r, r, 0)
        r = w / 2.0
        x, y, z = (np.array([*c, 1.0]) * r for c in zip(*points, (1.0, 1.0, 0.0)))
        assert_to_unfold_matches_gather_formula(x, y, z, w)

    @pytest.mark.parametrize("w", [8, 64])
    @pytest.mark.parametrize("points", [
        [(0, 0, math.inf)],
        [(0.25, -0.5, 1), (0, 0, math.inf)],
        [(0, 0, math.inf), (0.25, -0.5, 1)],
        [(0.5, 0.5, -1), (-0.25, 0, -math.inf)],
        [(0.25, -0.5, 1), (0, 0, math.nan)],
        [(0.25, -0.5, 1), (math.nan, 0, 1)],
        [(0.25, -0.5, 1), (math.inf, 0, 1)],
    ], ids=["inf", "inf-later", "inf-first", "bottom-minus-inf", "nan-dominant", "nan-in-face",
            "inf-in-face"])
    def test_face_uniform_set_with_a_non_finite_point(self, w, points):
        # every finite point lies strictly on one face (coordinates in
        # units of r); the non-finite one must give NaN, as the gather does,
        # not that face's coordinates
        r = w / 2.0
        x, y, z = (np.array(c, dtype=np.float64) * r for c in zip(*points))
        assert_to_unfold_matches_gather_formula(x, y, z, w)


def assert_to_unfold_matches_gather_formula(x, y, z, w):
    """``geometry._to_unfold`` against the per-point gather of every face
    coefficient: the same faces and bits, and NaN wherever a coordinate
    is not finite."""
    layout = CubeLayout(w, w)
    face, x_u, y_u = geometry._to_unfold(x, y, z, layout)
    m = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.abs(z))
    k = np.select([z == m, y == m, -z == m, x == m, -y == m], [0, 1, 2, 3, 4], default=5)
    with np.errstate(invalid="ignore"):  # 0 * inf in the zero terms
        want = [geometry._EU[0][k] * x + geometry._EU[1][k] * y + geometry._EU[2][k] * z
                + geometry._CU[k] * w,
                geometry._EV[0][k] * x + geometry._EV[1][k] * y + geometry._EV[2][k] * z
                + geometry._CV[k] * w]
    assert face.dtype == np.int8 and face.tolist() == k.tolist()
    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(z)
    for got, ref in zip((x_u, y_u), want):
        # the same bits, signed zeros included, and NaN wherever any
        # coordinate is non-finite
        assert np.array_equal(got[finite].view(np.int64), ref[finite].view(np.int64))
        assert np.isnan(got[~finite]).all() and np.isnan(ref[~finite]).all()


def _composite(x, y, z, layout):
    """Sphere -> unfold through the cube composite alone, for every point."""
    return geometry._to_unfold(*geometry._sphere_to_cube(x, y, z, layout), layout)


def assert_split_matches_composite(x, y, z, w):
    """``_sphere_to_unfold`` gives every point the composite's face and
    bits (NaN payloads and signed zeros included), or raises where it does."""
    layout = CubeLayout(w, w)
    x, y, z = (np.asarray(c, dtype=np.float64) for c in (x, y, z))
    with np.errstate(all="ignore"):  # the composite computes 0 * inf for infinite points
        try:
            want = _composite(x, y, z, layout)
        except ValueError:  # a zero direction
            with pytest.raises(ValueError, match="degenerate"):
                geometry._sphere_to_unfold(x, y, z, layout)
            return
        got = geometry._sphere_to_unfold(x, y, z, layout)
    for g, v in zip(got, want):
        g, v = np.asarray(g), np.asarray(v)
        assert (g.dtype, g.shape) == (v.dtype, v.shape)
        bits = np.int8 if g.dtype == np.int8 else np.int64
        assert np.array_equal(g.view(bits), v.view(bits))


# coordinates in units of r: +-1 and +-0.5 make edge and corner ties common
_SPECIAL = st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0, math.nan, math.inf, -math.inf])
_COORD = st.one_of(_SPECIAL, st.floats(-1.0, 1.0))


def _field(center, du, dv, n, h, w):
    """An (n, h, w) grid of directions around ``center``: steps ``du``
    along w and ``dv`` along h, each slice shifted by one more ``du``."""
    i = np.arange(n)[:, None, None] + np.arange(w)[None, None, :]
    j = np.arange(h)[None, :, None]
    return [c + a * i + b * j for c, a, b in zip(center, du, dv)]


class TestSplitSphereToUnfold:
    """Sphere -> unfold maps each point through the strict cone of one of
    up to three faces, and the composite maps the rest: every point gets
    the composite's bits."""

    @given(
        w=st.sampled_from([8, 64, 72]),
        shape=st.sampled_from([(), (1,), (7,), (2, 3, 4), (1, 1, 5)]),
        data=st.data(),
    )
    def test_points_with_ties_and_non_finite_values(self, w, shape, data):
        n = math.prod(shape)
        pts = data.draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=n, max_size=n))
        x, y, z = (np.array(c, dtype=np.float64).reshape(shape) * (w / 2.0) for c in zip(*pts))
        assert_split_matches_composite(x, y, z, w)

    @given(
        w=st.sampled_from([64, 192]),
        center=st.tuples(*[st.one_of(_SPECIAL.filter(math.isfinite), st.floats(-1.2, 1.2))] * 3),
        du=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
        dv=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
        shape=st.sampled_from([(1, 8, 8), (2, 4, 16), (3, 5, 5), (64,)]),
    )
    def test_fields_across_seams(self, w, center, du, dv, shape):
        n, h, cols = (1, 1, *shape)[-3:]
        r = w / 2.0
        x, y, z = (c.reshape(shape) * r for c in _field(center, du, dv, n, h, cols))
        assert_split_matches_composite(x, y, z, w)

    @given(
        center=st.sampled_from([(0.1, 1.0, -0.2), (0.9713, 1.0, 0.1), (1.0537, 1.0, 0.9431)]),
        special=st.lists(st.tuples(st.integers(0, 2 * 8 * 8 - 1),
                                   st.tuples(_SPECIAL, _SPECIAL, _SPECIAL)),
                         min_size=1, max_size=6),
    )
    def test_fields_with_special_points(self, center, special):
        # a field on one to three faces, some of whose points are ties,
        # NaN, +-inf or zero: the passes keep the field's points, the
        # composite takes the special ones
        x, y, z = _field(center, (-0.0103, 0.0131, 0.0017), (0.0029, -0.0091, 0.0113), 2, 8, 8)
        for i, point in special:
            for c, v in zip((x, y, z), point):
                c.flat[i] = v
        assert_split_matches_composite(x * 32.0, y * 32.0, z * 32.0, 64)

    @pytest.mark.parametrize("center,faces", [
        ((0.1, 1.0, -0.2), {Face.FRONT}),
        ((0.9713, 1.0, 0.1), {Face.FRONT, Face.RIGHT}),
        ((1.0537, 1.0, 0.9431), {Face.TOP, Face.FRONT, Face.RIGHT}),
        ((-0.9537, -1.0, -1.0431), {Face.BOTTOM, Face.REAR, Face.LEFT}),
    ])
    def test_one_to_three_faces(self, monkeypatch, center, faces):
        # a 2 x 16 x 16 field of small steps, with no exact tie, around a
        # face center, an edge or a corner: one pass per face, and the
        # composite sees no point
        x, y, z = (c * 32.0 for c in _field(center, (-0.0103, 0.0131, 0.0017),
                                             (0.0029, -0.0091, 0.0113), 2, 16, 16))
        composite = []
        inner = geometry._sphere_to_cube
        monkeypatch.setattr(geometry, "_sphere_to_cube",
                            lambda *a: composite.append(a[0].size) or inner(*a))
        face, _, _ = geometry._sphere_to_unfold(x, y, z, L64)
        assert set(face.ravel().tolist()) == faces
        assert composite == []
        monkeypatch.undo()
        assert_split_matches_composite(x, y, z, 64)

    def test_zero_direction_raises_after_held_points(self):
        x, y, z = np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            geometry._sphere_to_unfold(x, y, z, L64)
