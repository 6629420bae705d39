"""Tests for the sphere-uniform correspondence model."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from cubemc.geometry import (
    CubeLayout,
    Face,
    cube_to_unfold,
    face_of,
    sphere_to_cube,
    sphere_to_unfold,
    unfold_to_sphere,
)
import cubemc.geometry as geometry
import cubemc.motion_model as motion_model
from cubemc.motion_model import (
    Block,
    CorrespondenceField,
    MotionVector,
    _transport_arrays,
    block_face,
    build_correspondence_field,
    build_correspondence_fields,
    center_lattice,
    round_half_away,
    translational_field,
    transport_mv_predictor,
    transport_point,
)

L64 = CubeLayout(64, 64)

# MVs that move the center (31.5, 95.5) of Block(24, 88, 16, 16) off the faces
OFF_FACE_MVS = (
    MotionVector(274, -262),  # to (100.0, 30.0), in the top middle corner hole
    MotionVector(898, 0),  # to (256.0, 95.5), past the right edge x = 4w
    MotionVector(0, -386),  # to (31.5, -1.0), above the canvas
)


class TestRounding:
    def test_half_away_from_zero(self):
        vals = [0.0, 0.5, -0.5, 1.49, -1.49, 2.5, -2.5, 3.0, -3.0]
        want = [0, 1, -1, 1, -1, 3, -3, 3, -3]
        assert round_half_away(np.array(vals)).tolist() == want

    def test_scalar_input(self):
        assert int(round_half_away(-7.5)) == -8


class TestBlock:
    def test_center_is_pixel_grid_middle(self):
        assert Block(24, 88, 16, 16).center == (31.5, 95.5)
        assert Block(0, 64, 8, 8).center == (3.5, 67.5)

    def test_block_face(self):
        from cubemc.geometry import Face

        assert block_face(Block(24, 88, 16, 16), L64) is Face.FRONT
        assert block_face(Block(120, 70, 8, 8), L64) is Face.RIGHT

    def test_straddling_block_rejected(self):
        with pytest.raises(ValueError, match="single face"):
            block_face(Block(56, 88, 16, 16), L64)

    def test_block_in_corner_hole_rejected(self):
        with pytest.raises(ValueError, match="single face"):
            block_face(Block(80, 8, 16, 16), L64)


class TestTransportPoint:
    def test_known_horizontal_hop(self):
        # a 4 px center move near the face edge stretches to ~4.19 px
        x3, y3 = transport_point((32.0, 96.0), (36.0, 96.0), (40.0, 96.0), L64)
        assert x3 == pytest.approx(44.19, abs=0.02)
        assert y3 == pytest.approx(96.0, abs=1e-9)

    def test_self_consistency_center_maps_to_target(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x0 = rng.uniform(8, 56)
            y0 = rng.uniform(72, 120)
            x1 = x0 + rng.uniform(-6, 6)
            y1 = y0 + rng.uniform(-6, 6)
            x3, y3 = transport_point((x0, y0), (x1, y1), (x0, y0), L64)
            assert abs(x3 - x1) < 1e-9 * 64
            assert abs(y3 - y1) < 1e-9 * 64

    def test_zero_displacement_is_identity(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(66, 126, size=50)
        ys = rng.uniform(66, 126, size=50)
        x3, y3 = transport_point((100.0, 100.0), (100.0, 100.0), (xs, ys), L64)
        npt.assert_allclose(x3, xs, atol=1e-9 * 64)
        npt.assert_allclose(y3, ys, atol=1e-9 * 64)

    def test_off_face_input_rejected(self):
        with pytest.raises(ValueError, match="not on a face"):
            transport_point((80.0, 8.0), (81.0, 8.0), (32.0, 96.0), L64)

    def test_degenerate_configuration_raises(self):
        # choose u1 so that the u0 -> u1 sphere chord has length equal to
        # the sphere radius, then aim u2 at the exact opposite of that
        # chord; the transported point collapses to the origin
        s0 = np.array(unfold_to_sphere(32.0, 96.0, L64))

        def chord_minus_radius(x1):
            s1 = np.array(unfold_to_sphere(x1, 96.0, L64))
            return float(np.linalg.norm(s1 - s0)) - L64.radius

        x1 = brentq(chord_minus_radius, 40.0, 110.0, xtol=1e-13)
        s1 = np.array(unfold_to_sphere(x1, 96.0, L64))
        _, x2, y2 = sphere_to_unfold(*(s0 - s1), L64)
        with pytest.raises(ValueError, match="degenerate"):
            transport_point((32.0, 96.0), (x1, 96.0), (float(x2), float(y2)), L64)

    def test_degenerate_mask_reported_by_array_path(self):
        s0 = np.array(unfold_to_sphere(32.0, 96.0, L64))

        def chord_minus_radius(x1):
            s1 = np.array(unfold_to_sphere(x1, 96.0, L64))
            return float(np.linalg.norm(s1 - s0)) - L64.radius

        x1 = brentq(chord_minus_radius, 40.0, 110.0, xtol=1e-13)
        s1 = np.array(unfold_to_sphere(x1, 96.0, L64))
        _, x2, y2 = sphere_to_unfold(*(s0 - s1), L64)
        xs = np.array([float(x2), 40.0])
        ys = np.array([float(y2), 96.0])
        _, _, ok = _transport_arrays((32.0, 96.0), (x1, 96.0), xs, ys, L64)
        assert ok.tolist() == [False, True]


class TestTransportPredictor:
    def test_known_neighbor_hop(self):
        got = transport_mv_predictor((32.0, 96.0), MotionVector(16, 0), (40.0, 96.0), L64)
        assert got == MotionVector(17, 0)

    def test_same_center_returns_mv_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = (rng.uniform(8, 56), rng.uniform(72, 120))
            mv = MotionVector(int(rng.integers(-24, 25)), int(rng.integers(-24, 25)))
            assert transport_mv_predictor(c, mv, c, L64) == mv

    def test_matches_scalar_transport_with_rounding(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nb = (rng.uniform(12, 52), rng.uniform(76, 116))
            cur = (rng.uniform(12, 52), rng.uniform(76, 116))
            mv = MotionVector(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
            u1 = (nb[0] + mv.dx_q2 / 4.0, nb[1] + mv.dy_q2 / 4.0)
            x3, y3 = transport_point(nb, u1, cur, L64)
            want = MotionVector(
                int(round_half_away((x3 - cur[0]) * 4)),
                int(round_half_away((y3 - cur[1]) * 4)),
            )
            assert transport_mv_predictor(nb, mv, cur, L64) == want

    def test_degenerate_falls_back_to_neighbor_mv(self):
        # same chord construction as above, but u1 must sit on the
        # quarter-pel grid relative to the neighbor center; solve for the
        # center x that makes a fixed 45.5 px displacement degenerate
        mv = MotionVector(182, 0)

        def chord_minus_radius(x0):
            s0 = np.array(unfold_to_sphere(x0, 96.0, L64))
            s1 = np.array(unfold_to_sphere(x0 + mv.dx_q2 / 4.0, 96.0, L64))
            return float(np.linalg.norm(s1 - s0)) - L64.radius

        x0 = brentq(chord_minus_radius, 31.75, 40.0, xtol=1e-13)
        s0 = np.array(unfold_to_sphere(x0, 96.0, L64))
        s1 = np.array(unfold_to_sphere(x0 + mv.dx_q2 / 4.0, 96.0, L64))
        _, x2, y2 = sphere_to_unfold(*(s0 - s1), L64)
        got = transport_mv_predictor((x0, 96.0), mv, (float(x2), float(y2)), L64)
        assert got == mv


class TestCorrespondenceField:
    def test_matches_scalar_transport_per_pixel(self):
        blk = Block(24, 88, 8, 8)
        mv = MotionVector(13, -6)
        field = build_correspondence_field(blk, mv, L64)
        u0 = blk.center
        u1 = (u0[0] + mv.dx_q2 / 4.0, u0[1] + mv.dy_q2 / 4.0)
        for j in range(blk.height):
            for i in range(blk.width):
                x3, y3 = transport_point(u0, u1, (blk.x0 + i, blk.y0 + j), L64)
                assert field.rx_q6[j, i] == int(round_half_away(x3 * 64))
                assert field.ry_q6[j, i] == int(round_half_away(y3 * 64))
        assert field.valid.all()

    def test_zero_mv_is_exact_identity(self):
        blk = Block(72, 72, 16, 16)
        field = build_correspondence_field(blk, MotionVector(0, 0), L64)
        ys, xs = np.mgrid[72:88, 72:88]
        npt.assert_array_equal(field.rx_q6, xs * 64)
        npt.assert_array_equal(field.ry_q6, ys * 64)
        assert field.valid.all()

    def test_dtypes_and_shape(self):
        field = build_correspondence_field(Block(24, 88, 16, 8), MotionVector(4, 4), L64)
        assert field.rx_q6.dtype == np.int32
        assert field.ry_q6.dtype == np.int32
        assert field.valid.dtype == bool
        assert field.shape == (8, 16)

    def test_center_mv_landing_off_faces_rejected(self):
        blk = Block(24, 88, 16, 16)  # center (31.5, 95.5)
        for mv in OFF_FACE_MVS:
            with pytest.raises(ValueError, match="invalid center MV"):
                build_correspondence_field(blk, mv, L64)

    def test_degenerate_pixels_take_translational_fallback(self, monkeypatch):
        # no real block degenerates, so raise the threshold into the middle
        # of this block's |s1 - s0 + s2| range to make half of it fall back
        blk, mv = Block(8, 72, 16, 16), MotionVector(24, -12)
        want = build_correspondence_field(blk, mv, L64)
        assert want.valid.all()
        u0 = blk.center
        s0 = unfold_to_sphere(u0[0], u0[1], L64)
        s1 = unfold_to_sphere(u0[0] + mv.dx_q2 / 4, u0[1] + mv.dy_q2 / 4, L64)
        _, s2 = motion_model._block_sphere(blk, L64)
        norm = np.sqrt(sum((b - a + c) ** 2 for a, b, c in zip(s0, s1, s2)))
        monkeypatch.setattr(motion_model, "DEGENERATE_NORM", np.median(norm) / L64.face_width)

        got = build_correspondence_field(blk, mv, L64)
        assert got.valid.any() and not got.valid.all()
        trans = translational_field(blk, mv)
        bad = ~got.valid
        npt.assert_array_equal(got.rx_q6[bad], trans.rx_q6[bad])
        npt.assert_array_equal(got.ry_q6[bad], trans.ry_q6[bad])
        npt.assert_array_equal(got.rx_q6[got.valid], want.rx_q6[got.valid])
        npt.assert_array_equal(got.ry_q6[got.valid], want.ry_q6[got.valid])
        assert (got.rx_q6[bad] != want.rx_q6[bad]).any()

    def test_straddling_block_rejected(self):
        # twice: a failed block check must not be cached as a pass
        for _ in range(2):
            with pytest.raises(ValueError, match="single face"):
                build_correspondence_field(Block(56, 88, 16, 16), MotionVector(0, 0), L64)

    def test_second_build_of_a_block_hits_the_block_cache(self):
        blk = Block(40, 72, 16, 16)
        motion_model._block_sphere.cache_clear()
        build_correspondence_field(blk, MotionVector(3, -5), L64)
        build_correspondence_field(blk, MotionVector(-7, 2), L64)
        info = motion_model._block_sphere.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestFaceUniformBuild:
    """A build whose points all lie on one face maps them with the face's
    coefficients as scalars: no per-point face pick and no gather.  Its
    transported grid, inside one face's cone, takes the one-face path of
    sphere -> unfold."""

    def _branches(self, monkeypatch, blk, mv, layout):
        """Build one field from cold caches; return the results of unfold
        -> cube's face-uniform test and of sphere -> unfold's one-face path."""
        found = {"_cell_face": [], "_one_face": []}
        for name, results in found.items():
            inner = getattr(geometry, name)
            monkeypatch.setattr(
                geometry, name, lambda *a, inner=inner, results=results: (
                    results.append(inner(*a)) or results[-1]
                ),
            )
        motion_model._block_sphere.cache_clear()
        build_correspondence_field(blk, mv, layout)
        return found

    def test_in_face_build_is_face_uniform(self, monkeypatch):
        layout = CubeLayout(192, 192)
        found = self._branches(monkeypatch, Block(64, 256, 64, 64), MotionVector(9, -7), layout)
        # the center, the pixel grid and the moved center; the transported grid
        assert len(found["_cell_face"]) == 3 and None not in found["_cell_face"]
        assert len(found["_one_face"]) == 1 and found["_one_face"][0] is not None

    def test_seam_crossing_build_is_not(self, monkeypatch):
        layout = CubeLayout(192, 192)
        # a FRONT block moved 50 px right, half of it onto RIGHT
        found = self._branches(monkeypatch, Block(128, 256, 64, 64), MotionVector(200, 0), layout)
        assert found["_one_face"] == [None]


def assert_batch_matches_singles(blk, mvs, layout):
    batch = build_correspondence_fields(blk, mvs, layout)
    assert batch.shape == (len(mvs), blk.height, blk.width)
    assert (batch.rx_q6.dtype, batch.ry_q6.dtype, batch.valid.dtype) == (np.int32, np.int32, bool)
    for i, mv in enumerate(mvs):
        one = build_correspondence_field(blk, mv, layout)
        npt.assert_array_equal(batch.rx_q6[i], one.rx_q6)
        npt.assert_array_equal(batch.ry_q6[i], one.ry_q6)
        npt.assert_array_equal(batch.valid[i], one.valid)
    return batch


class TestBatchedFields:
    """One batched build equals the stacked single builds, bit for bit."""

    @given(
        w=st.sampled_from([64, 72, 192]),
        face=st.sampled_from(list(Face)),
        size=st.sampled_from([8, 16]),
        data=st.data(),
    )
    def test_equals_stacked_single_builds(self, w, face, size, data):
        layout = CubeLayout(w, w)
        fx, fy, _, _ = layout.face_rect(face)
        blk = Block(
            fx + data.draw(st.integers(0, w - size)), fy + data.draw(st.integers(0, w - size)),
            size, size,
        )
        # up to a quarter face away, so many centers land across a seam
        reach = w  # quarter-pel units
        mvs = data.draw(st.lists(
            st.builds(MotionVector, st.integers(-reach, reach), st.integers(-reach, reach)),
            min_size=1, max_size=6,
        ))
        cx, cy = blk.center
        mvs = [mv for mv in mvs if face_of(cx + mv.dx_q2 / 4, cy + mv.dy_q2 / 4, layout) is not None]
        if mvs:
            assert_batch_matches_singles(blk, mvs, layout)

    @pytest.mark.parametrize("w", [64, 72, 192])
    def test_fields_crossing_a_seam(self, w):
        layout = CubeLayout(w, w)
        # a FRONT block at the RIGHT seam, moved across it and back
        blk = Block(w - 16, w + 8, 16, 16)
        mvs = [MotionVector(40, 0), MotionVector(-40, 12), MotionVector(0, 0), MotionVector(40, 0)]
        batch = assert_batch_matches_singles(blk, mvs, layout)
        faces = face_of(batch.rx_q6[0] / 64, batch.ry_q6[0] / 64, layout)
        assert {Face.FRONT, Face.RIGHT} <= set(faces.ravel().tolist())

    def test_degenerate_fallback_per_candidate(self, monkeypatch):
        # as in TestCorrespondenceField: raise the threshold into the
        # middle of one MV's |s1 - s0 + s2| range, so that MV falls back
        # on about half its pixels and the others on more or fewer
        blk = Block(8, 72, 16, 16)
        mvs = [MotionVector(24, -12), MotionVector(0, 0), MotionVector(-20, 16), MotionVector(6, 30)]
        u0 = blk.center
        s0 = unfold_to_sphere(u0[0], u0[1], L64)
        s1 = unfold_to_sphere(u0[0] + 6, u0[1] - 3, L64)
        _, s2 = motion_model._block_sphere(blk, L64)
        norm = np.sqrt(sum((b - a + c) ** 2 for a, b, c in zip(s0, s1, s2)))
        monkeypatch.setattr(motion_model, "DEGENERATE_NORM", np.median(norm) / L64.face_width)

        batch = assert_batch_matches_singles(blk, mvs, L64)
        assert batch.valid.any() and not batch.valid.all()
        for i, mv in enumerate(mvs):
            bad = ~batch.valid[i]
            trans = translational_field(blk, mv)
            npt.assert_array_equal(batch.rx_q6[i][bad], trans.rx_q6[bad])
            npt.assert_array_equal(batch.ry_q6[i][bad], trans.ry_q6[bad])
        # the fallback is per candidate, not shared across the batch
        assert len({batch.valid[i].sum() for i in range(len(mvs))}) > 1

    def test_off_face_mv_rejected(self):
        blk = Block(24, 88, 16, 16)
        for off in OFF_FACE_MVS:
            for mvs in ([off], [MotionVector(0, 0), off], [off, MotionVector(4, 4)]):
                with pytest.raises(ValueError, match="invalid center MV"):
                    build_correspondence_fields(blk, mvs, L64)

    def test_straddling_block_rejected(self):
        # twice: a failed block check must not be cached as a pass
        for _ in range(2):
            with pytest.raises(ValueError, match="single face"):
                build_correspondence_fields(Block(56, 88, 16, 16), [MotionVector(0, 0)], L64)


def reference_fields(blk, mvs, layout):
    """The batched field build as it stood before the one-face transport,
    the in-place rounding and the center lattice: every geometry call of
    its own, sphere -> cube -> unfold through the general composite, and
    ``round_half_away``.  Returns ``(rx_q6, ry_q6, valid)``."""
    cx, cy = blk.center
    s0 = unfold_to_sphere(cx, cy, layout)
    ys, xs = np.mgrid[blk.y0 : blk.y0 + blk.height, blk.x0 : blk.x0 + blk.width]
    s2 = unfold_to_sphere(xs, ys, layout)
    u1 = np.array([(cx + mv.dx_q2 / 4, cy + mv.dy_q2 / 4) for mv in mvs])
    s1 = [axis[:, None, None] for axis in unfold_to_sphere(*u1.T, layout)]
    s3x, s3y, s3z = (b - a + c for a, b, c in zip(s0, s1, s2))
    norm = np.sqrt(s3x * s3x + s3y * s3y + s3z * s3z)
    ok = norm >= motion_model.DEGENERATE_NORM * layout.face_width
    s3 = [np.where(ok, c, unit) for c, unit in zip((s3x, s3y, s3z), (1.0, 0.0, 0.0))]
    # sphere_to_cube lands on the surface, so cube_to_unfold's check passes
    _, x3, y3 = cube_to_unfold(*sphere_to_cube(*s3, layout), layout)
    trans = [translational_field(blk, mv) for mv in mvs]
    rx = np.where(ok, round_half_away(x3 * 64), np.stack([t.rx_q6 for t in trans]))
    ry = np.where(ok, round_half_away(y3 * 64), np.stack([t.ry_q6 for t in trans]))
    return rx.astype(np.int32), ry.astype(np.int32), ok


@st.composite
def blocks_and_mvs(draw):
    """A block anywhere on a face (its corners often), a stage-5 anchor and
    1-16 MVs: within the anchor's window (its edge often) or far from it.
    Anchors and MVs often put the moved center on a face edge or a
    quarter-pel either side of it, so centers and transported grids cross
    seams and corners and land on ties."""
    w = draw(st.sampled_from([64, 72, 192]))
    layout = CubeLayout(w, w)
    x0, y0, x1, y1 = layout.face_rect(draw(st.sampled_from(list(Face))))
    size = draw(st.sampled_from([8, 16, 32]))
    place = lambda lo, hi: draw(st.one_of(st.sampled_from([lo, hi - size]),
                                          st.integers(lo, hi - size)))
    blk = Block(place(x0, x1), place(y0, y1), size, size)

    def component(c, lo, hi):
        # quarter-pels that move c onto the edge lo or hi, give or take one
        to_edge = st.builds(lambda e, j: int(4 * (e - c)) + j, st.sampled_from([lo, hi]),
                            st.integers(-1, 1))
        return draw(st.one_of(to_edge, st.integers(-16, 16), st.integers(-w, w)))

    cx, cy = blk.center
    anchor = MotionVector(component(cx, x0, x1), component(cy, y0, y1))
    offset = st.one_of(st.sampled_from([-8, 8]), st.integers(-8, 8))
    if draw(st.booleans()):  # some MVs far outside the window
        offset = st.one_of(offset, st.integers(-2 * w, 2 * w))
    offsets = draw(st.lists(st.tuples(offset, offset), min_size=1, max_size=16))
    mvs = [MotionVector(anchor.dx_q2 + ox, anchor.dy_q2 + oy) for ox, oy in offsets]
    mvs = [mv for mv in mvs if face_of(cx + mv.dx_q2 / 4, cy + mv.dy_q2 / 4, layout) is not None]
    return layout, blk, anchor, mvs


class TestLeanFieldBuild:
    """The one-face transport, the in-place rounding and the stage-5
    center lattice leave every field as it was."""

    @given(case=blocks_and_mvs())
    def test_equals_the_reference_build(self, case):
        layout, blk, anchor, mvs = case
        if not mvs:
            return
        want = reference_fields(blk, mvs, layout)
        lattice = center_lattice(blk, anchor, 8, layout)  # None if the window leaves the faces
        s1 = None if lattice is None else lattice.centers(mvs)
        if s1 is not None:  # the bits of the build's own call
            cx, cy = blk.center
            u1 = [(cx + mv.dx_q2 / 4, cy + mv.dy_q2 / 4) for mv in mvs]
            for got, ref in zip(s1, unfold_to_sphere(*np.array(u1).T, layout)):
                assert np.array_equal(got.ravel().view(np.int64), ref.view(np.int64))
        for lat in (None, lattice):
            got = build_correspondence_fields(blk, mvs, layout, lat)
            for a, b in zip((got.rx_q6, got.ry_q6, got.valid), want):
                assert a.dtype == b.dtype
                npt.assert_array_equal(a, b)
        one = build_correspondence_field(blk, mvs[-1], layout, lattice)
        npt.assert_array_equal(one.rx_q6, want[0][-1])
        npt.assert_array_equal(one.ry_q6, want[1][-1])

    @pytest.mark.parametrize("blk,anchor", [
        (Block(0, 64, 16, 16), MotionVector(-28, 4)),  # FRONT: the window reaches x = -1.5
        (Block(64, 64, 16, 16), MotionVector(0, -28)),  # RIGHT: y = 62.5 is a corner hole
    ], ids=["off the canvas", "in a hole"])
    def test_off_face_window_gives_no_lattice(self, blk, anchor):
        assert center_lattice(blk, anchor, 8, L64) is None

    def test_lattice_holds_the_centers_bits(self):
        blk = Block(0, 64, 16, 16)  # FRONT's top-left corner block, center (7.5, 71.5)
        anchor = MotionVector(-20, 4)  # the window reaches x = 0.5, still on FRONT
        lattice = center_lattice(blk, anchor, 8, L64)
        assert lattice.s1.shape == (3, 17, 17)
        q = np.arange(-8, 9)
        xs, ys = np.meshgrid(7.5 + (anchor.dx_q2 + q) / 4, 71.5 + (anchor.dy_q2 + q) / 4)
        for axis, want in zip(lattice.s1, unfold_to_sphere(xs, ys, L64)):
            assert np.array_equal(axis.view(np.int64), want.view(np.int64))

    def test_off_face_lattice_center_rejected(self):
        blk = Block(0, 64, 16, 16)
        anchor = MotionVector(-28, 0)  # center x 0.5; the window reaches x -1.5
        lattice = center_lattice(blk, anchor, 8, L64)
        assert lattice is None  # so each build maps its own centers
        off = MotionVector(-32, 0)  # center x -0.5: inside the window, off the canvas
        for mvs in ([off], [anchor, off], [off, MotionVector(-24, 8)]):
            with pytest.raises(ValueError, match="invalid center MV"):
                build_correspondence_fields(blk, mvs, L64, lattice)
        with pytest.raises(ValueError, match="invalid center MV"):
            build_correspondence_field(blk, off, L64, lattice)
        # an MV outside an on-face window takes the build's own geometry call
        lattice = center_lattice(blk, MotionVector(-20, 0), 8, L64)
        assert lattice.centers([MotionVector(-40, 0)]) is None
        with pytest.raises(ValueError, match="invalid center MV"):
            build_correspondence_fields(blk, [MotionVector(-40, 0)], L64, lattice)


class TestTranslationalField:
    def test_exact_integer_arithmetic(self):
        blk = Block(24, 88, 4, 4)
        field = translational_field(blk, MotionVector(5, -2))
        ys, xs = np.mgrid[88:92, 24:28]
        npt.assert_array_equal(field.rx_q6, xs * 64 + 5 * 16)
        npt.assert_array_equal(field.ry_q6, ys * 64 - 2 * 16)
        assert field.valid.all()

    def test_matches_transported_field_at_zero_mv(self):
        blk = Block(24, 88, 8, 8)
        a = translational_field(blk, MotionVector(0, 0))
        b = build_correspondence_field(blk, MotionVector(0, 0), L64)
        npt.assert_array_equal(a.rx_q6, b.rx_q6)
        npt.assert_array_equal(a.ry_q6, b.ry_q6)
