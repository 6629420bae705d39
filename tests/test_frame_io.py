"""Tests for YUV I/O and the synthetic oracle sequences."""

import hashlib
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cubemc import frame_io
from cubemc.frame_io import (
    CHROMA_HI,
    CHROMA_LO,
    HOLE_VALUE,
    LUMA_HI,
    LUMA_LO,
    Frame,
    SyntheticSpec,
    _draw_texture,
    _Texture,
    generate_synthetic,
    ground_truth_match,
    read_yuv420,
    write_yuv420,
)
from cubemc.geometry import CubeLayout, face_of, sphere_to_unfold, unfold_to_sphere
from cubemc.interp import warp_block
from cubemc.motion_model import CorrespondenceField, round_half_away, transport_point


def random_frames(rng, n, width=64, height=48):
    frames = []
    for t in range(n):
        frames.append(
            Frame(
                rng.integers(0, 256, (height, width), dtype=np.uint8),
                rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
                rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
                poc=t,
            )
        )
    return frames


def face_mask(layout, step):
    """Which samples of the canvas grid of ``step`` lie on a face."""
    ys, xs = np.mgrid[0.0 : layout.canvas_height : step, 0.0 : layout.canvas_width : step]
    return face_of(xs, ys, layout) >= 0


def whole_canvas_render(spec):
    """The whole-canvas renderer ``generate_synthetic`` replaced, kept as
    its reference: each sample grid's face samples, masked out of the
    canvas, are mapped to the sphere in one call and scattered back."""
    layout = CubeLayout(spec.face_width, spec.face_width)
    rng = np.random.default_rng(spec.seed)
    tex_y, tex_u, tex_v = (_draw_texture(rng) for _ in range(3))
    planes = []
    for step, textures, lo, hi in ((1, (tex_y,), LUMA_LO, LUMA_HI),
                                   (2, (tex_u, tex_v), CHROMA_LO, CHROMA_HI)):
        ys, xs = np.mgrid[0.0 : layout.canvas_height : step, 0.0 : layout.canvas_width : step]
        mask = face_of(xs, ys, layout) >= 0
        sx, sy, sz = unfold_to_sphere(xs[mask], ys[mask], layout)
        for tex in textures:
            frames = []
            for t in range(spec.frames):
                qx, qy, qz = (s - t * v for s, v in zip((sx, sy, sz), spec.velocity))
                norm = np.sqrt(qx * qx + qy * qy + qz * qz)
                plane = np.full(mask.shape, HOLE_VALUE, dtype=np.uint8)
                val = tex(qx / norm, qy / norm, qz / norm)
                plane[mask] = lo + np.rint((val + 1.0) / 2.0 * (hi - lo))
                frames.append(plane)
            planes.append(frames)
    return [Frame(y, u, v, poc=t) for t, (y, u, v) in enumerate(zip(*planes))]


class TestFrameType:
    def test_odd_luma_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Frame(np.zeros((5, 8), np.uint8), np.zeros((2, 4), np.uint8), np.zeros((2, 4), np.uint8))

    @pytest.mark.parametrize("plane, dtype", [(0, np.float64), (1, np.int16), (2, np.float32)])
    def test_non_uint8_plane_rejected(self, plane, dtype):
        planes = [np.zeros((4, 8), np.uint8), np.zeros((2, 4), np.uint8), np.zeros((2, 4), np.uint8)]
        planes[plane] = planes[plane].astype(dtype)
        with pytest.raises(ValueError, match="uint8"):
            Frame(*planes)

    def test_chroma_shape_rejected(self):
        with pytest.raises(ValueError, match="half"):
            Frame(np.zeros((4, 8), np.uint8), np.zeros((2, 2), np.uint8), np.zeros((2, 4), np.uint8))


class TestFileRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        rng = np.random.default_rng(21)
        frames = random_frames(rng, 3)
        path = tmp_path / "clip.yuv"
        write_yuv420(path, frames)
        back = read_yuv420(path, 64, 48)
        assert len(back) == 3
        for a, b in zip(frames, back):
            npt.assert_array_equal(a.y, b.y)
            npt.assert_array_equal(a.u, b.u)
            npt.assert_array_equal(a.v, b.v)
            assert a.poc == b.poc

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\0" * (64 * 48 * 3 // 2 - 5))
        with pytest.raises(ValueError, match="multiple"):
            read_yuv420(path, 64, 48)

    def test_zero_filled_canvas_reads_as_one_zero_frame(self, tmp_path):
        path = tmp_path / "zero.yuv"
        path.write_bytes(b"\0" * (256 * 192 * 3 // 2))
        frames = read_yuv420(path, 256, 192)
        assert len(frames) == 1
        assert not frames[0].y.any()
        assert not frames[0].u.any()
        assert not frames[0].v.any()

    def test_odd_dimensions_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="even"):
            read_yuv420(tmp_path / "x.yuv", 63, 48)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 2), (2, 0), (-2, 2), (2, -2)])
    def test_non_positive_dimensions_rejected(self, tmp_path, width, height):
        # checked before the frame size is used: a zero size would divide
        # by zero and a negative one would be reported as a frame size
        path = tmp_path / "x.yuv"
        path.write_bytes(b"\0" * 12)
        with pytest.raises(ValueError, match="positive"):
            read_yuv420(path, width, height)

    def test_reads_planes_without_a_file_copy(self, tmp_path):
        path = tmp_path / "clip.yuv"
        frames = random_frames(np.random.default_rng(5), 10, 256, 192)
        write_yuv420(path, frames)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = read_yuv420(path, 256, 192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.poc for f in back] == list(range(10))
        npt.assert_array_equal(back[-1].v, frames[-1].v)
        # the frames themselves take the file size; a whole-file buffer
        # or a second copy of the planes would double it
        assert size <= peak < 1.5 * size

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # the file shrinks between its size check and the read
        path = tmp_path / "clip.yuv"
        write_yuv420(path, random_frames(np.random.default_rng(6), 2))
        fstat = os.fstat
        monkeypatch.setattr(
            frame_io.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 64 * 48 * 3 // 2)
        )
        with pytest.raises(ValueError, match="short read"):
            read_yuv420(path, 64, 48)


class TestSyntheticSpecValidation:
    def test_velocity_bound(self):
        with pytest.raises(ValueError, match="velocity"):
            SyntheticSpec(face_width=64, frames=2, velocity=(8.0, 0.0, 0.0))

    def test_velocity_under_bound_accepted(self):
        SyntheticSpec(face_width=64, frames=2, velocity=(7.9, 0.0, 0.0))

    @pytest.mark.parametrize("kw", [dict(face_width=64.0), dict(frames=2.0), dict(seed=1.0),
                                    dict(frames=True), dict(seed=np.float64(1.0))])
    def test_sizes_must_be_integers(self, kw):
        base = dict(face_width=64, frames=2, velocity=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="must be an integer"):
            SyntheticSpec(**{**base, **kw})

    def test_frame_minimum(self):
        with pytest.raises(ValueError):
            SyntheticSpec(face_width=64, frames=0, velocity=(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_velocity_must_be_finite(self, bad, axis):
        # nan fails every comparison, so it would slip past the speed bound
        velocity = [0.0, 0.0, 0.0]
        velocity[axis] = bad
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(face_width=64, frames=2, velocity=tuple(velocity))

    @pytest.mark.parametrize("velocity", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.5), ()],
                             ids=["two", "four", "none"])
    def test_velocity_has_three_components(self, velocity):
        # two failed mid-render; a fourth counted in the speed bound but was never rendered
        with pytest.raises(ValueError, match="three components"):
            SyntheticSpec(face_width=64, frames=2, velocity=velocity)

    @pytest.mark.parametrize("velocity,message", [
        (2.0, "three components"), (None, "three components"),
        (("1", "0", "0"), "real numbers"), ((1.0, None, 0.0), "real numbers"),
    ], ids=["scalar", "none", "strings", "a-none"])
    def test_velocity_of_non_numbers(self, velocity, message):
        # a scalar raised TypeError from len(), a string one from isfinite()
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(face_width=64, frames=2, velocity=velocity)

    @pytest.mark.parametrize("face", [9, 63])
    def test_odd_face_width_rejected_before_rendering(self, monkeypatch, face):
        # a face's chroma cell holds face_width / 2 samples, so an odd
        # face is rejected before any face is mapped
        calls = []
        monkeypatch.setattr(frame_io, "unfold_to_sphere", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="even"):
            generate_synthetic(SyntheticSpec(face, 2, (1.0, 0.0, 0.0)))
        assert not calls

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed"):
            SyntheticSpec(face_width=64, frames=2, velocity=(1.0, 0.0, 0.0), seed=-1)
        SyntheticSpec(face_width=64, frames=2, velocity=(1.0, 0.0, 0.0), seed=0)


class TestGenerateSynthetic:
    def test_zero_velocity_freezes_sequence(self):
        frames = generate_synthetic(
            SyntheticSpec(face_width=64, frames=3, velocity=(0.0, 0.0, 0.0), seed=5)
        )
        for f in frames[1:]:
            npt.assert_array_equal(f.y, frames[0].y)
            npt.assert_array_equal(f.u, frames[0].u)
            npt.assert_array_equal(f.v, frames[0].v)

    def test_constant_texture_gives_constant_frames(self, monkeypatch):
        flat = _Texture(
            np.zeros(3), np.ones(3), np.eye(3), np.zeros(3)
        )  # sums to 0 everywhere
        monkeypatch.setattr(frame_io, "_draw_texture", lambda rng: flat)
        plane = generate_synthetic(SyntheticSpec(64, 3, (1.0, 0.0, 0.0)))[2].y
        mask = face_mask(CubeLayout(64, 64), 1)
        assert set(np.unique(plane[mask])) == {np.uint8(126)}  # 16 + round(219/2)

    def test_sample_ranges_and_holes(self):
        frames = generate_synthetic(
            SyntheticSpec(face_width=64, frames=2, velocity=(2.0, 0.0, 0.0), seed=3)
        )
        f = frames[0]
        layout = CubeLayout(64, 64)
        mask = face_mask(layout, 1)
        assert f.y[mask].min() >= 16 and f.y[mask].max() <= 235
        assert (f.y[~mask] == 128).all()
        cmask = face_mask(layout, 2)
        assert (f.u[~cmask] == 128).all()
        assert f.u[cmask].min() >= 16 and f.u[cmask].max() <= 240

    def test_poc_sequence(self):
        frames = generate_synthetic(
            SyntheticSpec(face_width=64, frames=4, velocity=(1.0, 0.0, 0.0))
        )
        assert [f.poc for f in frames] == [0, 1, 2, 3]

    # SHA-256 of every plane (y, u, v of frame 0, then of frame 1) of a
    # 2-frame clip moving at (1.0, 0.5, -0.25) per frame, keyed by
    # (face_width, seed); recorded before holes were left unrendered
    RENDER_PINS = {
        (16, 0): [
            "080e77a4d10a529bd58e1e7d21cd95f3cc8bbdc014ac04c13300a89e7bea7149",
            "6d43b5baa053a949bd4e2de7480fbbcce0732ef088d8cd8544f6af51db5107b6",
            "9b6a248cce00e6f16c25c24e985e516234f0f9fd74f00081a5dc04fea650fa48",
            "70ec128cee1643b6e2ad6a2a02da5c8d2c78eefbac8e340ce846728969284220",
            "ef2385ea7cc36ddd77bd88694d59754f032f71cfbc910760dbf0281292555c0b",
            "9661b6d4b5740e20d438e5dfd5fc22afdd0772ea36a668981ed561d4ed02614e",
        ],
        (16, 1): [
            "71e1840c399a34202177567cfd9d844e8c81275213bfcb327b80d45ba625b1c8",
            "ebdfe57dfd2a3139357ca7fb7f3a9b483c1c2afa34309410bcecc3f9b80df8c9",
            "889d6f89246fb8fb34c77c40ceb731da54b4e798009f3934f188a7719e159e9d",
            "e09fd350ad5c81ce48fc17b9f361f6e4b08983cfd6a71beec057bc6210bc13e9",
            "e647e3c2e7e97024e8591cd62ddf6dca382792dc1f8e912a6679f287250bbf45",
            "43fed180646d8fc2a5f3f640be80d059f5559d1c81b1e40ac38d645cf1f7d163",
        ],
        (64, 0): [
            "4b3e7b3fc0c532448d7b0d7568a2df65dd0b4fbe97288fb8ed7538eaff321512",
            "a41cdab21939b1af476a18145eed8b7f0497f3e04c83b114ceb11dd16fed59c1",
            "8ef7b9634bec22151ce8ee2e22318d18062bf17c92b01ab947bf9a5ff5a825cc",
            "1e210ec53753c99357a7293be94453e13d7da44bc5209f88ee76fa7b396c5966",
            "2b22d63ebd6a9284ed8ffa87055d93e2ee15f181f1bf42fb3a80e45cc255a84f",
            "54360c991d6d9d631add28988984845f6cc3135a16a5b3a3627b8cc17685a7e0",
        ],
        (64, 1): [
            "888b337ef9a31345d4c4e20d0b0fa2288808ce33db93a98a1e0781c2d4654f5d",
            "7a411753e9e56db15aa21127a87303371449fd26d65d406db9a068f9f1d87893",
            "e70f145191cc696ea4c6c2b32d88492b4bdeb87a4cdf9f9b352f84e0b9d3796b",
            "55c6edc4647b09061bf7f9ea70b8009087904ce80397aec4e752091c420df933",
            "4f6f4b5201cec66922a89bfb9e2c24f9a9dacbda872b9be13c37f3a15991ceba",
            "7329d15a7fcc69e24908ebff74c85f11c4d9b10bf598c3005a08d93ced80cb3b",
        ],
    }

    @pytest.mark.parametrize("face, seed", sorted(RENDER_PINS))
    def test_render_pins(self, face, seed):
        frames = generate_synthetic(SyntheticSpec(face, 2, (1.0, 0.5, -0.25), seed=seed))
        got = [hashlib.sha256(p.tobytes()).hexdigest() for f in frames for p in (f.y, f.u, f.v)]
        assert got == self.RENDER_PINS[face, seed]

    def test_numpy_integer_sizes_accepted(self):
        spec = SyntheticSpec(np.int64(16), np.int32(2), (1.0, 0.5, -0.25), seed=np.uint8(1))
        frames = generate_synthetic(spec)
        got = [hashlib.sha256(p.tobytes()).hexdigest() for f in frames for p in (f.y, f.u, f.v)]
        assert got == self.RENDER_PINS[16, 1]

    @pytest.mark.parametrize("frames", [2, 5])
    def test_each_grid_is_mapped_to_the_sphere_once(self, monkeypatch, frames):
        # one call per face of each sample grid (luma and chroma), however
        # many frames, each on a row of xs and a column of ys of one cell
        calls = []
        inner = frame_io.unfold_to_sphere
        monkeypatch.setattr(frame_io, "unfold_to_sphere",
                            lambda *a: calls.append(a) or inner(*a))
        generate_synthetic(SyntheticSpec(16, frames, (1.0, 0.5, -0.25), seed=0))
        assert len(calls) == 12
        shapes = [(x.shape, y.shape) for x, y, _ in calls]
        assert shapes == [((16,), (16, 1))] * 6 + [((8,), (8, 1))] * 6

    @given(face=st.integers(4, 48).map(lambda k: 2 * k), frames=st.integers(1, 3),
           direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3), fraction=st.floats(0.0, 0.99),
           seed=st.integers(0, 2**16))
    @example(face=10, frames=3, direction=(0.3, -0.8, 0.5), fraction=0.99, seed=7)
    @example(face=72, frames=2, direction=(1.0, 0.5, -0.25), fraction=0.5, seed=1)
    def test_equals_the_whole_canvas_render(self, face, frames, direction, fraction, seed):
        length = math.sqrt(sum(c * c for c in direction)) or 1.0
        velocity = tuple(c / length * fraction * face / 8 for c in direction)
        spec = SyntheticSpec(face, frames, velocity, seed=seed)
        for got, want in zip(generate_synthetic(spec), whole_canvas_render(spec), strict=True):
            for a, b in ((got.y, want.y), (got.u, want.u), (got.v, want.v)):
                assert a.tobytes() == b.tobytes()

    def test_render_peak_is_a_few_faces(self):
        # the whole-canvas renderer peaked at 26.2 MiB; a face at a time
        # holds the 1.3 MiB of frames and one face's temporaries
        spec = SyntheticSpec(192, 2, (0.0, 2.0, 0.0), seed=0)
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(64, 2, (1.0, 0.0, 0.0), seed=1))[0]
        b = generate_synthetic(SyntheticSpec(64, 2, (1.0, 0.0, 0.0), seed=2))[0]
        assert (a.y != b.y).any()


class TestGroundTruthMatch:
    SPEC = SyntheticSpec(face_width=64, frames=2, velocity=(2.0, 0.0, 0.0), seed=1)

    def test_zero_delta_is_identity(self):
        x, y = ground_truth_match((20.0, 100.0), 0.0, self.SPEC)
        assert (x, y) == pytest.approx((20.0, 100.0), abs=1e-12)

    def test_zero_velocity_is_identity(self):
        spec = SyntheticSpec(face_width=64, frames=2, velocity=(0.0, 0.0, 0.0))
        x, y = ground_truth_match((41.0, 75.0), 3.0, spec)
        assert (x, y) == pytest.approx((41.0, 75.0), abs=1e-12)

    def test_matches_geometry_composition(self):
        layout = CubeLayout(64, 64)
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = (rng.uniform(4, 60), rng.uniform(68, 124))
            d = rng.uniform(-2, 2)
            sx, sy, sz = unfold_to_sphere(p[0], p[1], layout)
            _, ex, ey = sphere_to_unfold(sx + d * 2.0, sy, sz, layout)
            gx, gy = ground_truth_match(p, d, self.SPEC)
            assert gx == pytest.approx(float(ex), abs=1e-12)
            assert gy == pytest.approx(float(ey), abs=1e-12)

    def test_center_anchored_transport_approximates_match(self):
        # transporting the face-center displacement to other pixels tracks
        # the true match closely (the anchor is re-projected, so this is
        # approximate rather than exact)
        layout = CubeLayout(64, 64)
        u0 = (32.0, 96.0)
        u1 = ground_truth_match(u0, 1.0, self.SPEC)
        rng = np.random.default_rng(41)
        for _ in range(40):
            p = (rng.uniform(12, 52), rng.uniform(76, 116))
            want = ground_truth_match(p, 1.0, self.SPEC)
            got = transport_point(u0, u1, p, layout)
            assert abs(got[0] - want[0]) < 0.05
            assert abs(got[1] - want[1]) < 0.05


class TestGroundTruthWarp:
    def test_reconstructs_previous_frame_within_two_levels(self):
        spec = SyntheticSpec(face_width=64, frames=2, velocity=(1.0, 0.5, 0.0), seed=7)
        cur, nxt = generate_synthetic(spec)
        # interior region of the FRONT face, away from seams
        ys, xs = np.mgrid[72:120, 8:56]
        gx, gy = ground_truth_match((xs.astype(float), ys.astype(float)), 1.0, spec)
        field = CorrespondenceField(
            round_half_away(gx * 64).astype(np.int32),
            round_half_away(gy * 64).astype(np.int32),
            np.ones(xs.shape, dtype=bool),
        )
        pred = warp_block(nxt.y, field)
        diff = pred.astype(int) - cur.y[72:120, 8:56].astype(int)
        assert np.abs(diff).max() <= 2
