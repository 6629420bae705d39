"""Tests for the DCT filter bank and fixed-point warping."""

import ast
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubemc.geometry import CubeLayout, Face
from cubemc.interp import (
    chroma_field,
    fetch_block,
    generate_dctif_bank,
    phase_planes,
    row_bank,
    sample_fractional,
    warp_block,
    warp_rows,
)
from cubemc.motion_model import (
    Block,
    CorrespondenceField,
    MotionVector,
    build_correspondence_field,
    build_correspondence_fields,
    translational_field,
)

SRC = Path(__file__).resolve().parent.parent / "src"
ZERO_MV = MotionVector(0, 0)


def oracle_sample(plane, bank, x_q6, y_q6):
    """Slow reference interpolation, written independently of interp."""
    xi, px = x_q6 // 64, x_q6 % 64
    yi, py = y_q6 // 64, y_q6 % 64
    h, w = plane.shape
    inter = []
    for r in range(8):
        yy = min(max(yi - 3 + r, 0), h - 1)
        s = 0
        for c in range(8):
            xx = min(max(xi - 3 + c, 0), w - 1)
            s += int(bank[px][c]) * int(plane[yy, xx])
        inter.append((s + 32) >> 6)
    v = sum(int(bank[py][r]) * inter[r] for r in range(8))
    return min(max((v + 32) >> 6, 0), 255)


def assert_warp_matches_oracle(plane, field):
    bank = generate_dctif_bank()
    got = warp_block(plane, field)
    want = [
        [oracle_sample(plane, bank, int(x), int(y)) for x, y in zip(xr, yr)]
        for xr, yr in zip(field.rx_q6, field.ry_q6)
    ]
    assert got.dtype == np.uint8
    npt.assert_array_equal(got, want)


def random_plane(seed, height, width):
    return np.random.default_rng(seed).integers(0, 256, size=(height, width), dtype=np.uint8)


class TestBankStructure:
    def test_published_phases_reproduced(self):
        bank = generate_dctif_bank()
        assert bank[0].tolist() == [0, 0, 0, 64, 0, 0, 0, 0]
        assert bank[16].tolist() == [-1, 4, -10, 58, 17, -5, 1, 0]
        assert bank[32].tolist() == [-1, 4, -11, 40, 40, -11, 4, -1]
        assert bank[48].tolist() == [0, 1, -5, 17, 58, -10, 4, -1]

    def test_every_phase_sums_to_64(self):
        bank = generate_dctif_bank()
        npt.assert_array_equal(bank.sum(axis=1), np.full(64, 64))

    def test_mirror_symmetry(self):
        bank = generate_dctif_bank()
        for p in range(1, 64):
            npt.assert_array_equal(bank[p], bank[64 - p][::-1])

    def test_shape_and_dtype(self):
        bank = generate_dctif_bank()
        assert bank.shape == (64, 8)
        assert bank.dtype == np.int32
        assert not bank.flags.writeable
        assert generate_dctif_bank() is bank  # built once

    def test_whole_bank_pinned(self):
        # every phase, not just the published ones: the digest of the
        # bank built with scipy's CubicSpline before the closed-form
        # natural spline replaced it
        bank = np.ascontiguousarray(generate_dctif_bank())
        assert (bank.shape, bank.dtype) == ((64, 8), np.int32)
        digest = hashlib.sha256(bank.tobytes()).hexdigest()
        assert digest == "1c9e09ec6548aa23fc81a6ca3f7800f5316d365033357a836a5c0983093ea75a"

    def test_import_leaves_scipy_out(self):
        # nor anything for processes, threads or sockets: each adds to
        # every run's start-up.  -S keeps site hooks (which may import
        # threading) out, this process's path still finds numpy, and only
        # what ``import cubemc`` adds counts
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, sys.path)]))
        code = (
            "import sys; before = set(sys.modules); import cubemc; cubemc.generate_dctif_bank(); "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        added = set(ast.literal_eval(proc.stdout.strip()))
        assert "cubemc" in added
        heavy = {"multiprocessing", "threading", "concurrent", "socket", "subprocess", "scipy"}
        assert not added & heavy


class TestSampling:
    def test_integer_positions_copy_input(self):
        rng = np.random.default_rng(2)
        plane = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        for x, y in [(5, 7), (0, 0), (23, 23), (11, 3)]:
            assert sample_fractional(plane, x * 64, y * 64) == plane[y, x]

    def test_constant_plane_reproduced_at_any_phase(self):
        plane = np.full((20, 20), 128, dtype=np.uint8)
        rng = np.random.default_rng(4)
        for _ in range(40):
            x = int(rng.integers(3 * 64, 16 * 64))
            y = int(rng.integers(3 * 64, 16 * 64))
            assert sample_fractional(plane, x, y) == 128

    def test_half_pel_on_ramp(self):
        # luma(x) = 2x; the half-pel sample at x = 10.5 is exactly 21
        plane = np.tile((2 * np.arange(32)).astype(np.uint8), (8, 1))
        assert sample_fractional(plane, int(10.5 * 64), 4 * 64) == 21

    def test_linear_ramp_within_one_at_every_phase(self):
        plane = np.tile((2 * np.arange(64)).astype(np.uint8), (16, 1))
        for p in range(64):
            got = sample_fractional(plane, 20 * 64 + p, 8 * 64)
            assert abs(got - (2 * 20 + 2 * p / 64)) <= 1.0

    def test_matches_reference_implementation(self):
        bank = generate_dctif_bank()
        rng = np.random.default_rng(9)
        plane = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
        for _ in range(120):
            x = int(rng.integers(-3 * 64, 43 * 64))
            y = int(rng.integers(-3 * 64, 35 * 64))
            assert sample_fractional(plane, x, y) == oracle_sample(plane, bank, x, y)

    def test_edge_clamp_on_column_constant_plane(self):
        plane = np.tile(np.arange(16, 16 + 24, dtype=np.uint8), (12, 1))
        # far left of the plane every horizontal tap clamps to column 0
        assert sample_fractional(plane, -6 * 64 + 17, 5 * 64 + 33) == 16


class TestWarpBlock:
    def test_agrees_with_scalar_sampling(self):
        rng = np.random.default_rng(13)
        plane = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)
        rx = rng.integers(2 * 64, 40 * 64, size=(6, 6)).astype(np.int32)
        ry = rng.integers(2 * 64, 40 * 64, size=(6, 6)).astype(np.int32)
        field = CorrespondenceField(rx, ry, np.ones((6, 6), dtype=bool))
        got = warp_block(plane, field)
        assert got.dtype == np.uint8
        for j in range(6):
            for i in range(6):
                assert got[j, i] == sample_fractional(plane, int(rx[j, i]), int(ry[j, i]))

    def test_zero_mv_warp_is_copy(self):
        rng = np.random.default_rng(17)
        plane = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        blk = Block(8, 8, 16, 16)
        field = translational_field(blk, MotionVector(0, 0))
        npt.assert_array_equal(warp_block(plane, field), plane[8:24, 8:24])

    def test_integer_mv_warp_is_shifted_copy(self):
        rng = np.random.default_rng(19)
        plane = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        blk = Block(12, 12, 8, 8)
        field = translational_field(blk, MotionVector(4 * 3, 4 * -2))
        npt.assert_array_equal(warp_block(plane, field), plane[10:18, 15:23])

    def test_foreign_bank_raises(self):
        # the package's bank with phase 16 mirrored, and a bank of half the phases
        mirrored = generate_dctif_bank().copy()
        mirrored[16] = mirrored[16][::-1].copy()
        plane = random_plane(5, 40, 40)
        field = translational_field(Block(8, 8, 16, 16), MotionVector(1, 2))
        for bank in (mirrored, generate_dctif_bank()[:32]):
            with pytest.raises(ValueError, match="bank"):
                warp_block(plane, field, bank)

    def test_equal_bank_copy_warps_as_the_default(self):
        plane = random_plane(5, 40, 40)
        field = translational_field(Block(8, 8, 16, 16), MotionVector(1, 2))
        npt.assert_array_equal(warp_block(plane, field, generate_dctif_bank().copy()),
                               warp_block(plane, field))


def _ref_origin(placement, size, extent):
    """Integer origin of a block of ``size`` px on an axis of ``extent``
    px: the block and its 8-tap support inside, the block across an edge,
    or the block and its support wholly beyond the plane."""
    if placement == "inside":
        return st.integers(3, extent - size - 4)
    if placement == "straddle":
        return st.integers(1 - size, 0) | st.integers(extent - size, extent - 1)
    return st.integers(-60, -size - 4) | st.integers(extent + 3, extent + 60)


class TestWarpAgainstOracle:
    @pytest.mark.parametrize("placement", ["inside", "straddle", "off"])
    @given(data=st.data())
    def test_translational_field(self, placement, data):
        height, width = 40, 48
        plane = random_plane(data.draw(st.integers(0, 2**32 - 1)), height, width)
        bw, bh = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 10))
        mv = MotionVector(data.draw(st.integers(-24, 24)), data.draw(st.integers(-24, 24)))
        # the placement applies to one axis; the other stays inside
        edge_x = data.draw(st.booleans())
        px = data.draw(_ref_origin(placement if edge_x else "inside", bw, width))
        py = data.draw(_ref_origin("inside" if edge_x else placement, bh, height))
        # pixel (0, 0) reads its integer sample at (px, py)
        field = translational_field(Block(px - (mv.dx_q2 >> 2), py - (mv.dy_q2 >> 2), bw, bh), mv)
        assert_warp_matches_oracle(plane, field)
        assert_warp_matches_oracle(plane[::2, ::2].copy(), chroma_field(field))

    @given(
        seed=st.integers(0, 2**32 - 1),
        face=st.sampled_from(list(Face)),
        bx=st.integers(0, 8),
        by=st.integers(0, 8),
        mv=st.tuples(st.integers(-24, 24), st.integers(-24, 24)),
    )
    def test_field_crossing_face_edges(self, seed, face, bx, by, mv):
        layout = CubeLayout(16, 16)
        x0, y0, _, _ = layout.face_rect(face)
        try:
            field = build_correspondence_field(
                Block(x0 + bx, y0 + by, 8, 8), MotionVector(*mv), layout
            )
        except ValueError:  # center MV leaves the faces
            assume(False)
        # positions on another face far away in the unfold plane: the
        # window spans most of the canvas
        assume(max(np.ptp(field.rx_q6), np.ptp(field.ry_q6)) > 16 * 64)
        plane = random_plane(seed, layout.canvas_height, layout.canvas_width)
        assert_warp_matches_oracle(plane, field)
        assert_warp_matches_oracle(plane[::2, ::2].copy(), chroma_field(field))

    @given(
        seed=st.integers(0, 2**32 - 1),
        axis=st.sampled_from(["x", "y"]),
        x0=st.integers(-4, 28),
        y0=st.integers(-4, 20),
        mv=st.tuples(st.integers(-24, 24), st.integers(-24, 24)),
        jitter=st.integers(1, 200),
    )
    def test_field_translational_in_one_axis(self, seed, axis, x0, y0, mv, jitter):
        plane = random_plane(seed, 24, 32)
        trans = translational_field(Block(x0, y0, 6, 5), MotionVector(*mv))
        noise = np.random.default_rng(seed).integers(-jitter, jitter + 1, size=trans.shape)
        # two entries differ, so the jittered axis is never a translation
        noise[0, 0], noise[-1, -1] = 0, jitter
        rx, ry = trans.rx_q6, trans.ry_q6
        if axis == "x":
            rx = rx + noise.astype(np.int32)
        else:
            ry = ry + noise.astype(np.int32)
        assert_warp_matches_oracle(plane, CorrespondenceField(rx, ry, trans.valid))


class TestBatchedWarp:
    """A (n, h, w) field warps to the stack of its slices' warps."""

    @given(data=st.data())
    def test_equals_per_slice_warps(self, data):
        layout = CubeLayout(16, 16)
        plane = random_plane(data.draw(st.integers(0, 2**32 - 1)), 48, 64)
        n = data.draw(st.integers(1, 5))
        rx, ry = [], []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["translation", "face edge", "off plane"]))
            mv = MotionVector(data.draw(st.integers(-24, 24)), data.draw(st.integers(-24, 24)))
            if kind == "translation":
                # a translation slice: a field of one phase per axis
                x0, y0 = data.draw(st.integers(-4, 60)), data.draw(st.integers(-4, 44))
                field = translational_field(Block(x0, y0, 8, 8), mv)
            elif kind == "face edge":
                face = data.draw(st.sampled_from(list(Face)))
                fx, fy, _, _ = layout.face_rect(face)
                blk = Block(fx + data.draw(st.integers(0, 8)), fy + data.draw(st.integers(0, 8)), 8, 8)
                try:
                    field = build_correspondence_field(blk, mv, layout)
                except ValueError:  # center MV leaves the faces
                    field = translational_field(blk, mv)
            else:
                # 8-tap support wholly beyond an edge of the plane
                x0 = data.draw(st.integers(-40, -12) | st.integers(68, 100))
                field = translational_field(Block(x0, data.draw(st.integers(-8, 48)), 8, 8), mv)
                jitter = np.random.default_rng(x0 & 0xFF).integers(-90, 91, size=(8, 8))
                field = CorrespondenceField(field.rx_q6 + jitter.astype(np.int32), field.ry_q6, field.valid)
            rx.append(field.rx_q6)
            ry.append(field.ry_q6)
        batch = CorrespondenceField(np.stack(rx), np.stack(ry), np.ones((n, 8, 8), dtype=bool))
        got = warp_block(plane, batch)
        assert got.shape == (n, 8, 8) and got.dtype == np.uint8
        for i in range(n):
            one = CorrespondenceField(rx[i], ry[i], np.ones((8, 8), dtype=bool))
            npt.assert_array_equal(got[i], warp_block(plane, one))

    def test_batched_fields_of_one_block(self):
        layout = CubeLayout(64, 64)
        plane = random_plane(5, layout.canvas_height, layout.canvas_width)
        blk = Block(40, 72, 16, 16)
        mvs = [MotionVector(0, 0), MotionVector(3, -2), MotionVector(-40, 9), MotionVector(8, 0)]
        got = warp_block(plane, build_correspondence_fields(blk, mvs, layout))
        for i, mv in enumerate(mvs):
            npt.assert_array_equal(got[i], warp_block(plane, build_correspondence_field(blk, mv, layout)))


def _window_origin(data, placement, size, layout):
    """Integer reference position of a ``size``-px block: inside the
    canvas, straddling an edge of a face (the canvas border included),
    or with its window and 8-tap support wholly beyond the canvas."""
    width, height = layout.canvas_width, layout.canvas_height
    if placement == "inside":
        return data.draw(st.integers(0, width - size)), data.draw(st.integers(0, height - size))
    edge_x = data.draw(st.booleans())
    if placement == "face edge":
        fx0, fy0, fx1, fy1 = layout.face_rect(data.draw(st.sampled_from(list(Face))))
        edges = (fx0, fx1) if edge_x else (fy0, fy1)
        across = data.draw(st.sampled_from(edges)) - data.draw(st.integers(1, size - 1))
        along = data.draw(st.integers(fy0, fy1 - size) if edge_x else st.integers(fx0, fx1 - size))
    else:
        extent = width if edge_x else height
        across = data.draw(st.integers(-size - 40, -size - 16) | st.integers(extent + 16, extent + 40))
        along = data.draw(st.integers(0, (height if edge_x else width) - size))
    return (across, along) if edge_x else (along, across)


class TestPhasePlanes:
    """Every slice of a block's quarter-pel phase window is the warp of
    the translation it stands for (``warp_block``'s gather, which shares
    no code with ``phase_planes``)."""

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("placement", ["inside", "face edge", "off plane"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_window_slices_equal_warps(self, size, placement, data):
        layout = CubeLayout(64, 64)
        bank = generate_dctif_bank()
        plane = random_plane(
            data.draw(st.integers(0, 2**32 - 1)), layout.canvas_height, layout.canvas_width
        )
        px, py = _window_origin(data, placement, size, layout)
        # the block sits an integer anchor (ax, ay) away from its reference position
        ax, ay = data.draw(st.integers(-16, 16)), data.draw(st.integers(-16, 16))
        block = Block(px - ax, py - ay, size, size)
        planes = phase_planes(plane, px - 2, py - 2, size + 4, size + 4)
        assert planes.shape == (4, 4, size + 4, size + 4) and planes.dtype == np.uint8
        for oy in range(17):  # quarter-pels into the +-2 px window
            for ox in range(17):
                field = translational_field(block, MotionVector(4 * ax + ox - 8, 4 * ay + oy - 8))
                got = planes[oy & 3, ox & 3, oy >> 2 : (oy >> 2) + size, ox >> 2 : (ox >> 2) + size]
                npt.assert_array_equal(got, warp_block(plane, field, bank))


def oracle_warp(plane, rx_q6, ry_q6):
    """``oracle_sample`` at every position of a field of any shape."""
    bank = generate_dctif_bank()
    want = [oracle_sample(plane, bank, int(x), int(y)) for x, y in zip(rx_q6.flat, ry_q6.flat)]
    return np.array(want, dtype=np.uint8).reshape(rx_q6.shape)


class TestGatherExactness:
    """The float32 gather returns the integers of the fixed-point oracle."""

    @pytest.mark.parametrize("placement", ["inside", "straddle", "off"])
    @given(data=st.data())
    def test_random_fields_match_oracle(self, placement, data):
        height, width = 24, 32
        seed = data.draw(st.integers(0, 2**32 - 1))
        plane = random_plane(seed, height, width)
        bw, bh = data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8))
        n = data.draw(st.sampled_from([None, 1, 3]))
        shape = (bh, bw) if n is None else (n, bh, bw)
        edge_x = data.draw(st.booleans())
        px = data.draw(_ref_origin(placement if edge_x else "inside", bw, width))
        py = data.draw(_ref_origin("inside" if edge_x else placement, bh, height))
        # a block's pixel lattice, each position moved by up to `span` 1/64-pels
        span = data.draw(st.integers(1, 3 * 64))
        rng = np.random.default_rng(seed)
        rx = 64 * (px + np.arange(bw)) + rng.integers(-span, span + 1, size=shape)
        ry = 64 * (py + np.arange(bh)[:, None]) + rng.integers(-span, span + 1, size=shape)
        field = CorrespondenceField(rx.astype(np.int32), ry.astype(np.int32), np.ones(shape, dtype=bool))
        got = warp_block(plane, field)
        assert got.shape == shape and got.dtype == np.uint8
        npt.assert_array_equal(got, oracle_warp(plane, rx, ry))

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("rows", ["same", "opposite", "mixed"])
    def test_tap_sign_planes_reach_both_extremes(self, batched, rows):
        # one 8x8 tile per phase pair (py, px), 255 where a horizontal tap
        # has the sign chosen for its row, else 0, so every pass-1 sum is
        # 255 times a positive or a negative tap sum.  Rows signed like
        # the vertical taps ("same", "opposite") push pass 2 to its bounds
        # too; random row signs ("mixed") leave many outputs unclipped.
        bank = generate_dctif_bank()
        taps = np.sign(bank)
        row_sign = {
            "same": np.broadcast_to(taps[:, None, :], (64, 64, 8)),
            "opposite": np.broadcast_to(-taps[:, None, :], (64, 64, 8)),
            "mixed": np.random.default_rng(0).choice([-1, 1], size=(64, 64, 8)),
        }[rows]
        tiles = np.where(row_sign[..., None] * taps[None, :, None, :] > 0, 255, 0)
        p1 = np.einsum("yxrc,xc->yxr", tiles, bank)
        assert (p1.min(), p1.max()) == (-255 * 24, 255 * 88)
        plane = tiles.astype(np.uint8).transpose(0, 2, 1, 3).reshape(8 * 64, 8 * 64)
        # pixel (j, i) reads tile (j, i) at phases (j, i)
        phase = np.arange(64)
        rx = np.tile((8 * phase + 3) * 64 + phase, (64, 1))
        ry = rx.T.copy()
        want = oracle_warp(plane, rx, ry)
        if rows == "mixed":
            assert ((want > 0) & (want < 255)).mean() > 0.2
        if batched:
            rx, ry, want = rx.reshape(4, 16, 64), ry.reshape(4, 16, 64), want.reshape(4, 16, 64)
        field = CorrespondenceField(rx.astype(np.int32), ry.astype(np.int32), np.ones(rx.shape, dtype=bool))
        npt.assert_array_equal(warp_block(plane, field, bank), want)

    def test_bank_keeps_float32_sums_exact(self):
        # the bounds the float32 gather's exactness rests on: a bank that
        # breaks them must fail here, not drift silently
        bank = generate_dctif_bank().astype(np.int64)
        assert np.where(bank > 0, bank, 0).sum(axis=1).max() <= 88
        assert np.where(bank < 0, bank, 0).sum(axis=1).min() >= -24
        lo, hi = (-255 * 24 + 32) >> 6, (255 * 88 + 32) >> 6
        assert (lo, hi) == (-96, 351)
        # every pass-2 partial sum is at most sum(|taps|) * max(|row|)
        assert (88 + 24) * max(-lo, hi) < 40_000 < 2**24

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("x0, clipped", [(8, False), (-3, False), (-40, True), (60, True)])
    def test_int32_and_int64_fields_agree(self, batched, x0, clipped):
        # a block inside the 32-px-wide plane, across its left edge, and
        # wholly off it on either side, where the base positions lie more
        # than a tap span out and the gather clips them
        plane = random_plane(31, 24, 32)
        rng = np.random.default_rng(x0 + 100)
        shape = (3, 8, 8) if batched else (8, 8)
        rx = 64 * (x0 + np.arange(8)) + rng.integers(-60, 61, size=shape)
        ry = 64 * (8 + np.arange(8)[:, None]) + rng.integers(-60, 61, size=shape)
        assert bool((rx >> 6).min() < -5 or (rx >> 6).max() > 32 + 4) is clipped
        want = oracle_warp(plane, rx, ry)
        for dtype in (np.int32, np.int64):
            field = CorrespondenceField(rx.astype(dtype), ry.astype(dtype), np.ones(shape, dtype=bool))
            npt.assert_array_equal(warp_block(plane, field), want)

    @pytest.mark.parametrize("batched", [False, True])
    def test_reference_plane_unchanged(self, batched):
        rng = np.random.default_rng(23)
        for writeable in (False, True):
            plane = random_plane(29, 40, 48)
            before = plane.copy()
            plane.flags.writeable = writeable
            # one field inside the plane (read through a view of it), one across its edge
            for x0 in (8 * 64, -3 * 64):
                shape = (2, 16, 16) if batched else (16, 16)
                rx = x0 + 64 * np.arange(16) + rng.integers(-70, 71, size=shape)
                ry = 8 * 64 + 64 * np.arange(16)[:, None] + rng.integers(-70, 71, size=shape)
                field = CorrespondenceField(rx.astype(np.int32), ry.astype(np.int32), np.ones(shape, dtype=bool))
                got = warp_block(plane, field)
                assert got.flags.writeable and not np.shares_memory(got, plane)
            npt.assert_array_equal(plane, before)
            assert plane.flags.writeable is writeable


def _bases_outside(rows, field):
    """Where a field's base positions leave the rectangle of a row bank."""
    x, y, r = rows
    col, row = (field.rx_q6 >> 6) - x, (field.ry_q6 >> 6) - y
    return (col < 0) | (col >= r.shape[1]) | (row < 0) | (row > r.shape[2] - 8)


class TestRowBank:
    """``warp_rows`` through a row bank equals ``warp_block``'s gather
    (which ``TestGatherExactness`` checks against the oracle), wherever the
    field lies: in the bank, partly across a face seam, wholly outside it,
    or in a bank whose window straddles an edge of the canvas."""

    L = CubeLayout(128, 128)  # faces of two 64-px blocks: room for one off the seams
    MARGIN = 4  # pixels around the anchor's block, as the advanced stage 5 builds it

    def fields(self, data, size, batched, corner=False):
        """A block in one face, a stage-5 anchor MV, and its field (or a
        batch of 3 fields at MVs within 2 px of the anchor).  ``corner``
        puts the block in its face's top-left corner and moves it up and
        left, across the face's edges."""
        face = data.draw(st.sampled_from(list(Face)))
        fx, fy, _, _ = self.L.face_rect(face)
        span = 4 if corner else self.L.face_width - size
        blk = Block(fx + data.draw(st.integers(0, span)), fy + data.draw(st.integers(0, span)),
                    size, size)
        step = st.integers(-6, -3) if corner else st.integers(-6, 6)
        anchor = MotionVector(4 * data.draw(step), 4 * data.draw(step))
        mvs = [MotionVector(anchor.dx_q2 + data.draw(st.integers(-8, 8)),
                            anchor.dy_q2 + data.draw(st.integers(-8, 8)))
               for _ in range(3 if batched else 1)]
        try:
            fields = build_correspondence_fields(blk, mvs, self.L)
        except ValueError:  # a center MV leaves the faces
            assume(False)
        if not batched:
            fields = CorrespondenceField(fields.rx_q6[0], fields.ry_q6[0], fields.valid[0])
        return blk, anchor, fields

    def bank_at_anchor(self, plane, blk, anchor):
        m = self.MARGIN
        return row_bank(plane, blk.x0 + anchor.dx_q2 // 4 - m, blk.y0 + anchor.dy_q2 // 4 - m,
                        blk.width + 2 * m, blk.height + 2 * m)

    def plane(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        return random_plane(seed, self.L.canvas_height, self.L.canvas_width)

    def check(self, plane, rows, field):
        got = warp_rows(plane, rows, field)
        assert got.shape == field.shape and got.dtype == np.uint8
        npt.assert_array_equal(got, warp_block(plane, field))

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("batched", [False, True])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_fields_in_the_bank(self, size, batched, data):
        plane = self.plane(data)
        blk, anchor, field = self.fields(data, size, batched)
        # a field whose bases span more than the block crosses a face seam
        assume(max(np.ptp(field.rx_q6 >> 6), np.ptp(field.ry_q6 >> 6)) < size + 8)
        # a bank over the bases' bounding box, each side 0-3 px wider
        x0, y0 = int((field.rx_q6 >> 6).min()), int((field.ry_q6 >> 6).min())
        left, top, right, bottom = (data.draw(st.integers(0, 3)) for _ in range(4))
        rows = row_bank(plane, x0 - left, y0 - top,
                        int((field.rx_q6 >> 6).max()) - x0 + 1 + left + right,
                        int((field.ry_q6 >> 6).max()) - y0 + 1 + top + bottom)
        assert not _bases_outside(rows, field).any()
        self.check(plane, rows, field)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("batched", [False, True])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_fields_across_a_face_seam(self, size, batched, data):
        plane = self.plane(data)
        blk, anchor, field = self.fields(data, size, batched, corner=True)
        rows = self.bank_at_anchor(plane, blk, anchor)
        out = _bases_outside(rows, field)
        assume(out.any())  # a few corner fields reach no seam
        assert not out.all()
        self.check(plane, rows, field)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("batched", [False, True])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_fields_outside_the_bank(self, size, batched, data):
        plane = self.plane(data)
        blk, anchor, field = self.fields(data, size, batched)
        # the bank of an anchor at least a block and a margin away
        far = data.draw(st.sampled_from([-1, 1])) * 4 * (size + 2 * self.MARGIN + 16)
        if data.draw(st.booleans()):
            anchor = MotionVector(anchor.dx_q2 + far, anchor.dy_q2)
        else:
            anchor = MotionVector(anchor.dx_q2, anchor.dy_q2 + far)
        rows = self.bank_at_anchor(plane, blk, anchor)
        assume(_bases_outside(rows, field).all())  # not if a seam leads into it
        self.check(plane, rows, field)

    @pytest.mark.parametrize("size", [16, 32, 64])
    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
    @pytest.mark.parametrize("batched", [False, True])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_bank_window_straddles_a_canvas_edge(self, size, edge, batched, data):
        plane = self.plane(data)
        width, height = self.L.canvas_width, self.L.canvas_height
        # a block whose anchored window reaches up to a margin past the edge
        across = data.draw(st.integers(-self.MARGIN - 4, 4))
        x0 = {"left": across, "right": width - size - across}.get(edge)
        y0 = {"top": across, "bottom": height - size - across}.get(edge)
        x0 = data.draw(st.integers(0, width - size)) if x0 is None else x0
        y0 = data.draw(st.integers(0, height - size)) if y0 is None else y0
        n = 3 if batched else 1
        # translations jittered by up to +-1 px per pixel, as a stage-5 field spreads
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        trans = translational_field(Block(x0, y0, size, size), ZERO_MV)
        rx = trans.rx_q6 + rng.integers(-64, 65, size=(n, size, size))
        ry = trans.ry_q6 + rng.integers(-64, 65, size=(n, size, size))
        field = CorrespondenceField(rx.astype(np.int32), ry.astype(np.int32),
                                    np.ones(rx.shape, dtype=bool))
        if not batched:
            field = CorrespondenceField(field.rx_q6[0], field.ry_q6[0], field.valid[0])
        rows = self.bank_at_anchor(plane, Block(x0, y0, size, size), ZERO_MV)
        x, y, r = rows
        assert x - 3 < 0 or y - 3 < 0 or x + r.shape[1] + 4 > width or y + r.shape[2] - 4 > height
        self.check(plane, rows, field)

    def test_tap_sign_planes_reach_both_extremes(self):
        # TestGatherExactness's tile plane: pixel (j, i) reads tile (j, i) at
        # phases (j, i), so pass 1 reaches -255 * 24 and 255 * 88, which the
        # bank stores as their rounded values -96 and 351
        bank = generate_dctif_bank()
        taps = np.sign(bank)
        tiles = np.where(taps[:, None, :, None] * taps[None, :, None, :] > 0, 255, 0)
        plane = tiles.astype(np.uint8).transpose(0, 2, 1, 3).reshape(8 * 64, 8 * 64)
        phase = np.arange(64)
        rx = np.tile((8 * phase + 3) * 64 + phase, (64, 1))
        ry = rx.T.copy()
        lo = hi = 0
        for j in range(0, 64, 16):  # a band of 16 tile rows per bank
            band = CorrespondenceField(rx[j : j + 16].astype(np.int32),
                                       ry[j : j + 16].astype(np.int32),
                                       np.ones((16, 64), dtype=bool))
            rows = row_bank(plane, 3, 8 * j + 3, 8 * 63 + 1, 8 * 15 + 1)
            assert rows[2].dtype == np.int16
            lo, hi = min(lo, int(rows[2].min())), max(hi, int(rows[2].max()))
            assert not _bases_outside(rows, band).any()
            npt.assert_array_equal(warp_rows(plane, rows, band),
                                   oracle_warp(plane, band.rx_q6, band.ry_q6))
        assert (lo, hi) == ((-255 * 24 + 32) >> 6, (255 * 88 + 32) >> 6) == (-96, 351)

    def test_float32_temporary_is_one_strip(self):
        # a 64-px block's bank: int16 entries, and the float32 GEMM input and
        # output of one strip of columns, not of the whole window
        plane = random_plane(3, 192, 256)
        width = height = 64 + 8
        tracemalloc.start()
        try:
            rows = row_bank(plane, 40, 40, width, height)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[2].dtype == np.int16 and rows[2].shape == (64, width, height + 7)
        whole_window_f32 = 64 * width * (height + 7) * 4
        assert peak < rows[2].nbytes + whole_window_f32 // 4


class TestFetchBlock:
    def test_interior_read(self):
        plane = np.arange(100, dtype=np.uint8).reshape(10, 10)
        npt.assert_array_equal(fetch_block(plane, 2, 3, 4, 2), plane[3:5, 2:6])

    def test_edge_clamped_read(self):
        plane = np.arange(16, dtype=np.uint8).reshape(4, 4)
        got = fetch_block(plane, -2, 3, 3, 2)
        npt.assert_array_equal(got, [[12, 12, 12], [12, 12, 12]])

    @pytest.mark.parametrize("placement", ["inside", "straddle", "off"])
    @given(data=st.data())
    def test_matches_clamped_reads(self, placement, data):
        plane = random_plane(data.draw(st.integers(0, 2**32 - 1)), 20, 24)
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        edge_x = data.draw(st.booleans())
        x0 = data.draw(_ref_origin(placement if edge_x else "inside", width, 24))
        y0 = data.draw(_ref_origin("inside" if edge_x else placement, height, 20))
        got = fetch_block(plane, x0, y0, width, height)
        want = [
            [plane[min(max(y, 0), 19), min(max(x, 0), 23)] for x in range(x0, x0 + width)]
            for y in range(y0, y0 + height)
        ]
        npt.assert_array_equal(got, want)
        inside = 0 <= x0 <= 24 - width and 0 <= y0 <= 20 - height
        # an in-plane read is a view the caller cannot write through
        assert got.flags.writeable is not inside
        assert np.shares_memory(got, plane) is inside

    @pytest.mark.parametrize("placement", ["inside", "straddle", "off"])
    @given(data=st.data())
    def test_integer_translation_warp_is_the_fetch(self, placement, data):
        # the search's cost table stores an integer offset (dx, dy) as the
        # translation (4dx, 4dy): exact only if phase 0 is the identity and
        # the warp clamps edges as the fetch does
        plane = random_plane(data.draw(st.integers(0, 2**32 - 1)), 40, 48)
        bw, bh = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 16))
        dx, dy = data.draw(st.integers(-24, 24)), data.draw(st.integers(-24, 24))
        edge_x = data.draw(st.booleans())
        px = data.draw(_ref_origin(placement if edge_x else "inside", bw, 48))
        py = data.draw(_ref_origin("inside" if edge_x else placement, bh, 40))
        field = translational_field(Block(px - dx, py - dy, bw, bh), MotionVector(4 * dx, 4 * dy))
        npt.assert_array_equal(warp_block(plane, field), fetch_block(plane, px, py, bw, bh))

    def test_in_plane_read_protects_reference(self):
        plane = np.arange(100, dtype=np.uint8).reshape(10, 10)
        got = fetch_block(plane, 2, 3, 4, 2)
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 0
        assert plane.flags.writeable
        assert plane[3, 2] == 32


class TestChromaField:
    def test_subsamples_and_halves(self):
        rx = np.array(
            [[-1, 9, 3, 9], [9, 9, 9, 9], [5, 9, 64, 9], [9, 9, 9, 9]], dtype=np.int32
        )
        ry = np.array(
            [[2, 9, -7, 9], [9, 9, 9, 9], [0, 9, 127, 9], [9, 9, 9, 9]], dtype=np.int32
        )
        valid = np.ones((4, 4), dtype=bool)
        valid[2, 2] = False
        sub = chroma_field(CorrespondenceField(rx, ry, valid))
        assert sub.rx_q6.tolist() == [[-1, 2], [3, 32]]
        assert sub.ry_q6.tolist() == [[1, -4], [0, 64]]
        assert sub.valid.tolist() == [[True, True], [True, False]]
        assert sub.rx_q6.dtype == np.int32

    def test_batch_equals_stacked_slices(self):
        mvs = [MotionVector(0, 0), MotionVector(9, -7), MotionVector(-20, 16)]
        batch = build_correspondence_fields(Block(8, 72, 16, 16), mvs, CubeLayout(64, 64))
        got = chroma_field(batch)
        assert got.shape == (3, 8, 8)
        for i in range(len(mvs)):
            one = chroma_field(CorrespondenceField(batch.rx_q6[i], batch.ry_q6[i], batch.valid[i]))
            npt.assert_array_equal(got.rx_q6[i], one.rx_q6)
            npt.assert_array_equal(got.ry_q6[i], one.ry_q6)
            npt.assert_array_equal(got.valid[i], one.valid)

    def test_halving_rounds_half_away_on_integers(self):
        # integer reference: |v|/2 rounded up, with the sign of v
        v = np.arange(-300_000, 300_001, dtype=np.int32)
        rx = np.zeros((2, 2 * v.size), dtype=np.int32)
        rx[0, ::2] = v
        sub = chroma_field(CorrespondenceField(rx, rx, np.ones(rx.shape, dtype=bool)))
        npt.assert_array_equal(sub.rx_q6[0], np.sign(v) * ((np.abs(v) + 1) // 2))
