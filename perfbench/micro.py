"""Layer micro-timings at face sizes 64, 128 and 256.

Every input is drawn from the run's seed: the clip texture, the block
positions and the motion vectors.  Blocks are 16x16; a face-N clip has
two frames moving at 2 px/frame.  Each figure is a median over repeats
(or, for searches, the mean over a fixed set of blocks), and every
metric name carries its face size as ``.f64``, ``.f128`` or ``.f256``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cubemc.frame_io import SyntheticSpec, generate_synthetic, read_yuv420, write_yuv420
from cubemc.geometry import CubeLayout, face_of, sphere_to_unfold, unfold_to_sphere
from cubemc.interp import fetch_block, generate_dctif_bank, warp_block
from cubemc.motion_model import MotionVector, build_correspondence_field, translational_field
from cubemc.motion_search import (
    BlockGrid,
    ReferencePicture,
    SearchConfig,
    mode_decide,
    sad,
    tzs_search,
)

FACES = (64, 128, 256)
BLOCK = 16
REPEATS = 5
FIELD_CASES = 24      # (block, MV) pairs per face size
SAD_CANDIDATES = 200  # integer offsets per face size
SEARCH_BLOCKS = 3     # blocks searched per face size


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _face_pixels(layout: CubeLayout):
    ys, xs = np.mgrid[0 : layout.canvas_height, 0 : layout.canvas_width]
    x, y = xs.ravel().astype(np.float64), ys.ravel().astype(np.float64)
    on = face_of(x, y, layout) >= 0
    return x[on], y[on]


def _field_cases(rng, grid: BlockGrid, layout: CubeLayout):
    cases = []
    for i in rng.choice(len(grid.blocks), size=FIELD_CASES, replace=False):
        block = grid.blocks[i]
        mv = MotionVector(*(int(v) for v in rng.integers(-24, 25, size=2)))
        cx, cy = block.center
        if face_of(cx + mv.dx_q2 / 4.0, cy + mv.dy_q2 / 4.0, layout) is None:
            mv = MotionVector(0, 0)
        cases.append((block, mv))
    return cases


def _one_face(face: int, rng, bank, out: dict, io_path) -> None:
    tag = f".f{face}"
    layout = CubeLayout(face, face)
    spec = SyntheticSpec(face, 2, (0.0, 2.0, 0.0), seed=int(rng.integers(1 << 31)))
    t0 = time.perf_counter()
    ref, cur = generate_synthetic(spec)
    out["frame_io.generate_synthetic.s_per_frame" + tag] = (time.perf_counter() - t0) / 2

    x, y = _face_pixels(layout)
    sx, sy, sz = unfold_to_sphere(x, y, layout)
    out["geometry.unfold_to_sphere.ns_per_px" + tag] = (
        _median_time(lambda: unfold_to_sphere(x, y, layout)) / x.size * 1e9
    )
    out["geometry.sphere_to_unfold.ns_per_px" + tag] = (
        _median_time(lambda: sphere_to_unfold(sx, sy, sz, layout)) / x.size * 1e9
    )

    grid = BlockGrid(layout, BLOCK)
    cases = _field_cases(rng, grid, layout)
    for block, mv in cases:  # fill the block sphere-grid cache, as a search does
        build_correspondence_field(block, mv, layout)
    out["motion_model.build_correspondence_field.us_per_call" + tag] = (
        _median_time(lambda: [build_correspondence_field(b, mv, layout) for b, mv in cases])
        / len(cases) * 1e6
    )
    fields = [translational_field(b, mv) for b, mv in cases]
    fields += [build_correspondence_field(b, mv, layout) for b, mv in cases]
    out["interp.warp_block.us_per_call" + tag] = (
        _median_time(lambda: [warp_block(ref.y, f, bank) for f in fields]) / len(fields) * 1e6
    )

    offsets = rng.integers(-32, 33, size=(SAD_CANDIDATES, 2))
    picks = rng.integers(len(grid.blocks), size=SAD_CANDIDATES)
    probes = [(grid.blocks[i], int(dx), int(dy)) for i, (dx, dy) in zip(picks, offsets)]

    def int_sad():
        for b, dx, dy in probes:
            cur_blk = cur.y[b.y0 : b.y0 + BLOCK, b.x0 : b.x0 + BLOCK]
            sad(cur_blk, fetch_block(ref.y, b.x0 + dx, b.y0 + dy, BLOCK, BLOCK))

    out["motion_search.int_sad.us_per_candidate" + tag] = (
        _median_time(int_sad) / SAD_CANDIDATES * 1e6
    )

    # searches in raster order on a fresh grid, as run_eval drives them
    search = SearchConfig(search_range=64)
    refp = ReferencePicture(ref, ref.poc)
    zero = MotionVector(0, 0)
    chosen = sorted(rng.choice(len(grid.blocks), size=SEARCH_BLOCKS, replace=False))
    t_tzs = t_md = 0.0
    for i in chosen:
        block = grid.blocks[i]
        t0 = time.perf_counter()
        trans = tzs_search(block, cur.y, refp, [zero], search, layout, bank,
                           advanced=False, pred_for_bits=zero)
        t1 = time.perf_counter()
        mode_decide(block, cur.y, refp, grid, search, layout, bank, trans_result=trans)
        t_tzs += t1 - t0
        t_md += time.perf_counter() - t1
    out["motion_search.tzs_search.ms_per_block" + tag] = t_tzs / SEARCH_BLOCKS * 1e3
    out["motion_search.mode_decide.ms_per_block" + tag] = t_md / SEARCH_BLOCKS * 1e3

    if face == FACES[-1]:
        clip = [ref, cur] * 2
        mbytes = sum(f.y.nbytes + f.u.nbytes + f.v.nbytes for f in clip) / 1e6
        t_write = _median_time(lambda: write_yuv420(io_path, clip))
        t_read = _median_time(lambda: read_yuv420(io_path, layout.canvas_width,
                                                  layout.canvas_height))
        out["frame_io.write_yuv420.MB_per_s"] = mbytes / t_write
        out["frame_io.read_yuv420.MB_per_s"] = mbytes / t_read


def run(seed: int, io_path) -> dict:
    """All micro-timings for one seed; ``io_path`` is a scratch file."""
    rng = np.random.default_rng(seed)
    bank = generate_dctif_bank()
    layout = CubeLayout(64, 64)
    pts = [(float(a), float(b)) for a, b in rng.uniform((0, 0), (256, 192), size=(2000, 2))]
    out = {
        "geometry.face_of.scalar_us":
            _median_time(lambda: [face_of(a, b, layout) for a, b in pts]) / len(pts) * 1e6
    }
    for face in FACES:
        _one_face(face, rng, bank, out, io_path)
    return out
