"""Tests for zone search, predictor derivation and mode decision."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubemc import motion_search, search_rounds
from cubemc.evaluate import EvalConfig, run_eval
from cubemc.frame_io import SyntheticSpec, generate_synthetic
from cubemc.geometry import CubeLayout
from cubemc.interp import fetch_block, generate_dctif_bank, warp_block
from cubemc.motion_model import (
    Block,
    MotionVector,
    build_correspondence_field,
    translational_field,
    transport_mv_predictor,
)
from cubemc.motion_search import (
    BlockGrid,
    BlockRecord,
    PredMode,
    ReferencePicture,
    SearchConfig,
    amvp_predictor,
    merge_candidate,
    mode_decide,
    mv_bits,
    RASTER_STEP,
    REFINE_WINDOW_Q2,
    sad,
    tzs_search,
)

L64 = CubeLayout(64, 64)
ZERO = MotionVector(0, 0)


def synthetic_pair(velocity=(2.0, 0.0, 0.0), seed=1):
    spec = SyntheticSpec(face_width=64, frames=2, velocity=velocity, seed=seed)
    prev, cur = generate_synthetic(spec)
    return cur, ReferencePicture(prev, 0), spec


class TestSad:
    def test_identical_blocks(self):
        a = np.arange(64, dtype=np.uint8).reshape(8, 8)
        assert sad(a, a.copy()) == 0

    def test_unit_difference(self):
        a = np.zeros((16, 16), np.uint8)
        b = np.ones((16, 16), np.uint8)
        assert sad(a, b) == 256

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 256, (9, 7), np.uint8)
        b = rng.integers(0, 256, (9, 7), np.uint8)
        want = 0
        for j in range(9):
            for i in range(7):
                want += abs(int(a[j, i]) - int(b[j, i]))
        assert sad(a, b) == want

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            sad(np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 4, 5), (4, 4)),      # a stack of other blocks
        ((4, 4), (1, 4, 4)),      # the stack passed second
        ((2, 3, 4, 4), (4, 4)),   # a stack of stacks
        ((16,), (16,)),           # not a block
    ])
    def test_stack_shape_mismatch_rejected(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="dimensions"):
            sad(np.zeros(a_shape, np.uint8), np.zeros(b_shape, np.uint8))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint16, np.float32, bool])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_uint8_rejected(self, dtype, side):
        blocks = [np.zeros((8, 8), np.uint8), np.zeros((8, 8), np.uint8)]
        blocks[side] = blocks[side].astype(dtype)
        with pytest.raises(ValueError, match="uint8"):
            sad(*blocks)

    def test_full_range_difference(self):
        # 255 per pixel overflows int8 and, summed, int16
        lo, hi = np.zeros((64, 64), np.uint8), np.full((64, 64), 255, np.uint8)
        assert sad(lo, hi) == sad(hi, lo) == 4096 * 255 == 1_044_480
        assert sad(np.stack([lo, hi, lo]), hi).tolist() == [1_044_480, 0, 1_044_480]

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_stack_equals_per_block_calls(self, size):
        rng = np.random.default_rng(size)
        cur = rng.integers(0, 256, (size, size), np.uint8)
        stack = rng.integers(0, 256, (5, size, size), np.uint8)
        got = sad(stack, cur)
        assert got.dtype == np.int64 and got.shape == (5,)
        assert got.tolist() == [sad(blk, cur) for blk in stack]
        assert all(type(sad(blk, cur)) is int for blk in stack)

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_strided_raster_row_equals_per_block_calls(self, size):
        # one raster row as _raster_best passes it: overlapping blocks, 8 px
        # apart, viewed into one window without a copy
        rng = np.random.default_rng(size + 1)
        cur = rng.integers(0, 256, (size, size), np.uint8)
        win = rng.integers(0, 256, (size, 5 * RASTER_STEP + size), np.uint8)
        s0, s1 = win.strides
        row = np.lib.stride_tricks.as_strided(
            win, (6, size, size), (RASTER_STEP * s1, s0, s1), writeable=False)
        want = [sad(win[:, k * RASTER_STEP : k * RASTER_STEP + size].copy(), cur)
                for k in range(6)]
        assert sad(row, cur).tolist() == want
        naive = [int(np.abs(blk.astype(np.int64) - cur.astype(np.int64)).sum()) for blk in row]
        assert want == naive


class TestMvBits:
    def test_zero_difference(self):
        assert mv_bits(MotionVector(5, -3), MotionVector(5, -3)) == 2

    def test_hand_computed_values(self):
        # per component: 1 + 2 * bitlength(|difference|)
        assert mv_bits(MotionVector(3, -1), ZERO) == (1 + 4) + (1 + 2)
        assert mv_bits(MotionVector(8, 0), ZERO) == (1 + 8) + 1


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert (cfg.search_range, cfg.lambda_) == (64, 0.0)
        assert (RASTER_STEP, REFINE_WINDOW_Q2) == (8, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(search_range=0)
        for bad in (64.0, True, "64"):
            with pytest.raises(ValueError, match="integer"):
                SearchConfig(search_range=bad)
        assert SearchConfig(search_range=np.int32(16)).search_range == 16
        # stored as a Python int, so 4 * search_range cannot overflow
        assert type(SearchConfig(search_range=np.uint8(64)).search_range) is int
        with pytest.raises(ValueError):
            SearchConfig(lambda_=-1.0)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SearchConfig(lambda_=lam)


class TestBlockGrid:
    def test_full_tiling_of_64px_faces(self):
        grid = BlockGrid(L64, 16)
        assert len(grid.blocks) == 6 * 16
        from cubemc.motion_model import block_face

        for b in grid.blocks:
            block_face(b, L64)  # raises if any block straddles

    def test_raster_order(self):
        grid = BlockGrid(L64, 16)
        keys = [(b.y0, b.x0) for b in grid.blocks]
        assert keys == sorted(keys)

    def test_32px_blocks(self):
        assert len(BlockGrid(L64, 32).blocks) == 6 * 4

    def test_partial_blocks_excluded(self):
        grid = BlockGrid(CubeLayout(40, 40), 16)
        assert len(grid.blocks) == 6 * 4  # only 2x2 of each 40px face is coverable

    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            BlockGrid(L64, 24)

    @pytest.mark.parametrize("bs", [16.0, np.float64(32), True])
    def test_non_integer_block_size_rejected(self, bs):
        # 16.0 is in BLOCK_SIZES, and range() would fail on it mid-build
        with pytest.raises(ValueError, match="block_size must be an integer"):
            BlockGrid(L64, bs)

    def test_numpy_integer_block_size_accepted(self):
        assert len(BlockGrid(L64, np.int64(16)).blocks) == 6 * 16

    @pytest.mark.parametrize("face,bs", [(64, 16), (40, 16), (72, 32), (192, 64)])
    def test_rows_group_the_blocks_by_row(self, face, bs):
        grid = BlockGrid(CubeLayout(face, face), bs)
        assert [b for row in grid.rows for b in row] == grid.blocks
        assert all(row and {b.y0 for b in row} == {row[0].y0} for row in grid.rows)
        assert [row[0].y0 for row in grid.rows] == sorted({b.y0 for b in grid.blocks})

    @pytest.mark.parametrize("face,bs", [(64, 16), (40, 16), (72, 32), (192, 64)])
    def test_above_is_the_upper_three_on_grid(self, face, bs):
        # the merge and AMVP scans reach above-left, above and above-right
        grid = BlockGrid(CubeLayout(face, face), bs)
        keys = {(b.x0, b.y0) for b in grid.blocks}
        assert set(grid.above) == keys
        for (x, y), up in grid.above.items():
            assert len(up) == len(set(up))
            assert set(up) == {(x + dx, y - bs) for dx in (-bs, 0, bs)} & keys

    def test_above_follows_the_scan_tables(self, monkeypatch):
        # read when the grid is built, so a patched scan moves the waits
        monkeypatch.setattr(motion_search, "_AMVP_OFFSETS",
                            (("X", (2, -1)), *motion_search._AMVP_OFFSETS))
        grid = BlockGrid(L64, 16)
        assert set(grid.above[0, 80]) == {(0, 64), (16, 64), (32, 64)}
        assert set(grid.above[16, 80]) == {(0, 64), (16, 64), (32, 64), (48, 64)}
        assert grid.above[0, 0] == []


class TestTzsSearch:
    def test_identical_frames_give_zero_mv(self):
        cur, _, _ = synthetic_pair()
        ref = ReferencePicture(cur, 0)
        for blk in (Block(16, 80, 16, 16), Block(96, 96, 16, 16)):
            for advanced in (False, True):
                mv, cost = tzs_search(
                    blk, cur.y, ref, [ZERO], SearchConfig(), L64, advanced=advanced
                )
                assert mv == ZERO
                assert cost == 0.0

    def test_pure_shift_recovered_with_zero_cost(self):
        cur, refp, _ = synthetic_pair()
        # make the reference an exact 3 px right shift of the current frame
        shifted = np.roll(cur.y, 3, axis=1)
        refp.frame.y[:] = shifted
        blk = Block(24, 88, 16, 16)
        mv, cost = tzs_search(blk, cur.y, refp, [ZERO], SearchConfig(), L64, advanced=False)
        assert mv == MotionVector(12, 0)
        assert cost == 0.0

    def test_cost_equals_independent_reevaluation(self):
        cur, refp, _ = synthetic_pair()
        blk = Block(8, 72, 16, 16)
        mv, cost = tzs_search(blk, cur.y, refp, [ZERO], SearchConfig(), L64, advanced=True)
        field = build_correspondence_field(blk, mv, L64)
        pred = warp_block(refp.frame.y, field)
        assert cost == float(sad(cur.y[72:88, 8:24], pred))

    def test_advanced_beats_exhaustive_translation_on_sphere_motion(self):
        cur, refp, _ = synthetic_pair(velocity=(2.0, 0.0, 0.0))
        blk = Block(8, 72, 16, 16)
        cfg = SearchConfig(search_range=8)
        mv, cost = tzs_search(blk, cur.y, refp, [ZERO], cfg, L64, advanced=True)
        cur_blk = cur.y[72:88, 8:24]
        best_trans = min(
            sad(cur_blk, fetch_block(refp.frame.y, 8 + dx, 72 + dy, 16, 16))
            for dx in range(-8, 9)
            for dy in range(-8, 9)
        )
        assert cost <= best_trans

    def test_returned_cost_never_exceeds_seeded_predictor(self):
        cur, refp, spec = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        bank = generate_dctif_bank()
        for blk in (Block(8, 72, 16, 16), Block(32, 96, 16, 16), Block(168, 104, 16, 16)):
            truth = MotionVector(int(4 * spec.velocity[0]), 0)  # rough seed, any valid works
            _, cost = tzs_search(blk, cur.y, refp, [truth], SearchConfig(), L64, bank)
            field = build_correspondence_field(blk, truth, L64)
            pred = warp_block(refp.frame.y, field, bank)
            seed_cost = float(
                sad(cur.y[blk.y0 : blk.y0 + 16, blk.x0 : blk.x0 + 16], pred)
            )
            assert cost <= seed_cost

    def test_deterministic(self):
        cur, refp, _ = synthetic_pair()
        blk = Block(40, 104, 16, 16)
        # a fresh reference per run, so the second is not served by the first's table
        runs = {
            tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [ZERO], SearchConfig(), L64)
            for _ in range(2)
        }
        assert len(runs) == 1

    def test_repeated_predictor_changes_nothing(self):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        bank = generate_dctif_bank()
        cfg = SearchConfig(lambda_=4.0)
        for blk, p in ((Block(8, 72, 16, 16), MotionVector(6, -3)),
                       (Block(168, 104, 16, 16), MotionVector(-5, 2))):
            for advanced in (False, True):
                once = tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [p], cfg, L64,
                                  bank, advanced=advanced)
                twice = tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [p, p], cfg, L64,
                                   bank, advanced=advanced)
                assert twice == once


def _search_every_block(cur, ref_frame, layout, block_size, cfg, advanced, predictors):
    """Every block's search result, against a fresh ``ReferencePicture`` of
    ``ref_frame``: no cost is served from an earlier call's table."""
    bank, refp = generate_dctif_bank(), ReferencePicture(ref_frame, 0)
    return [
        tzs_search(blk, cur.y, refp, predictors, cfg, layout, bank, advanced=advanced)
        for blk in BlockGrid(layout, block_size).blocks
    ]


class TestBatchedStageFive:
    """Batching only pre-fills the cost table: every search returns what
    one-candidate-at-a-time evaluation returns.  Each side of a comparison
    searches a fresh ``ReferencePicture``."""

    PREDICTORS = ([ZERO], [MotionVector(7, -3), MotionVector(-10, 14), ZERO])

    @pytest.mark.parametrize("block_size", [16, 32, 64])
    @pytest.mark.parametrize("advanced", [False, True])
    @pytest.mark.parametrize("lambda_", [0.0, 4.0])
    def test_same_results_as_unbatched(self, monkeypatch, block_size, advanced, lambda_):
        cur, refp, _ = synthetic_pair(velocity=(0.0, 2.0, 0.0), seed=3)
        cfg = SearchConfig(lambda_=lambda_)
        for preds in self.PREDICTORS:
            batched = _search_every_block(cur, refp.frame, L64, block_size, cfg, advanced, preds)
            with monkeypatch.context() as m:
                m.setattr(motion_search, "_batch_cap", lambda block: 1)
                single = _search_every_block(cur, refp.frame, L64, block_size, cfg, advanced,
                                             preds)
            assert batched == single

    @pytest.mark.parametrize("advanced", [False, True])
    def test_same_results_under_fast_motion(self, monkeypatch, advanced):
        # 7.5 px/frame at face 64: the integer stages fire the stage-3 raster
        cur, refp, _ = synthetic_pair(velocity=(0.0, 7.5, 0.0), seed=5)
        rasters = []
        inner = motion_search._raster_best
        monkeypatch.setattr(
            motion_search, "_raster_best", lambda *a: rasters.append(a) or inner(*a)
        )
        cfg = SearchConfig(lambda_=4.0)
        bank = generate_dctif_bank()
        for block_size in (16, 64):  # 16 candidates a batch, and pairs
            for blk in BlockGrid(L64, block_size).blocks:
                batched = tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [ZERO], cfg,
                                     L64, bank, advanced=advanced)
                with monkeypatch.context() as m:
                    m.setattr(motion_search, "_batch_cap", lambda block: 1)
                    single = tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [ZERO],
                                        cfg, L64, bank, advanced=advanced)
                assert batched == single
            assert rasters
            rasters.clear()

    def _count_builds(self, monkeypatch, block_size):
        """Run every advanced search; return (batched builds, single
        builds, advanced candidates costed)."""
        calls = {"batched": 0, "single": 0, "candidates": 0}
        batched_fn = motion_search.build_correspondence_fields
        single_fn = motion_search.build_correspondence_field

        # the rest is the layout and the stage's center lattice
        def batched(block, mvs, *rest):
            calls["batched"] += 1
            calls["candidates"] += len(mvs)
            return batched_fn(block, mvs, *rest)

        def single(block, mv, *rest):
            calls["single"] += 1
            calls["candidates"] += 1
            return single_fn(block, mv, *rest)

        monkeypatch.setattr(motion_search, "build_correspondence_fields", batched)
        monkeypatch.setattr(motion_search, "build_correspondence_field", single)
        cur, refp, _ = synthetic_pair(velocity=(0.0, 2.0, 0.0), seed=3)
        for preds in self.PREDICTORS:
            _search_every_block(cur, refp.frame, L64, block_size, SearchConfig(), True, preds)
        return calls["batched"], calls["single"], calls["candidates"]

    # 16 px: (batched builds, single builds, candidates), pinned so that a
    # search costing more speculative MVs than it reaches shows up here
    BUILDS_16PX = (663, 9, 4528)

    def test_small_blocks_are_batched(self, monkeypatch):
        batched, single, candidates = self._count_builds(monkeypatch, 16)
        print(f"16 px: {batched} batched + {single} single builds for {candidates} candidates")
        assert batched < candidates
        assert batched + single <= candidates / 2
        assert (batched, single, candidates) == self.BUILDS_16PX

    def test_cap_of_one_builds_one_candidate_per_call(self, monkeypatch):
        monkeypatch.setattr(motion_search, "_batch_cap", lambda block: 1)
        for block_size in (16, 64):
            batched, single, candidates = self._count_builds(monkeypatch, block_size)
            assert batched == 0 and single == candidates

    def test_large_blocks_are_costed_in_pairs(self, monkeypatch):
        # 4096 pixels' worth, but never fewer than two candidates
        assert [motion_search._batch_cap(Block(0, 0, n, n)) for n in (16, 32, 64)] == [16, 4, 2]
        batched, single, candidates = self._count_builds(monkeypatch, 64)
        assert candidates == 2 * batched + single
        assert batched > single

    # per block size: (put_batch calls, MVs costed, MVs costed that no
    # search ranks), over test_each_batch_holds_valid_uncosted_mvs's searches
    SPECULATION = {16: (672, 4528, 772), 64: (518, 1010, 39)}

    @pytest.mark.parametrize("face,block_size", [(64, 16), (128, 64)])
    def test_each_batch_holds_valid_uncosted_mvs(self, monkeypatch, face, block_size):
        # every batch holds at most the cap of distinct MVs, each valid, not
        # in the table yet, and a seed or within the window of the anchor
        layout, cfg = CubeLayout(face, face), SearchConfig()
        prev, cur = generate_synthetic(SyntheticSpec(face, 2, (0.0, 2.0, 0.0), seed=3))
        search = {"n": 0, "calls": 0}  # searches and batches so far, the seeds and anchor
        costed, ranked = set(), set()  # (search, mv)
        lattice = motion_search.center_lattice
        put_batch = motion_search._CostTable.put_batch

        def center_lattice(block, anchor, *rest):  # once per advanced search
            search.update(n=search["n"] + 1, anchor=anchor,
                          seeds={anchor, *search["predictors"]})
            return lattice(block, anchor, *rest)

        def spy_batch(table, mvs, *rest):
            assert 0 < len(mvs) <= motion_search._batch_cap(table.block)
            assert len(set(mvs)) == len(mvs)
            valid, a = motion_search._mv_check(table.block, cfg, layout), search["anchor"]
            for mv in mvs:
                assert (True, mv) not in table and valid(mv)
                assert mv in search["seeds"] or (abs(mv.dx_q2 - a.dx_q2) <= REFINE_WINDOW_Q2
                                                 and abs(mv.dy_q2 - a.dy_q2) <= REFINE_WINDOW_Q2)
            costed.update((search["n"], mv) for mv in mvs)
            search["calls"] += 1
            return put_batch(table, mvs, *rest)

        def spy_read(table, key):
            if key[0]:
                ranked.add((search["n"], key[1]))
            return dict.__getitem__(table, key)

        monkeypatch.setattr(motion_search, "center_lattice", center_lattice)
        monkeypatch.setattr(motion_search._CostTable, "put_batch", spy_batch)
        monkeypatch.setattr(motion_search._CostTable, "__getitem__", spy_read)
        for preds in self.PREDICTORS:
            search["predictors"], refp = preds, ReferencePicture(prev, 0)
            for blk in BlockGrid(layout, block_size).blocks:
                tzs_search(blk, cur.y, refp, preds, cfg, layout)
        assert ranked <= costed
        counts = search["calls"], len(costed), len(costed - ranked)
        print(f"{block_size} px: {counts[0]} calls, {counts[1]} MVs costed, {counts[2]} unranked")
        assert counts == self.SPECULATION[block_size]


class TestRasterBound:
    """The stage-3 raster visits only offsets whose block center lands on
    the canvas, so its cost follows the canvas, not the search range."""

    def test_wide_ranges_agree_and_cost_the_canvas(self, monkeypatch):
        cur, refp, _ = synthetic_pair(velocity=(0.0, 7.5, 0.0), seed=5)
        calls, rasters, fetches, gathered = [], [], [], []
        for owner, name, log in ((motion_search, "face_of", calls),
                                 (motion_search, "_raster_best", rasters),
                                 (motion_search, "fetch_block", fetches),
                                 (search_rounds.Searches, "_windows", gathered)):
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _f=inner, _log=log: _log.append(a) or _f(*a))
        blk = Block(16, 64, 16, 16)
        results, counts = {}, {}
        for r in (1024, 4096):
            for log in (calls, rasters, fetches, gathered):
                log.clear()
            results[r] = tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), [ZERO],
                                    SearchConfig(search_range=r), L64, advanced=False)
            # moved centers checked, over the array calls and the scalar ones
            counts[r] = sum(np.size(x) for x, *_ in calls)
            assert len(rasters) == 1
        assert results[1024] == results[4096]
        # the raster's one window covers the canvas at most, whatever the
        # range: at r = 4096 the full lattice would span 8192 + 16 px
        assert max(w for *_, w, _ in fetches) <= L64.canvas_width + blk.width
        assert max(h for *_, h in fetches) <= L64.canvas_height + blk.height
        # the rounds read block windows at valid offsets only, so even at
        # r = 4096 every window starts within a block of the canvas
        for _, x, y in gathered:
            assert -blk.width < x.min() and x.max() < L64.canvas_width
            assert -blk.height < y.min() and y.max() < L64.canvas_height
        # the two extra stage-2 rings of r = 4096 add 16 checks
        assert counts[4096] - counts[1024] == 16


class TestRasterKernel:
    """Stage 3 is one array kernel, ``_raster_best``.  It returns what the
    offset-by-offset raster ranked best: the lowest ``_mv_key`` over the
    offsets ``_raster`` yields that pass ``_mv_check``, each costed as the
    SAD of its own ``fetch_block``."""

    @staticmethod
    def oracle(plane, cur, block, layout, r):
        valid = motion_search._mv_check(block, SearchConfig(search_range=r), layout)
        cx, cy = block.center
        cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
        best_key, best = None, None
        for dy in motion_search._raster(cy, layout.canvas_height, r):
            for dx in motion_search._raster(cx, layout.canvas_width, r):
                mv = MotionVector(4 * dx, 4 * dy)
                if valid(mv):
                    cost = sad(cur_blk, fetch_block(plane, block.x0 + dx, block.y0 + dy,
                                                    block.width, block.height))
                    key = motion_search._mv_key(cost, mv.dx_q2, mv.dy_q2)
                    if best_key is None or key < best_key:
                        best_key, best = key, (mv, cost)
        return best

    @staticmethod
    def kernel(plane, cur, block, layout, r, ranges=None):
        """``_raster_best`` over ``ranges``, by default the ``_raster`` of r."""
        cx, cy = block.center
        dxs, dys = ranges or (motion_search._raster(cx, layout.canvas_width, r),
                              motion_search._raster(cy, layout.canvas_height, r))
        cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
        return motion_search._raster_best(block, cur_blk, plane, layout, dxs, dys)

    @staticmethod
    def pictures(layout, levels, seed):
        """A reference and a current picture; few levels make SAD ties."""
        rng = np.random.default_rng(seed)
        shape = (layout.canvas_height, layout.canvas_width)
        return (rng.integers(0, levels, shape, dtype=np.uint8),
                rng.integers(0, levels, shape, dtype=np.uint8))

    @given(data=st.data())
    def test_matches_scalar_oracle(self, data):
        layout = CubeLayout(64, 64)
        bs = data.draw(st.sampled_from([16, 32, 64]), label="block size")
        r = data.draw(st.sampled_from([8, 20, 64, 1024]), label="r")
        # flush with an edge half the time, so the window often straddles it
        x0 = data.draw(st.one_of(st.sampled_from([0, layout.canvas_width - bs]),
                                 st.integers(0, layout.canvas_width - bs)), label="x0")
        y0 = data.draw(st.one_of(st.sampled_from([0, layout.canvas_height - bs]),
                                 st.integers(0, layout.canvas_height - bs)), label="y0")
        levels = data.draw(st.sampled_from([1, 2, 256]), label="levels")
        plane, cur = self.pictures(layout, levels, data.draw(st.integers(0, 2**32 - 1)))
        block = Block(x0, y0, bs, bs)
        assert (self.kernel(plane, cur, block, layout, r)
                == self.oracle(plane, cur, block, layout, r))

    # one block flush with each canvas edge, and the window edge that crosses it
    EDGES = {"left": ((0, 80), lambda x, y, w, h, cw, ch: x < 0),
             "right": ((224, 80), lambda x, y, w, h, cw, ch: x + w > cw),
             "top": ((16, 0), lambda x, y, w, h, cw, ch: y < 0),
             "bottom": ((16, 160), lambda x, y, w, h, cw, ch: y + h > ch)}

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_window_straddles_each_edge(self, monkeypatch, edge):
        (x0, y0), crosses = self.EDGES[edge]
        plane, cur = self.pictures(L64, 256, 7)
        block = Block(x0, y0, 32, 32)
        fetches = []
        inner = motion_search.fetch_block
        monkeypatch.setattr(motion_search, "fetch_block",
                            lambda *a: fetches.append(a) or inner(*a))
        got = self.kernel(plane, cur, block, L64, 64)
        (_, x, y, w, h), = fetches
        assert crosses(x, y, w, h, L64.canvas_width, L64.canvas_height)
        assert got is not None and got == self.oracle(plane, cur, block, L64, 64)

    def test_ties_break_by_length_then_dy_then_dx(self):
        # flat pictures but one reference pixel, read only by offsets with
        # dx and dy both negative: (4, -4), (-4, 4) and (4, 4) tie at SAD 0
        # and length, and the smaller dy wins, as in ``_mv_key``
        block = Block(16, 80, 16, 16)
        plane, cur = np.zeros((2, L64.canvas_height, L64.canvas_width), np.uint8)
        plane[block.y0 - 4, block.x0 - 4] = 9
        expected = (MotionVector(16, -16), 0)
        assert self.oracle(plane, cur, block, L64, 20) == expected
        assert self.kernel(plane, cur, block, L64, 20) == expected

    def test_empty_ranges_and_no_valid_offset(self, monkeypatch):
        plane, cur = self.pictures(L64, 256, 7)
        fetches = []
        inner = motion_search.fetch_block
        monkeypatch.setattr(motion_search, "fetch_block",
                            lambda *a: fetches.append(a) or inner(*a))
        block = Block(16, 80, 16, 16)
        for ranges in ((range(0), range(-8, 9, 8)), (range(-8, 9, 8), range(0))):
            assert self.kernel(plane, cur, block, L64, 8, ranges) is None
        # a block in the corner hole right of the top face: at r = 8 every
        # moved center stays in the hole
        hole = Block(80, 16, 16, 16)
        assert self.kernel(plane, cur, hole, L64, 8) is None
        assert self.oracle(plane, cur, hole, L64, 8) is None
        assert not fetches

    def test_both_searches_share_one_kernel_run(self, monkeypatch):
        # 7.5 px/frame at face 64: the raster fires, in both searches of some
        # blocks; each search alone, on a reference of its own, shows which
        cur, refp, _ = synthetic_pair(velocity=(0.0, 7.5, 0.0), seed=5)
        runs = []
        run = motion_search._raster_best
        monkeypatch.setattr(motion_search, "_raster_best", lambda *a: runs.append(a) or run(*a))
        grid, cfg, bank = BlockGrid(L64, 16), SearchConfig(lambda_=4.0), generate_dctif_bank()
        shared = 0
        for blk in grid.blocks:
            alone = []
            for preds, advanced in (([ZERO], False), ([amvp_predictor(grid, blk, L64)], True)):
                runs.clear()
                tzs_search(blk, cur.y, ReferencePicture(refp.frame, 0), preds, cfg, L64,
                           advanced=advanced)
                alone.append(len(runs))
            runs.clear()
            mode_decide(blk, cur.y, refp, grid, cfg, L64, bank)
            assert len(runs) == min(sum(alone), 1)
            shared += alone == [1, 1]
        assert shared > 0


class TestTranslationalWindow:
    """The translational stage 5 filters one quarter-pel window per search;
    only fractional seeds outside it are warped one at a time (an integer
    seed is read from the integer stages' entries of the cost table)."""

    FRACTIONAL_SEEDS = ([MotionVector(1, -2)],
                        [MotionVector(7, -3), MotionVector(-10, 14), MotionVector(3, 1)])

    @pytest.mark.parametrize("predictors", FRACTIONAL_SEEDS)
    def test_one_window_per_search(self, monkeypatch, predictors):
        # 7.5 px/frame: some integer winners lie far from the zero seed
        cur, refp, _ = synthetic_pair(velocity=(0.0, 7.5, 0.0), seed=5)
        windows, warped = [], []
        build, warp = search_rounds.phase_planes, motion_search.warp_block

        def counted_build(*args):
            windows.append(args)
            return build(*args)

        def counted_warp(plane, field, bank=None):
            warped.append(field)
            return warp(plane, field, bank)

        monkeypatch.setattr(search_rounds, "phase_planes", counted_build)
        monkeypatch.setattr(motion_search, "warp_block", counted_warp)
        bank = generate_dctif_bank()
        out_of_window = 0
        for blk in BlockGrid(L64, 16).blocks:
            windows.clear()
            warped.clear()
            tzs_search(blk, cur.y, refp, predictors, SearchConfig(), L64, bank, advanced=False)
            assert len(windows) == 1
            # the window starts 2 px up and left of the integer winner
            _, x, y, width, height, *_ = windows[0]
            assert (width, height) == (16 + 4, 16 + 4)
            anchor = (4 * (x + 2 - blk.x0), 4 * (y + 2 - blk.y0))
            for field in warped:
                mv = MotionVector((int(field.rx_q6[0, 0]) - 64 * blk.x0) // 16,
                                  (int(field.ry_q6[0, 0]) - 64 * blk.y0) // 16)
                assert mv in predictors
                assert max(abs(mv.dx_q2 - anchor[0]), abs(mv.dy_q2 - anchor[1])) > REFINE_WINDOW_Q2
            assert len(warped) <= len(predictors)
            out_of_window += len(warped)
        assert out_of_window > 0


class TestAdvancedRowBank:
    """The advanced stage 5 reads pass 1 of every warp from one row bank
    per search, freed when the search returns.  Over a face-128 clip of
    64-px blocks, ``warp_block`` runs only for what is costed before or
    without a bank: a merge MV that the AMVP search did not cost
    (``mode_decide`` costs the merge MV after the search) and translational
    seeds outside their quarter-pel window."""

    def test_search_warps_go_through_the_bank(self, monkeypatch):
        layout = CubeLayout(128, 128)
        spec = SyntheticSpec(face_width=128, frames=2, velocity=(1.0, 2.0, 0.0), seed=2)
        prev, cur = generate_synthetic(spec)
        refp, grid, bank = ReferencePicture(prev, 0), BlockGrid(layout, 64), generate_dctif_bank()
        cfg = SearchConfig(lambda_=4.0)
        searching, gathered, banked = [], [], []
        search, warp, through = (motion_search.tzs_search, motion_search.warp_block,
                                 motion_search.warp_rows)

        def spied_search(blk, cur_y, ref, predictors, *args, advanced=True, **kwargs):
            searching.append(advanced)
            try:
                return search(blk, cur_y, ref, predictors, *args, advanced=advanced, **kwargs)
            finally:
                searching.pop()
                # no stage state survives the search on the shared table
                table = ref.costs(blk, cur_y, layout)
                assert set(vars(table)) == {"block", "cur", "plane", "layout", "cur_blk"}

        def spied_warp(plane, field, bank=None):
            gathered.append((searching[-1] if searching else None, field))
            return warp(plane, field, bank)

        def spied_through(plane, rows, field):
            banked.append(searching[-1] if searching else None)
            return through(plane, rows, field)

        monkeypatch.setattr(motion_search, "tzs_search", spied_search)
        monkeypatch.setattr(motion_search, "warp_block", spied_warp)
        monkeypatch.setattr(motion_search, "warp_rows", spied_through)
        merges = seeds = 0
        far = MotionVector(-37, 23)  # a fractional seed, outside most windows
        for blk in grid.blocks:
            gathered.clear()
            merge_mv = merge_candidate(grid, blk, layout)
            trans = motion_search.tzs_search(blk, cur.y, refp, [ZERO, far], cfg, layout, bank,
                                             advanced=False)
            mode_decide(blk, cur.y, refp, grid, cfg, layout, bank, trans_result=trans)
            for context, field in gathered:
                assert context is not True  # no gather inside an advanced search
                if context is None:  # a merge MV the search did not cost
                    merges += 1
                    want = build_correspondence_field(blk, merge_mv, layout)
                    np.testing.assert_array_equal(field.rx_q6, want.rx_q6)
                    np.testing.assert_array_equal(field.ry_q6, want.ry_q6)
                else:  # the fractional translational seed
                    seeds += 1
                    want = translational_field(blk, far)
                    np.testing.assert_array_equal(field.rx_q6, want.rx_q6)
                    np.testing.assert_array_equal(field.ry_q6, want.ry_q6)
        assert merges > 0 and seeds > 0
        assert set(banked) == {True}
        assert len(banked) >= len(grid.blocks)


def spy_costing(monkeypatch) -> list:
    """Record every fetch, warp and row-bank warp that costs a search MV."""
    calls = []
    for name in ("fetch_block", "warp_block", "warp_rows"):
        inner = getattr(motion_search, name)
        monkeypatch.setattr(motion_search, name, lambda *a, _f=inner: calls.append(a) or _f(*a))
    return calls


class TestCostTable:
    """One ``ReferencePicture`` keeps the cost table of the block costed
    last; a table is never served to a different block, ``cur`` array or
    layout.  The bank is not part of the key: a search takes only the
    package's one bank."""

    CFG = SearchConfig(lambda_=4.0)
    A, B = Block(8, 72, 16, 16), Block(168, 104, 16, 16)

    def search(self, blk, cur, refp, advanced, layout=L64, bank=None):
        preds = [MotionVector(6, -3), ZERO]
        return tzs_search(blk, cur, refp, preds, self.CFG, layout, bank, advanced=advanced)

    @pytest.mark.parametrize("advanced", [False, True])
    def test_returning_to_a_block_gives_fresh_results(self, advanced):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        shared = [self.search(blk, cur.y, refp, advanced) for blk in (self.A, self.B, self.A)]
        fresh = [self.search(blk, cur.y, ReferencePicture(refp.frame, 0), advanced)
                 for blk in (self.A, self.B, self.A)]
        assert shared == fresh

    @pytest.mark.parametrize("change", ["cur", "cur-copy", "layout"])
    @pytest.mark.parametrize("advanced", [False, True])
    def test_other_key_is_never_served(self, monkeypatch, change, advanced):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        other = {"cur": cur.y, "layout": L64}
        if change == "cur":  # other pixels in the block
            other["cur"] = np.roll(cur.y, 5, axis=1)
        elif change == "cur-copy":  # the same pixels in another array
            other["cur"] = cur.y.copy()
        else:
            other["layout"] = CubeLayout(60, 60)
        calls = spy_costing(monkeypatch)

        def costed(ref):
            calls.clear()
            result = self.search(self.A, other["cur"], ref, advanced, other["layout"])
            return result, len(calls)

        self.search(self.A, cur.y, refp, advanced)
        # after the first search the table holds block A under the first key;
        # a search under the other key costs every candidate again
        assert costed(refp) == costed(ReferencePicture(refp.frame, 0))
        assert calls

    @pytest.mark.parametrize("advanced", [False, True])
    def test_equal_bank_copy_is_served_from_the_same_table(self, monkeypatch, advanced):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        first = self.search(self.A, cur.y, refp, advanced)
        calls = spy_costing(monkeypatch)
        copy = generate_dctif_bank().copy()
        assert self.search(self.A, cur.y, refp, advanced, bank=copy) == first
        assert not calls

    def test_same_key_is_served(self, monkeypatch):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        first = self.search(self.A, cur.y, refp, True)
        calls = []
        inner = motion_search.warp_block
        monkeypatch.setattr(motion_search, "warp_block",
                            lambda *a: calls.append(a) or inner(*a))
        assert self.search(self.A, cur.y, refp, True) == first
        assert not calls

    def test_advanced_entries_are_written_only_by_put_batch(self, monkeypatch):
        # one process, so the spies see every block of the run
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        put_keys, batch_sizes = [], []
        put, put_batch = motion_search._CostTable.put, motion_search._CostTable.put_batch
        monkeypatch.setattr(motion_search._CostTable, "put",
                            lambda self, key, pred: put_keys.append(key) or put(self, key, pred))
        monkeypatch.setattr(motion_search._CostTable, "put_batch",
                            lambda self, mvs, *a: batch_sizes.append(len(mvs))
                            or put_batch(self, mvs, *a))
        run_eval(EvalConfig(input="synthetic", face_size=32, synth_frames=3,
                            synth_velocity=(1.0, 0.5, 0.0)))
        assert put_keys and not any(advanced for advanced, _ in put_keys)
        # lone MVs and speculative batches alike
        assert 1 in batch_sizes and max(batch_sizes) > 1


def foreign_bank():
    """The package's bank with phase 16 mirrored: a valid-looking bank
    whose warps differ from the package's."""
    bank = generate_dctif_bank().copy()
    bank[16] = bank[16][::-1].copy()
    return bank


class TestOneBank:
    """``tzs_search`` and ``mode_decide`` keep a ``bank`` parameter for
    callers that pass the package's bank positionally.  It takes None or
    an array equal to ``generate_dctif_bank()``; any other raises
    ``ValueError``, and an equal copy is the default bank, served from the
    same cost table (``TestCostTable`` checks this for ``tzs_search``)."""

    BLOCK = Block(8, 72, 16, 16)

    @pytest.mark.parametrize("advanced", [False, True])
    def test_search_rejects_a_foreign_bank(self, advanced):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        with pytest.raises(ValueError, match="bank"):
            tzs_search(self.BLOCK, cur.y, refp, [ZERO], SearchConfig(), L64, foreign_bank(),
                       advanced=advanced)

    def test_mode_decide_rejects_a_foreign_bank(self):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 1.0, 0.0), seed=4)
        grid = BlockGrid(L64, 16)
        with pytest.raises(ValueError, match="bank"):
            mode_decide(self.BLOCK, cur.y, refp, grid, SearchConfig(), L64, foreign_bank())
        assert not grid.records

    def test_mode_decide_with_an_equal_copy_decides_from_the_same_table(self, monkeypatch):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 2.0, 0.0), seed=3)
        cfg, copy = SearchConfig(lambda_=4.0), generate_dctif_bank().copy()
        default, copied = BlockGrid(L64, 16), BlockGrid(L64, 16)
        for blk in default.blocks:
            mode_decide(blk, cur.y, refp, default, cfg, L64)
            with monkeypatch.context() as m:
                calls = spy_costing(m)
                mode_decide(blk, cur.y, refp, copied, cfg, L64, copy)
            assert not calls
        assert copied.records == default.records


class TestValidityChecks:
    """The array rounds check each round's MVs in one array ``face_of``
    call, a stage-3 raster its whole grid in one, and the advanced stage 5
    one MV per read (a scalar call).  The calls over every block of a fixed
    clip, both models and both lambdas, are pinned, so a check repeated per
    read, per round or per stage shows up here before it shows up in the
    timings."""

    FACE_OF_CALLS = 11570

    def test_face_of_calls_pinned(self, monkeypatch):
        cur, refp, _ = synthetic_pair(velocity=(1.0, 2.0, 0.0), seed=3)
        bank = generate_dctif_bank()
        grids = {lam: BlockGrid(L64, 16) for lam in (0.0, 4.0)}  # built before the count
        calls = []
        inner = motion_search.face_of
        monkeypatch.setattr(motion_search, "face_of", lambda *a: calls.append(a) or inner(*a))
        for lam, grid in grids.items():
            cfg = SearchConfig(lambda_=lam)
            for blk in grid.blocks:
                trans = tzs_search(blk, cur.y, refp, [ZERO], cfg, L64, bank, advanced=False)
                mode_decide(blk, cur.y, refp, grid, cfg, L64, bank, trans_result=trans)
        assert {r.mode for g in grids.values() for r in g.records.values()} == set(PredMode)
        assert len(calls) == self.FACE_OF_CALLS


class TestTranslationalGolden:
    """Every block's translational ``(mv, cost)``, pinned on the code that
    filtered each quarter-pel candidate with its own warp."""

    GOLDEN = [
        # face, block, velocity, lambda, blocks, SHA-256 of "dx,dy,cost" lines
        (64, 16, (0.0, 2.0, 0.0), 0.0, 96,
         "bda044af79834adc76446b073d8ffddb3eaf8cc9812dc3ffd19a1e43e3fe5ac6"),
        (128, 32, (0.0, 12.0, 0.0), 4.0, 96,
         "a5806daf160ae6efb6b4727d52f41fbfbfc745a3d878a6279383ae9e728d761f"),
        (128, 64, (0.0, 2.0, 0.0), 0.0, 24,
         "d46c71d333307a9135727e80a556da383f7ddf05f950280eaff9399b32f769ca"),
    ]

    @pytest.mark.parametrize(
        "face,block_size,velocity,lambda_,blocks,digest", GOLDEN,
        ids=["16px-lambda0", "32px-fast-lambda4", "64px-face128"],
    )
    def test_every_block_pinned(self, face, block_size, velocity, lambda_, blocks, digest):
        spec = SyntheticSpec(face_width=face, frames=2, velocity=velocity, seed=1)
        prev, cur = generate_synthetic(spec)
        layout = CubeLayout(face, face)
        results = _search_every_block(
            cur, prev, layout, block_size,
            SearchConfig(lambda_=lambda_), False, [ZERO],
        )
        assert len(results) == blocks
        if velocity[1] > 10:
            # the winner lies more than 4 px from zero, so its integer
            # anchor is more than 2 px away: the zero seed is costed
            # outside the anchor's quarter-pel window
            assert any(abs(mv.dy_q2) > 4 * 4 for mv, _ in results)
        text = "\n".join(f"{mv.dx_q2},{mv.dy_q2},{cost!r}" for mv, cost in results)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestMergeCandidate:
    def setup_method(self):
        self.grid = BlockGrid(L64, 16)

    def put(self, x0, y0, mode, mv):
        self.grid.records[(x0, y0)] = BlockRecord(mode, mv, 0.0)

    def test_empty_grid_gives_none(self):
        assert merge_candidate(self.grid, Block(32, 96, 16, 16), L64) is None

    def test_translational_neighbors_skipped(self):
        self.put(16, 96, PredMode.TRANS, MotionVector(16, 0))
        assert merge_candidate(self.grid, Block(32, 96, 16, 16), L64) is None

    def test_zero_mv_neighbors_skipped(self):
        self.put(16, 96, PredMode.ADV_AMVP, ZERO)
        assert merge_candidate(self.grid, Block(32, 96, 16, 16), L64) is None

    def test_left_neighbor_transported(self):
        blk = Block(32, 96, 16, 16)
        nb = Block(16, 96, 16, 16)
        self.put(16, 96, PredMode.ADV_AMVP, MotionVector(16, 0))
        want = transport_mv_predictor(nb.center, MotionVector(16, 0), blk.center, L64)
        got = merge_candidate(self.grid, blk, L64)
        assert got == want
        assert got != ZERO

    def test_scan_order_prefers_left_over_above(self):
        blk = Block(32, 96, 16, 16)
        self.put(16, 96, PredMode.ADV_MERGE, MotionVector(8, 0))   # A
        self.put(32, 80, PredMode.ADV_AMVP, MotionVector(0, 8))    # B
        nb = Block(16, 96, 16, 16)
        assert merge_candidate(self.grid, blk, L64) == transport_mv_predictor(
            nb.center, MotionVector(8, 0), blk.center, L64
        )

    def test_falls_through_to_above_when_left_missing(self):
        blk = Block(32, 96, 16, 16)
        self.put(32, 80, PredMode.ADV_AMVP, MotionVector(0, 8))
        nb = Block(32, 80, 16, 16)
        assert merge_candidate(self.grid, blk, L64) == transport_mv_predictor(
            nb.center, MotionVector(0, 8), blk.center, L64
        )

    def test_candidate_that_rounds_to_zero_is_skipped(self):
        # this above-left neighbor's tiny MV provably transports to (0,0)
        # at the current center, so it must not become a candidate
        blk = Block(208, 80, 16, 16)
        nb = Block(192, 64, 16, 16)
        assert transport_mv_predictor(
            nb.center, MotionVector(-1, -1), blk.center, L64
        ) == ZERO
        self.put(192, 64, PredMode.ADV_AMVP, MotionVector(-1, -1))
        assert merge_candidate(self.grid, blk, L64) is None


class TestAmvpPredictor:
    def setup_method(self):
        self.grid = BlockGrid(L64, 16)

    def put(self, x0, y0, mv):
        self.grid.records[(x0, y0)] = BlockRecord(PredMode.TRANS, mv, 0.0)

    def test_no_neighbors_gives_zero(self):
        got = amvp_predictor(self.grid, Block(32, 96, 16, 16), L64)
        assert got == ZERO

    def test_left_neighbor_same_ref_transported_unscaled(self):
        blk = Block(32, 96, 16, 16)
        nb = Block(16, 96, 16, 16)
        self.put(16, 96, MotionVector(16, 0))
        want = transport_mv_predictor(nb.center, MotionVector(16, 0), blk.center, L64)
        assert amvp_predictor(self.grid, blk, L64) == want

    def test_below_left_scanned_first(self):
        blk = Block(32, 96, 16, 16)
        self.put(16, 112, MotionVector(0, 8))   # A0, below-left
        self.put(16, 96, MotionVector(8, 0))    # A1, left
        nb = Block(16, 112, 16, 16)
        want = transport_mv_predictor(nb.center, MotionVector(0, 8), blk.center, L64)
        assert amvp_predictor(self.grid, blk, L64) == want

    def test_zero_mv_neighbor_still_used(self):
        self.put(16, 96, ZERO)
        got = amvp_predictor(self.grid, Block(32, 96, 16, 16), L64)
        assert got == ZERO


class TestModeDecide:
    def test_static_scene_picks_trans_zero(self):
        cur, _, _ = synthetic_pair(velocity=(1.0, 0.0, 0.0))
        refp = ReferencePicture(cur, 0)
        grid = BlockGrid(L64, 16)
        cfg = SearchConfig()
        for blk in grid.blocks[:12]:
            rec = mode_decide(blk, cur.y, refp, grid, cfg, L64)
            assert rec.mode is PredMode.TRANS
            assert rec.mv == ZERO
            assert rec.cost == 0.0
            assert grid.records[blk.x0, blk.y0] is rec

    def test_advanced_cost_never_above_translational(self):
        cur, refp, _ = synthetic_pair(velocity=(2.0, 0.0, 0.0))
        grid = BlockGrid(L64, 16)
        cfg = SearchConfig()
        bank = generate_dctif_bank()
        for blk in grid.blocks:
            mv_t, cost_t = tzs_search(
                blk, cur.y, refp, [ZERO], cfg, L64, bank,
                advanced=False, pred_for_bits=ZERO,
            )
            rec = mode_decide(
                blk, cur.y, refp, grid, cfg, L64, bank, trans_result=(mv_t, cost_t)
            )
            assert rec.cost <= cost_t

    def test_precomputed_translational_result_changes_nothing(self):
        # the evaluator hands mode_decide the translational search it already
        # ran; over a whole frame in raster order that must decide the same
        cur, refp, _ = synthetic_pair(velocity=(2.0, 0.0, 0.0))
        cfg = SearchConfig(lambda_=4.0)
        bank = generate_dctif_bank()
        own, shared = BlockGrid(L64, 16), BlockGrid(L64, 16)
        # one reference per side, so neither side reads the other's cost table
        ref_own, ref_shared = ReferencePicture(refp.frame, 0), ReferencePicture(refp.frame, 0)
        for blk in own.blocks:
            trans = tzs_search(
                blk, cur.y, ref_shared, [ZERO], cfg, L64, bank,
                advanced=False, pred_for_bits=ZERO,
            )
            a = mode_decide(blk, cur.y, ref_own, own, cfg, L64, bank)
            b = mode_decide(blk, cur.y, ref_shared, shared, cfg, L64, bank, trans_result=trans)
            assert a == b
        assert own.records == shared.records
        assert {rec.mode for rec in own.records.values()} == set(PredMode)

    def test_merge_cost_carries_no_mv_bits(self):
        cur, refp, _ = synthetic_pair(velocity=(2.0, 0.0, 0.0))
        bank = generate_dctif_bank()
        blk = Block(32, 96, 16, 16)
        nb = Block(16, 96, 16, 16)
        # find the block's own best advanced MV, then plant its reverse
        # transport on the left neighbor so the merge candidate lands on
        # (or next to) that optimum
        best_mv, _ = tzs_search(blk, cur.y, refp, [ZERO], SearchConfig(), L64, bank)
        nb_mv = transport_mv_predictor(blk.center, best_mv, nb.center, L64)
        assert nb_mv != ZERO
        grid = BlockGrid(L64, 16)
        grid.records[(16, 96)] = BlockRecord(PredMode.ADV_AMVP, nb_mv, 0.0)
        cand = merge_candidate(grid, blk, L64)
        assert cand is not None
        # a large lambda makes every coded MV expensive; merge sends none,
        # so it must win and its recorded cost must be the bare SAD
        cfg = SearchConfig(lambda_=100.0)
        rec = mode_decide(blk, cur.y, refp, grid, cfg, L64, bank)
        assert rec.mode is PredMode.ADV_MERGE
        assert rec.mv == cand
        field = build_correspondence_field(blk, rec.mv, L64)
        pred = warp_block(refp.frame.y, field, bank)
        assert rec.cost == float(sad(cur.y[96:112, 32:48], pred))
