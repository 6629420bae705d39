"""Tests for the array rounds of the zone search (``search_rounds``).

The oracle is the one-at-a-time search the rounds replaced: stages 1-4
check each integer MV with ``_mv_check``, fetch it with ``fetch_block``
and rank it alone, stage 3 walks the raster offset by offset, and stage 5
warps each quarter-pel candidate on its own, through its translational
field or its correspondence field.  The engine must return exactly what
it returns, for one block or many at once, a row plan exactly what
per-block searches return, and the advanced search with its speculative
batches exactly what the advanced oracle returns.
"""

import contextlib
import io
import json
import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemc import cli, motion_search, search_rounds
from cubemc.frame_io import SyntheticSpec, generate_synthetic
from cubemc.geometry import NO_FACE, CubeLayout, face_of
from cubemc.interp import fetch_block, warp_block
from cubemc.motion_model import (
    Block,
    MotionVector,
    block_face,
    build_correspondence_field,
    round_half_away,
    translational_field,
)
from cubemc.motion_search import (
    REFINE_WINDOW_Q2,
    BlockGrid,
    ReferencePicture,
    SearchConfig,
    mv_bits,
    sad,
    tzs_search,
)

ZERO = MotionVector(0, 0)


def oracle_raster(block, cur_blk, plane, layout, r, valid):
    """Stage 3 offset by offset: the lowest key over the valid raster MVs."""
    cx, cy = block.center
    best = None
    for dy in motion_search._raster(cy, layout.canvas_height, r):
        for dx in motion_search._raster(cx, layout.canvas_width, r):
            mv = MotionVector(4 * dx, 4 * dy)
            if valid(mv):
                cost = sad(cur_blk, fetch_block(plane, block.x0 + dx, block.y0 + dy,
                                                block.width, block.height))
                if best is None or motion_search._mv_key(cost, *mv) < motion_search._mv_key(
                        best[1], *best[0]):
                    best = mv, cost
    return best


def oracle_integer(block, cur, plane, predictors, cfg, layout, path=None):
    """Stages 1-4 of the one-at-a-time search: the integer winner.  ``path``,
    a dict when given, receives where stage 2 stopped, whether stage 3 ran
    and how many stage-4 loops ran."""
    valid = motion_search._mv_check(block, cfg, layout)
    cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
    state = {"best": None, "key": motion_search._WORST_KEY}

    def rank(mv, cost):
        key = motion_search._mv_key(cost, mv.dx_q2, mv.dy_q2)
        if key < state["key"]:
            state.update(best=mv, key=key)
            return True
        return False

    def try_int(mv):
        if not valid(mv):
            return False
        pred = fetch_block(plane, block.x0 + mv.dx_q2 // 4, block.y0 + mv.dy_q2 // 4,
                           block.width, block.height)
        return rank(mv, sad(cur_blk, pred))

    def try_ring(center, axis, diag):
        return any([try_int(mv) for mv in motion_search._ring(center, 4 * axis, 4 * diag)])

    for p in [ZERO, *predictors]:
        try_int(MotionVector(4 * int(round_half_away(p.dx_q2 / 4.0)),
                             4 * int(round_half_away(p.dy_q2 / 4.0))))
    if state["best"] is None:
        raise ValueError("no valid motion")
    anchor, best_dist, d = state["best"], 0, 1
    while d <= cfg.search_range:
        if try_ring(anchor, d, d // 2):
            best_dist = d
        if d >= 2 and best_dist <= 1:
            break
        d *= 2
    if best_dist > 5:
        hit = oracle_raster(block, cur_blk, plane, layout, cfg.search_range, valid)
        if hit is not None:
            rank(*hit)
    loops = 0
    while try_ring(state["best"], 1, 0) or try_ring(state["best"], 2, 1):
        loops += 1
    if path is not None:
        path.update(stop=d, best_dist=best_dist, loops=loops)
    return state["best"]


def oracle_translational(block, cur, plane, predictors, cfg, layout):
    """The whole translational search, stage 5 warping each candidate alone."""
    return oracle_search(block, cur, plane, predictors, cfg, layout,
                         lambda mv: translational_field(block, mv))


def oracle_advanced(block, cur, plane, predictors, cfg, layout):
    """The whole advanced search, stage 5 building each candidate's
    correspondence field and warping it alone."""
    return oracle_search(block, cur, plane, predictors, cfg, layout,
                         lambda mv: build_correspondence_field(block, mv, layout))


def oracle_search(block, cur, plane, predictors, cfg, layout, field_of):
    """Stages 1-4, then stage 5 one MV at a time, each valid MV costed by
    warping ``field_of(mv)`` alone."""
    anchor = oracle_integer(block, cur, plane, predictors, cfg, layout)
    valid = motion_search._mv_check(block, cfg, layout)
    cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
    pred_for_bits = predictors[0] if predictors else ZERO
    state = {"best": None, "key": motion_search._WORST_KEY}

    def in_window(mv):
        return (abs(mv.dx_q2 - anchor.dx_q2) <= REFINE_WINDOW_Q2
                and abs(mv.dy_q2 - anchor.dy_q2) <= REFINE_WINDOW_Q2)

    def try_q2(mv):
        if not valid(mv):
            return False
        cost = float(sad(cur_blk, warp_block(plane, field_of(mv))))
        if cfg.lambda_:
            cost += cfg.lambda_ * mv_bits(mv, pred_for_bits)
        key = motion_search._mv_key(cost, mv.dx_q2, mv.dy_q2)
        if key < state["key"]:
            state.update(best=mv, key=key)
            return True
        return False

    for mv in [anchor, *predictors]:
        try_q2(mv)
    step = 2
    while step >= 1:
        moved = False
        for o in motion_search._ring(ZERO, step, step):
            best = state["best"]
            cand = MotionVector(best.dx_q2 + o.dx_q2, best.dy_q2 + o.dy_q2)
            if in_window(cand):
                moved |= try_q2(cand)
        if not moved:
            step //= 2
    return state["best"], state["key"][0]


def pictures(layout, levels, seed):
    """A reference and a current picture; few levels make SAD ties."""
    rng = np.random.default_rng(seed)
    shape = (layout.canvas_height, layout.canvas_width)
    return (rng.integers(0, levels, shape, dtype=np.uint8),
            rng.integers(0, levels, shape, dtype=np.uint8))


def scenes(layout, kind, seed):
    """A reference and a current picture of one ``kind``: noise of 1, 2 or
    256 levels; sparse (dark, with a few bright pixels: many exact SAD ties
    between MVs of one length); shifted (the reference moved by up to 20
    px: far and diagonal winners); or synthetic sphere motion (sub-pel)."""
    rng = np.random.default_rng(seed)
    shape = (layout.canvas_height, layout.canvas_width)
    if kind == "sparse":
        ref, cur = np.zeros((2, *shape), np.uint8)
        for p in (ref, cur):
            p[rng.integers(0, shape[0], 12), rng.integers(0, shape[1], 12)] = 200
        return ref, cur
    if kind == "shifted":
        ref = rng.integers(0, 256, shape, dtype=np.uint8)
        return ref, np.roll(ref, tuple(rng.integers(-20, 21, 2)), axis=(0, 1))
    if kind == "synthetic":
        v = rng.normal(size=3)
        v = tuple(v * rng.uniform(0.0, 0.95) * layout.face_width / 8 / np.linalg.norm(v))
        prev, cur = generate_synthetic(SyntheticSpec(layout.face_width, 2, v, seed=int(seed % 997)))
        return prev.y, cur.y
    return pictures(layout, {"noise-1": 1, "noise-2": 2, "noise": 256}[kind], seed)


L32 = CubeLayout(32, 32)


@st.composite
def searches(draw):
    """Blocks of one size (at canvas and face edges and corners half the
    time), pictures, predictors (some off the faces or out of range) and a
    search config."""
    bs = draw(st.sampled_from([16, 32]), label="block size")
    w, h = L32.canvas_width, L32.canvas_height
    xs = st.one_of(st.sampled_from([0, 16, 32 - bs // 2, 48, 64, w - bs]), st.integers(0, w - bs))
    ys = st.one_of(st.sampled_from([0, 32 - bs // 2, 32, 64 - bs, h - bs]), st.integers(0, h - bs))
    blocks = draw(st.lists(st.builds(Block, xs, ys, st.just(bs), st.just(bs)),
                           min_size=1, max_size=4, unique=True), label="blocks")
    r = draw(st.sampled_from([1, 2, 5, 64, 4096]), label="r")
    lam = draw(st.sampled_from([0.0, 4.0, 0.5]), label="lambda")
    mv = st.builds(MotionVector, st.integers(-60, 60), st.integers(-60, 60))
    far = st.builds(MotionVector, st.sampled_from([-4 * r - 8, 4 * r + 4, 300]), st.integers(-9, 9))
    predictors = draw(st.lists(st.one_of(mv, far), max_size=2), label="predictors")
    kind = draw(st.sampled_from(["noise-1", "noise-2", "noise", "sparse", "shifted",
                                 "synthetic"]), label="pictures")
    plane, cur = scenes(L32, kind, draw(st.integers(0, 2**32 - 1)))
    return blocks, plane, cur, predictors, SearchConfig(search_range=r, lambda_=lam)


def run_or_raise(fn, *args):
    """``fn(*args)``, or the type of the ``ValueError`` it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


class TestEngineEqualsOracle:
    @given(case=searches())
    def test_integer_stages(self, case):
        # each block's plan entry serves a zero-seeded run, then a run from
        # the predictors, which takes the first run's ends where it starts there
        blocks, plane, cur, predictors, cfg = case

        def engine(group, entries, seeds):
            s = search_rounds.Searches(group, cur, plane, cfg, L32)
            s.integer(seeds, entries)
            return [MotionVector(4 * int(x), 4 * int(y)) for x, y in zip(s.bx, s.by)]

        for seeds in ([], predictors):
            want = [run_or_raise(oracle_integer, b, cur, plane, seeds, cfg, L32) for b in blocks]
            shared = [search_rounds.Planned() for _ in blocks]
            for _ in range(2):  # fresh entries, then the ones the first pass filled
                each = [run_or_raise(engine, [b], [e], seeds) for b, e in zip(blocks, shared)]
                assert [g if g is ValueError else g[0] for g in each] == want
            if ValueError not in want:  # the blocks at once, in lockstep
                assert engine(blocks, [search_rounds.Planned() for _ in blocks], seeds) == want
                assert engine(blocks, shared, predictors) == [
                    oracle_integer(b, cur, plane, predictors, cfg, L32) for b in blocks]

    def test_ties_break_by_length_then_dy_then_dx(self):
        # a dark picture but one reference pixel, in the zero MV's window and
        # those of (-1, 0) and (0, -1): (1, 0) and (0, 1) tie at SAD 0 and
        # length 1, and the smaller dy wins, as in ``_mv_key``
        b, cfg = Block(16, 40, 16, 16), SearchConfig(search_range=8)
        plane, cur = np.zeros((2, L32.canvas_height, L32.canvas_width), np.uint8)
        plane[b.y0, b.x0] = 200
        assert oracle_integer(b, cur, plane, [], cfg, L32) == MotionVector(4, 0)
        s = search_rounds.Searches([b], cur, plane, cfg, L32)
        s.integer([], [search_rounds.Planned()])
        assert (s.bx[0], s.by[0]) == (1, 0)
        ref = ReferencePicture(SimpleNamespace(y=plane), 0)
        assert (tzs_search(b, cur, ref, [ZERO], cfg, L32, advanced=False)
                == oracle_translational(b, cur, plane, [ZERO], cfg, L32))

    @staticmethod
    def ranked(run):
        """``run()``'s result after the quarter-pel candidates stage 5 ranked,
        in order (the only scalar keys with float costs either search builds)."""
        log = []
        with pytest.MonkeyPatch.context() as m:
            inner = motion_search._mv_key
            m.setattr(motion_search, "_mv_key", lambda c, x, y: (
                log.append((c, x, y)) if isinstance(c, float) else None) or inner(c, x, y))
            log.append(run_or_raise(run))
        return log

    @settings(max_examples=150)
    @given(case=searches())
    def test_translational_search(self, case):
        blocks, plane, cur, predictors, cfg = case
        for b in blocks:
            ref = ReferencePicture(SimpleNamespace(y=plane), 0)
            assert (self.ranked(lambda: tzs_search(b, cur, ref, predictors, cfg, L32, None, False))
                    == self.ranked(lambda: oracle_translational(b, cur, plane, predictors, cfg,
                                                                L32)))

    @given(case=searches())
    def test_advanced_search(self, case):
        blocks, plane, cur, predictors, cfg = case
        for b in blocks:
            if run_or_raise(block_face, b, L32) is ValueError:  # the model needs one face
                continue
            ref = ReferencePicture(SimpleNamespace(y=plane), 0)
            assert (self.ranked(lambda: tzs_search(b, cur, ref, predictors, cfg, L32))
                    == self.ranked(lambda: oracle_advanced(b, cur, plane, predictors, cfg, L32)))

    @given(case=searches())
    def test_row_at_once(self, case):
        blocks, plane, cur, predictors, cfg = case
        every = [run_or_raise(oracle_translational, b, cur, plane, predictors, cfg, L32)
                 for b in blocks]
        if ValueError in every:
            return
        s = search_rounds.Searches(blocks, cur, plane, cfg, L32)
        found = s.translational([search_rounds.Planned() for _ in blocks], predictors,
                                predictors[0] if predictors else ZERO)
        assert [(mv, cost) for mv, cost, _ in found] == every
        for b, (mv, _, luma) in zip(blocks, found):  # the winner's luma, for placement
            np.testing.assert_array_equal(luma, warp_block(plane, translational_field(b, mv)))

    @given(case=searches())
    def test_advanced_search_after_the_translational_one(self, case):
        # the advanced search reuses the translational search's descent and
        # raster when it starts where that one did
        blocks, plane, cur, predictors, cfg = case
        frame = SimpleNamespace(y=plane)
        b, amvp = blocks[0], predictors[:1] or [MotionVector(9, -5)]
        shared = ReferencePicture(frame, 0)
        if (run_or_raise(block_face, b, L32) is ValueError  # the model needs one face
                or run_or_raise(tzs_search, b, cur, shared, [ZERO], cfg, L32, None, False)
                is ValueError):
            return
        got = tzs_search(b, cur, shared, amvp, cfg, L32, advanced=True)
        assert got == tzs_search(b, cur, ReferencePicture(frame, 0), amvp, cfg, L32, advanced=True)


def walk_to_end(wk, sads):
    """Drive the stage-5 walk ``wk`` with ``sads`` (a SAD or None per MV it
    yields, None once they run out): every ``(mv, ahead, k)`` it yielded,
    and its result."""
    sads, seen = iter(sads), [next(wk)]
    try:
        while True:
            seen.append(wk.send(next(sads, None)))
    except StopIteration as done:
        return seen, done.value


class TestWalk:
    """``walk``'s ``ahead`` is what it visits next if none of the MVs it has
    yet to rank wins, through the next pass; a costing may cost it before
    the walk asks, so the promise must hold exactly."""

    # predictors near the window's edge, on either side, and SADs that
    # often win: the best wanders to the edge or leaves the window
    mvs = st.builds(MotionVector, st.integers(-14, 14), st.integers(-14, 14))
    sad_lists = st.lists(st.one_of(st.none(), st.integers(0, 30)), max_size=30)

    @settings(max_examples=300)
    @given(anchor=mvs, predictors=st.lists(mvs, max_size=3), lam=st.sampled_from([0.0, 4.0]),
           bits=mvs, sads=sad_lists)
    def test_ahead_is_what_follows_when_nothing_wins(self, anchor, predictors, lam, bits, sads):
        # ``sads`` rank the MVs before the chosen step; from it on, nothing wins
        seen, _ = walk_to_end(search_rounds.walk(anchor, predictors, lam, bits), sads)
        if len(seen) <= len(sads):
            return  # the walk ended before the chosen step
        _, ahead, k = seen[len(sads)]
        assert 0 <= k <= len(ahead)
        assert [mv for mv, *_ in seen[len(sads) + 1 :]][: len(ahead)] == ahead
        # the passes stay in the window; only seeds lie anywhere
        assert all(abs(v.dx_q2 - anchor.dx_q2) <= REFINE_WINDOW_Q2
                   and abs(v.dy_q2 - anchor.dy_q2) <= REFINE_WINDOW_Q2 for v in ahead[k:])

    @given(anchor=mvs, predictors=st.lists(mvs, max_size=3), sads=sad_lists)
    def test_first_k_are_the_seeds_or_ring_left(self, anchor, predictors, sads):
        # ``ahead[:k]`` is what the translational rounds cost with ``mv``:
        # the seeds left while seeds are visited, then the rest of the
        # current ring, whose points are distinct and lie in the window
        seen, _ = walk_to_end(search_rounds.walk(anchor, predictors, 0.0, ZERO), sads)
        seeds = [anchor, *predictors]
        for t, (mv, ahead, k) in enumerate(seen):
            if t < len(seeds):
                assert (mv, ahead[:k]) == (seeds[t], seeds[t + 1 :])
            else:
                ring = [mv, *ahead[:k]]
                assert len(set(ring)) == len(ring)
                assert all(abs(v.dx_q2 - anchor.dx_q2) <= REFINE_WINDOW_Q2
                           and abs(v.dy_q2 - anchor.dy_q2) <= REFINE_WINDOW_Q2 for v in ring)


class TestRowPlan:
    """A row plan returns what each block's own search returns, and the
    planned winner's luma is what placement reads."""

    @pytest.mark.parametrize("face,block_size,velocity,lambda_", [
        (64, 16, (0.0, 2.0, 0.0), 0.0),
        (64, 32, (0.0, 7.5, 0.0), 4.0),   # fast: the raster fires, seeds leave the window
        (64, 64, (1.0, 2.0, 0.0), 0.0),
    ])
    def test_plan_equals_per_block_searches(self, face, block_size, velocity, lambda_):
        layout = CubeLayout(face, face)
        prev, cur = generate_synthetic(SyntheticSpec(face, 2, velocity, seed=2))
        cfg, grid = SearchConfig(lambda_=lambda_), BlockGrid(layout, block_size)
        planned = ReferencePicture(prev, 0)
        for row in grid.rows:
            planned.plan(row, cur.y, cfg, layout)
            for b in row:
                got = tzs_search(b, cur.y, planned, [ZERO], cfg, layout, advanced=False)
                fresh = ReferencePicture(prev, 0)
                assert got == tzs_search(b, cur.y, fresh, [ZERO], cfg, layout, advanced=False)
                placed = planned.costs(b, cur.y, layout)[False, got[0]]
                want = fresh.costs(b, cur.y, layout)[False, got[0]]
                assert placed[0] == want[0]
                np.testing.assert_array_equal(placed[1], want[1])

    def test_entries_are_dropped_once_the_block_is_placed(self):
        layout = CubeLayout(64, 64)
        prev, cur = generate_synthetic(SyntheticSpec(64, 2, (0.0, 2.0, 0.0), seed=2))
        cfg, row = SearchConfig(), BlockGrid(layout, 16).rows[5]
        ref = ReferencePicture(prev, 0)
        ref.plan(row, cur.y, cfg, layout)
        assert set(ref._plans) == set(row)
        for k, b in enumerate(row):
            tzs_search(b, cur.y, ref, [ZERO], cfg, layout, advanced=False)
            # the table of this block took its luma; the block before is gone
            assert ref._plans[b].luma is None
            assert set(ref._plans) == set(row[k:])


def corpus_argv(name):
    corpus = json.loads((Path(__file__).parent / "data" / "seed_corpus.json").read_text())
    (entry,) = [e for e in corpus["entries"] if e["name"] == name]
    return entry["argv"]


class TestReach:
    """The byte-identity corpus reaches every path of the rounds that an
    evaluator config can reach: stage 2 stopping at d = 2 and running all
    seven rings of range 64, the raster firing, ring points off the faces,
    and stage 4 looping twice or more.  The raster's other two outcomes,
    no offset and no valid offset, need a block that is not inside a face
    (``TestRasterKernel`` calls the kernel on one); the last test shows that
    no grid block meets them.  Paths are observed in one process, so no
    wavefront helper decides rows out of sight."""

    ENTRY = "29-face48-16px"  # one entry reaches them all

    def test_corpus_reaches_every_path(self, monkeypatch, tmp_path):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        seen, rounds = Counter(), []  # rounds: rounds costed so far, after each run

        def spy(name, record):
            inner = getattr(search_rounds.Searches, name)

            def wrapper(self, *args):
                out = inner(self, *args)
                record(self, args, out)
                return out

            monkeypatch.setattr(search_rounds.Searches, name, wrapper)

        def stage2(self, args, dist):
            ran = np.unique(args[1][0])
            seen["stop at d = 2"] += int((dist[ran] <= 1).sum())
            seen["all seven rings"] += int((dist[ran] >= 2).sum())

        def cost(self, args, out):
            seen["rounds"] += 1
            i, dx, dy = args
            r = self.cfg.search_range
            off = face_of(self.cx[i] + dx, self.cy[i] + dy, self.layout) == NO_FACE
            seen["off-face ring points"] += int((off & (np.abs(dx) <= r) & (np.abs(dy) <= r)).sum())

        spy("_stage2", stage2)
        spy("_cost", cost)
        # a run of the integer stages costs one round, then one per stage-4 loop
        spy("integer", lambda self, args, out: rounds.append(seen["rounds"]))
        inner = motion_search._raster_best

        def raster(*args):
            hit = inner(*args)
            seen["raster fired"] += hit is not None
            return hit

        monkeypatch.setattr(motion_search, "_raster_best", raster)
        argv = corpus_argv(self.ENTRY)
        assert argv[argv.index("--search-range") + 1] == "64"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(tmp_path / "r.csv")]) == 0
        seen["stage 4 twice or more"] = sum(b - a >= 3 for a, b in zip([0, *rounds], rounds))
        print(dict(seen))
        assert all(seen[path] for path in (
            "stop at d = 2", "all seven rings", "raster fired", "off-face ring points",
            "stage 4 twice or more"))

    @pytest.mark.parametrize("face,block_size", [(32, 16), (48, 16), (64, 32), (72, 64)])
    @pytest.mark.parametrize("r", [8, 12, 64, 200])
    def test_no_grid_block_meets_an_empty_or_invalid_raster(self, face, block_size, r):
        # stage 3 runs only past distance 5, so at r >= 8; each axis's range
        # then spans the 16 offsets -7..8 around a center inside a face, and
        # one offset in -7..0 on each axis keeps the center on its face
        layout = CubeLayout(face, face)
        valid = motion_search._mv_check(Block(0, 0, 1, 1), SearchConfig(search_range=r), layout)
        for b in BlockGrid(layout, block_size).blocks:
            cx, cy = b.center
            dxs = motion_search._raster(cx, layout.canvas_width, r)
            dys = motion_search._raster(cy, layout.canvas_height, r)
            assert dxs and dys
            assert any(motion_search._mv_check(b, SearchConfig(search_range=r), layout)(
                MotionVector(4 * dx, 4 * dy)) for dx in dxs for dy in dys if dx <= 0 and dy <= 0)
