"""Block motion estimation, predictor derivation and mode decision.

The estimator is a staged zone search over quarter-pel MVs, with one
ranking and one validity rule for every stage.  Integer-pel stages
(predictors, expanding diamond, optional raster, diamond refinement)
visit MVs ``(4dx, 4dy)`` and rank them with plain translational SAD,
which is cheap and good enough to locate the basin.  The raster is one
array reduction per block (``_raster_best``: a strided view of one
edge-clamped window, ``sad`` over one raster row at a time), whose
winner both searches of the block share and rank.  The final
quarter-pel stage restarts the ranking from the integer winner with the
true cost of the requested motion model: for the advanced model that
means building the per-pixel correspondence field and warping through
the filter bank for every candidate, with pass 1 read from one row bank
per stage (``row_bank``); ``warp_block``'s gather serves pixels across a
face seam and MVs costed outside the stage.  Likewise the stage maps the
17x17 quarter-pel lattice of moved block centers around its anchor once
(``center_lattice``), and each field build within that window reads its
centers' sphere points from it instead of making its own geometry call.
The bank and the lattice are locals of the stage, passed to each costing
call and freed when the search returns.

Both searches, the merge check and the evaluator's placement share one
table per block and reference, ``(advanced, mv) -> (SAD, luma)``, so no
MV of a block is fetched or warped twice.  Its ``put`` writes every
translation and its ``put_batch`` every advanced MV.  An integer offset
is the translation ``(4dx, 4dy)``: phase 0 of the bank is the identity.

Under the translational model every refinement candidate lies within
``REFINE_WINDOW_Q2`` of the integer winner, so, as in the HEVC reference
encoder, the stage filters that window once at the 16 quarter-pel phases
(``phase_planes``, used for nothing else) and each such candidate is a
slice of it; a predictor outside the window is gathered alone.  Under the
advanced model a table miss speculates: the MVs the search tries next
(the rest of the ring around the current best, or the remaining seeds)
are costed with it in one batched field build and warp, which pays
numpy's per-call overhead once per batch.  Ranking still goes one MV at
a time in the same order, so every result is what one-at-a-time
evaluation gives.  A speculative MV the search never reaches is wasted
work, so a batch holds at most ``BATCH_PIXELS`` pixels: 16 candidates of
16x16, 4 of 32x32, one of 64x64.

Mode decision compares three flavors per block: translational,
advanced-merge (a transported neighbor MV, no search, no MV-difference
bits) and advanced-AMVP (searched, predictor-differential bits).
Decided blocks are written into the grid so later blocks can use them
as merge/AMVP neighbors, which fixes the scan order: raster order, or a
row wavefront that gives each block the same decided neighbors (the
evaluator's, see ``evaluate``), waiting for the ones ``BlockGrid.above``
derives from the two scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cubemc.frame_io import Frame
from cubemc.geometry import NO_FACE, CubeLayout, face_of
from cubemc.interp import PHASES, fetch_block, generate_dctif_bank, phase_planes, warp_block
from cubemc.interp import row_bank, warp_rows
from cubemc.motion_model import (
    Block,
    MotionVector,
    build_correspondence_field,
    build_correspondence_fields,
    center_lattice,
    round_half_away,
    translational_field,
    transport_mv_predictor,
)

__all__ = [
    "PredMode",
    "SearchConfig",
    "BlockRecord",
    "BlockGrid",
    "ReferencePicture",
    "sad",
    "mv_bits",
    "tzs_search",
    "merge_candidate",
    "amvp_predictor",
    "mode_decide",
]

BLOCK_SIZES = (16, 32, 64)  # pixels, the square block sizes a grid can tile
RASTER_STEP = 8         # pixels, stage-3 grid
REFINE_WINDOW_Q2 = 8    # quarter-pel units, stage-5 window
BANK_MARGIN = REFINE_WINDOW_Q2 // 2  # pixels, stage-5 row bank beyond the block
BATCH_PIXELS = 4096     # pixels, cap of one speculative stage-5 batch


class PredMode(Enum):
    TRANS = "trans"
    ADV_MERGE = "adv_merge"
    ADV_AMVP = "adv_amvp"


@dataclass(frozen=True)
class SearchConfig:
    search_range: int = 64          # pixels, integer stages
    lambda_: float = 0.0            # weight of the MV-bits proxy

    def __post_init__(self):
        if not isinstance(self.search_range, Integral) or isinstance(self.search_range, bool):
            raise ValueError("search_range must be an integer")
        if self.search_range <= 0:
            raise ValueError("search_range must be positive")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError("lambda must be finite and non-negative")


@dataclass
class BlockRecord:
    mode: PredMode
    mv: MotionVector
    cost: float


class _CostTable(dict):
    """``(advanced, mv) -> (SAD, luma prediction)`` of one block in one
    reference, written by one method per model: ``put`` for translations,
    ``put_batch`` for advanced MVs.  Reading a missing MV costs it on its
    own.  SADs are bare: each search checks validity and adds its MV-bits
    term when it reads."""

    def __init__(self, block: Block, cur: np.ndarray, plane: np.ndarray, layout, bank):
        super().__init__()
        self.block, self.cur, self.plane, self.layout, self.bank = block, cur, plane, layout, bank
        self.cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]
        self.rasters = {}  # (dxs, dys) -> _raster_best

    def __missing__(self, key):
        advanced, mv = key
        if advanced:
            self.put_batch([mv])
            return self[key]
        b = self.block
        if mv.dx_q2 % 4 or mv.dy_q2 % 4:
            return self.put(key, warp_block(self.plane, translational_field(b, mv), self.bank))
        x, y = b.x0 + mv.dx_q2 // 4, b.y0 + mv.dy_q2 // 4
        return self.put(key, fetch_block(self.plane, x, y, b.width, b.height))

    def raster_best(self, dxs, dys):
        """``_raster_best``, run once per pair of ranges: both searches share it."""
        if (dxs, dys) not in self.rasters:
            self.rasters[dxs, dys] = _raster_best(self, dxs, dys)
        return self.rasters[dxs, dys]

    def put(self, key, pred: np.ndarray) -> tuple[int, np.ndarray]:
        self[key] = entry = (sad(self.cur_blk, pred), pred)
        return entry

    def put_batch(self, mvs: list[MotionVector], rows=None, lattice=None) -> None:
        """Cost advanced ``mvs`` in one field build and warp, reading pass 1
        from ``rows`` (a ``row_bank``) and moved centers from ``lattice``
        (a ``center_lattice``) when given.  A lone MV keeps the singular
        build, whose MV the benchmark's tracer reads (the contract test
        test_singular_field_builds_take_one_mv), and a 2-D ``sad``."""
        b, plane, bank = self.block, self.plane, self.bank
        if len(mvs) == 1:
            fields = build_correspondence_field(b, mvs[0], self.layout, lattice)
        else:
            fields = build_correspondence_fields(b, mvs, self.layout, lattice)
        preds = (warp_block(plane, fields, bank) if rows is None
                 else warp_rows(plane, rows, fields, bank))
        if len(mvs) == 1:
            self[True, mvs[0]] = (sad(self.cur_blk, preds), preds)
        else:
            for mv, s, pred in zip(mvs, sad(preds, self.cur_blk).tolist(), preds):
                self[True, mv] = (s, pred)


@dataclass
class ReferencePicture:
    """A reference frame and the cost table of the block costed last in
    it.  Its planes must not change while the object is in use."""

    frame: Frame
    poc: int        # picture order count; the single-reference search ignores it
    _table: _CostTable | None = field(default=None, init=False, repr=False, compare=False)

    def costs(self, block: Block, cur: np.ndarray, layout: CubeLayout, bank=None) -> _CostTable:
        """The cost table of ``block`` in ``cur``.  It is keyed by the block,
        ``cur`` (by identity: its pixels must not change either), the layout
        and the bank, and a new key starts an empty one."""
        bank = generate_dctif_bank() if bank is None else bank
        t = self._table
        if t is None or not (t.block == block and t.cur is cur and t.layout == layout
                             and t.bank is bank):
            t = self._table = _CostTable(block, cur, self.frame.y, layout, bank)
        return t


class BlockGrid:
    """Raster-ordered tiling of the face areas into square blocks.

    Only blocks fully inside a single face are part of the grid;
    partial blocks at face borders and the corner holes are skipped.

    ``blocks`` lists the grid in raster order and ``rows`` groups it by
    block row, leaving out rows that hold no block.  ``above`` maps each
    block's ``(x0, y0)`` to the grid blocks, as ``(x0, y0)`` keys, that
    the merge and AMVP scans (``_MERGE_OFFSETS``, ``_AMVP_OFFSETS``, read
    when the grid is built) reach in an earlier row: the decided
    neighbours a block may read that a row wavefront must wait for.
    """

    def __init__(self, layout: CubeLayout, block_size: int):
        if not isinstance(block_size, Integral) or isinstance(block_size, bool):
            raise ValueError("block_size must be an integer")
        if block_size not in BLOCK_SIZES:
            raise ValueError("block_size must be 16, 32 or 64")
        self.layout = layout
        self.block_size = block_size
        self.records: dict[tuple[int, int], BlockRecord] = {}
        self.rows: list[list[Block]] = []
        bs = block_size
        for y0 in range(0, layout.canvas_height - bs + 1, bs):
            row = []
            for x0 in range(0, layout.canvas_width - bs + 1, bs):
                f0, f1 = face_of(x0, y0, layout), face_of(x0 + bs - 1, y0 + bs - 1, layout)
                if f0 is not None and f0 == f1:
                    row.append(Block(x0, y0, bs, bs))
            if row:
                self.rows.append(row)
        self.blocks: list[Block] = [b for row in self.rows for b in row]
        # the scans' steps into earlier rows, each once; the wavefront's pipe
        # argument (evaluate._predict_rows) assumes none reaches two rows up
        up = dict.fromkeys(s for _, s in _MERGE_OFFSETS + _AMVP_OFFSETS if s[1] < 0)
        keys = {(b.x0, b.y0) for b in self.blocks}
        self.above = {(x, y): [n for dx, dy in up if (n := (x + dx * bs, y + dy * bs)) in keys]
                      for x, y in keys}


def sad(a: np.ndarray, b: np.ndarray) -> int | np.ndarray:
    """SAD of uint8 ``a`` against the (h, w) block ``b``, differenced in int16 and summed
    in int64: an int for one (h, w) block ``a``, an int64 array for an (n, h, w) stack."""
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError("blocks must be uint8")
    if a.ndim not in (2, 3) or a.shape[-2:] != b.shape:
        raise ValueError("block dimensions differ")
    diff = np.subtract(a, b, dtype=np.int16)
    s = np.abs(diff, out=diff).sum(axis=(-2, -1), dtype=np.int64)
    return int(s) if a.ndim == 2 else s


def mv_bits(mv: MotionVector, pred: MotionVector) -> int:
    """Exp-Golomb-like size proxy for coding mv as predictor + difference."""
    bits = 0
    for d in (mv.dx_q2 - pred.dx_q2, mv.dy_q2 - pred.dy_q2):
        bits += 1 + 2 * int(abs(d)).bit_length()
    return bits


def _mv_check(block: Block, cfg: SearchConfig, layout: CubeLayout):
    """The validity rule of ``block``'s MVs: each component within the
    search range, and the moved block center on a face."""
    limit = 4 * cfg.search_range
    cx, cy = block.center

    def valid(mv: MotionVector) -> bool:
        return (abs(mv.dx_q2) <= limit and abs(mv.dy_q2) <= limit
                and face_of(cx + mv.dx_q2 / 4.0, cy + mv.dy_q2 / 4.0, layout) is not None)

    return valid


def _raster(c: float, size: int, r: int) -> range:
    """Stage-3 offsets -r + 8k in [-r, r] that keep ``c + offset`` in [0, size)."""
    lo, hi = max(-r, math.ceil(-c)), min(r, math.ceil(size - c) - 1)
    return range(lo + (-r - lo) % RASTER_STEP, hi + 1, RASTER_STEP)


def _raster_best(t: _CostTable, dxs: range, dys: range):
    """The lowest-``_mv_key`` valid MV ``(4dx, 4dy)`` of ``t``'s block over
    the ``_raster`` offsets ``dxs`` x ``dys`` and its SAD, or None.

    Each offset's block is a strided view of one edge-clamped window, equal
    to its own ``fetch_block`` because clamping is per coordinate; ``sad``
    reduces one raster row at a time.  ``_raster`` keeps offsets
    within the search range, so validity is ``_mv_check``'s face check.
    """
    b, cx, cy = t.block, *t.block.center
    dx, dy = np.array(dxs), np.array(dys)
    ok = face_of(cx + dx, cy + dy[:, None], t.layout) != NO_FACE  # 4dx / 4.0 == dx
    if not ok.any():  # also for an empty range
        return None
    h, w = b.height, b.width
    win = fetch_block(t.plane, b.x0 + dxs[0], b.y0 + dys[0],
                      dxs[-1] - dxs[0] + w, dys[-1] - dys[0] + h)
    s0, s1 = win.strides
    blocks = as_strided(win, (len(dys), len(dxs), h, w),
                        (RASTER_STEP * s0, RASTER_STEP * s1, s0, s1), writeable=False)
    sads = np.zeros(ok.shape, dtype=np.int64)
    for j in np.flatnonzero(ok.any(axis=1)):
        sads[j] = sad(blocks[j], t.cur_blk)
    row, col = np.nonzero(ok)
    x, y, s = 4 * dx[col], 4 * dy[row], sads[row, col]
    i = np.lexsort(_mv_key(s, x, y)[::-1])[0]  # lexsort sorts by its last key first
    return MotionVector(int(x[i]), int(y[i])), int(s[i])


def _mv_key(cost, dx, dy):
    # tie-break: cost, then shorter MV, then smaller dy, then smaller dx
    return (cost, dx * dx + dy * dy, dy, dx)


_WORST_KEY = (float("inf"),) * 4  # ranks below every real candidate


def _ring(center: MotionVector, axis: int, diag: int) -> list[MotionVector]:
    """Search-ring points around ``center``: four at ``axis`` along the
    axes, then four at ``diag`` along the diagonals (none if ``diag`` is 0)."""
    pts = [(axis, 0), (-axis, 0), (0, axis), (0, -axis)]
    if diag:
        pts += [(diag, diag), (diag, -diag), (-diag, diag), (-diag, -diag)]
    return [MotionVector(center.dx_q2 + ox, center.dy_q2 + oy) for ox, oy in pts]


def tzs_search(
    block: Block,
    cur: np.ndarray,
    ref: ReferencePicture,
    predictors: list[MotionVector],
    cfg: SearchConfig,
    layout: CubeLayout,
    bank: np.ndarray | None = None,
    advanced: bool = True,
    pred_for_bits: MotionVector | None = None,
) -> tuple[MotionVector, float]:
    """Zone search for the best MV of ``block`` in ``ref``.

    Integer stages use translational SAD; the quarter-pel stage ranks
    with the model cost (advanced correspondence warp by default).  All
    quarter-pel predictors are also evaluated exactly in the final
    stage, so the returned cost never exceeds the cost of any valid
    predictor.  Raises ``ValueError`` if no starting candidate is valid.
    """
    if pred_for_bits is None:
        pred_for_bits = predictors[0] if predictors else MotionVector(0, 0)
    table = ref.costs(block, cur, layout, bank)
    valid = _mv_check(block, cfg, layout)
    r = cfg.search_range

    # every stage ranks quarter-pel MVs; an integer offset (dx, dy) is (4dx, 4dy)
    best = None
    best_key = _WORST_KEY

    def rank(mv, cost) -> bool:
        """Rank ``mv`` at ``cost``; True if it is the new best."""
        nonlocal best, best_key
        key = _mv_key(cost, mv.dx_q2, mv.dy_q2)
        if key < best_key:
            best, best_key = mv, key
            return True
        return False

    def try_int(mv) -> bool:
        return valid(mv) and rank(mv, table[False, mv][0])

    def try_ring(center, axis, diag) -> bool:
        """Try every point of an integer ring (pixels); True if one won."""
        return any([try_int(mv) for mv in _ring(center, 4 * axis, 4 * diag)])

    # stage 1: zero MV plus rounded predictors (a repeat is a table hit)
    for p in [MotionVector(0, 0), *predictors]:
        try_int(MotionVector(4 * int(round_half_away(p.dx_q2 / 4.0)),
                             4 * int(round_half_away(p.dy_q2 / 4.0))))
    if best is None:
        raise ValueError("no valid motion")

    # stage 2: expanding diamond around the stage-1 winner; once the
    # rings pass distance 1 without moving the best away from the
    # anchor's immediate neighborhood, wider rings are skipped
    anchor = best
    best_dist = 0
    d = 1
    while d <= r:
        if try_ring(anchor, d, d // 2):
            best_dist = d
        if d >= 2 and best_dist <= 1:
            break
        d *= 2

    # stage 3: coarse raster only when the motion looks large; offsets
    # whose center leaves the canvas would be rejected, so none is visited.
    # It is one array reduction per block, shared by both searches; ranking
    # only its best MV is exact, as distinct MVs never tie on ``_mv_key``
    if best_dist > 5:
        cx, cy = block.center
        hit = table.raster_best(_raster(cx, layout.canvas_width, r),
                                _raster(cy, layout.canvas_height, r))
        if hit is not None:
            rank(*hit)

    # stage 4: re-centering small-diamond refinement
    while try_ring(best, 1, 0) or try_ring(best, 2, 1):
        pass

    # stage 5: quarter-pel refinement under the model cost, restarted from
    # the integer winner and seeded with every predictor; the winner's window
    # is filtered once, at 16 quarter-pel phases or (advanced) 64 x-phases
    anchor, best_key = best, _WORST_KEY
    m = BANK_MARGIN if advanced else REFINE_WINDOW_Q2 // 4
    window = (table.plane, block.x0 + anchor.dx_q2 // 4 - m, block.y0 + anchor.dy_q2 // 4 - m,
              block.width + 2 * m, block.height + 2 * m)
    phases = np.arange(0, PHASES, PHASES // 4)
    rows = row_bank(*window, table.bank) if advanced else None
    lattice = center_lattice(block, anchor, REFINE_WINDOW_Q2, layout) if advanced else None
    planes = None if advanced else phase_planes(*window, phases, phases, table.bank)

    def in_window(mv):
        return (abs(mv.dx_q2 - anchor.dx_q2) <= REFINE_WINDOW_Q2
                and abs(mv.dy_q2 - anchor.dy_q2) <= REFINE_WINDOW_Q2)

    batch_cap = max(1, BATCH_PIXELS // (block.width * block.height))

    def try_q2(mv, ahead=()) -> bool:
        """Rank one quarter-pel MV by the model cost; True if it won.

        On an advanced table miss, the valid uncosted MVs of ``ahead`` (the
        ones the caller will try next) join it in one batch of at most
        ``batch_cap`` MVs; a translational miss outside the window is
        costed alone by the read.
        """
        if not valid(mv):
            return False
        if (advanced, mv) not in table:
            if advanced:
                batch = [mv]
                for m in ahead:
                    if len(batch) == batch_cap:
                        break
                    if (True, m) not in table and m not in batch and valid(m):
                        batch.append(m)
                table.put_batch(batch, rows, lattice)
            elif in_window(mv):  # a slice of the filtered window
                ox = mv.dx_q2 - anchor.dx_q2 + REFINE_WINDOW_Q2  # quarter-pels into the window
                oy = mv.dy_q2 - anchor.dy_q2 + REFINE_WINDOW_Q2
                table.put((False, mv), planes[oy & 3, ox & 3, oy >> 2 : (oy >> 2) + block.height,
                                              ox >> 2 : (ox >> 2) + block.width])
        cost = float(table[advanced, mv][0])
        if cfg.lambda_:
            cost += cfg.lambda_ * mv_bits(mv, pred_for_bits)
        return rank(mv, cost)

    def around_best(offsets):
        """MVs at ``offsets`` from the current best that lie in the window."""
        for o in offsets:
            cand = MotionVector(best.dx_q2 + o.dx_q2, best.dy_q2 + o.dy_q2)
            if in_window(cand):
                yield cand

    # the anchor passed the same check in the integer stages, so stage 5
    # always ranks one
    seeds = [anchor, *predictors]
    for i, mv in enumerate(seeds):
        try_q2(mv, seeds[i + 1 :])

    step = 2
    while step >= 1:
        moved = False
        ring = _ring(MotionVector(0, 0), step, step)
        for i, o in enumerate(ring):
            cand = MotionVector(best.dx_q2 + o.dx_q2, best.dy_q2 + o.dy_q2)
            if in_window(cand):
                # a miss also costs the rest of the ring around the current best
                moved |= try_q2(cand, around_best(ring[i + 1 :]))
        if not moved:
            step //= 2
    return best, best_key[0]


_MERGE_OFFSETS = (
    ("A", (-1, 0)),
    ("B", (0, -1)),
    ("C", (1, -1)),
    ("D", (-1, 1)),
    ("E", (-1, -1)),
)

_AMVP_OFFSETS = (
    ("A0", (-1, 1)),
    ("A1", (-1, 0)),
    ("B0", (1, -1)),
    ("B1", (0, -1)),
    ("B2", (-1, -1)),
)


def _decided(grid: BlockGrid, block: Block, offsets):
    """The decided neighbours of ``block`` at ``offsets`` (in blocks), in
    scan order, as ``(center, record)``."""
    bs = grid.block_size
    for _, (dx, dy) in offsets:
        x, y = block.x0 + dx * bs, block.y0 + dy * bs
        rec = grid.records.get((x, y))
        if rec is not None:
            yield Block(x, y, bs, bs).center, rec


def merge_candidate(grid: BlockGrid, block: Block, layout: CubeLayout) -> MotionVector | None:
    """First advanced-coded neighbor MV, transported to this block.

    Zero MVs never qualify, neither at the neighbor nor after the
    transport re-rounds the carried vector to the quarter-pel grid; a
    candidate that collapses to zero is skipped and the scan goes on.
    Returns None when no neighbor qualifies (merge unavailable).
    """
    zero = MotionVector(0, 0)
    for center, rec in _decided(grid, block, _MERGE_OFFSETS):
        if rec.mode is not PredMode.TRANS and rec.mv != zero:
            cand = transport_mv_predictor(center, rec.mv, block.center, layout)
            if cand != zero:
                return cand
    return None


def amvp_predictor(grid: BlockGrid, block: Block, layout: CubeLayout) -> MotionVector:
    """Predictor for the searched advanced mode; zero MV as fallback.

    The first decided neighbor supplies its MV, transported to this
    block's center.
    """
    for center, rec in _decided(grid, block, _AMVP_OFFSETS):
        return transport_mv_predictor(center, rec.mv, block.center, layout)
    return MotionVector(0, 0)


def mode_decide(
    block: Block,
    cur: np.ndarray,
    ref: ReferencePicture,
    grid: BlockGrid,
    cfg: SearchConfig,
    layout: CubeLayout,
    bank: np.ndarray | None = None,
    trans_result: tuple[MotionVector, float] | None = None,
) -> BlockRecord:
    """Pick the cheapest of translational / merge / AMVP for one block.

    The translational flavor is searched with the zero MV as its only
    seed, so its result never depends on previously decided blocks and
    the advanced policy can always fall back to it.  A caller that has
    already run that search (the evaluator shares it across policies)
    can pass it as ``trans_result``.  Ties keep the earlier flavor in
    the order TRANS, ADV_MERGE, ADV_AMVP.  The record is stored in the
    grid for use by later blocks.
    """
    if trans_result is None:  # the zero seed is also the MV-bits predictor
        zero = MotionVector(0, 0)
        mv_t, cost_t = tzs_search(block, cur, ref, [zero], cfg, layout, bank, advanced=False)
    else:
        mv_t, cost_t = trans_result
    mode, mv, cost = PredMode.TRANS, mv_t, cost_t

    merge_mv = merge_candidate(grid, block, layout)
    if merge_mv is not None and _mv_check(block, cfg, layout)(merge_mv):
        # merge codes no MV difference, so its cost is the bare SAD
        cost_m = float(ref.costs(block, cur, layout, bank)[True, merge_mv][0])
        if cost_m < cost:
            mode, mv, cost = PredMode.ADV_MERGE, merge_mv, cost_m

    amvp = amvp_predictor(grid, block, layout)
    mv_a, cost_a = tzs_search(block, cur, ref, [amvp], cfg, layout, bank, advanced=True)
    if cost_a < cost:
        mode, mv, cost = PredMode.ADV_AMVP, mv_a, cost_a

    rec = BlockRecord(mode, mv, cost)
    grid.records[block.x0, block.y0] = rec
    return rec
