"""Block motion estimation, predictor derivation and mode decision.

The estimator is a staged zone search over quarter-pel MVs, with one
ranking and one validity rule for every stage.  Integer-pel stages
(predictors, expanding diamond, optional raster, diamond refinement)
visit MVs ``(4dx, 4dy)`` and rank them with plain translational SAD,
which is cheap and good enough to locate the basin.  They run as array
rounds (``search_rounds``): each round checks, gathers, costs and ranks
the candidates of every active block with a few numpy calls, in the
order one-at-a-time evaluation ranks them.  The translational search is
seeded with the zero MV only, so it reads no neighbour: the evaluator
plans a block row's translational searches at once
(``ReferencePicture.plan``), quarter-pel stage included, and
``tzs_search`` returns each planned result.  The raster is one array
reduction per block (``_raster_best``: a strided view of one
edge-clamped window, ``sad`` over one raster row at a time), run at most
once per block; its result and the end of each integer descent are kept
in the block's plan entry, so the advanced search that starts where the
translational one did takes its end without a round.

The final quarter-pel stage restarts the ranking from the integer winner
with the true cost of the requested motion model.  Its visiting order is
one walk for both models (``search_rounds.walk``): the seeds (the winner,
then every predictor), then ring passes at steps 2 and 1 around the best
of the moment, within ``REFINE_WINDOW_Q2`` of the winner, each MV ranked
by ``_mv_key`` of its SAD plus the MV-bits term.  The walk takes bare SADs
and only their costing differs by model.

Under the translational model every ring point lies in the window, so, as
in the HEVC reference encoder, the stage filters that window once at the
16 quarter-pel phases (``phase_planes``, used for nothing else) and each
such candidate is a slice of it; a seed outside the window is gathered
alone.  The walks of a block row are costed together in array rounds
(``search_rounds.Searches``).

Under the advanced model each candidate builds the per-pixel
correspondence field and warps through the filter bank, with pass 1 read
from one row bank per stage (``row_bank``); ``warp_block``'s gather serves
pixels across a face seam and MVs costed outside the stage.  Likewise the
stage maps the 17x17 quarter-pel lattice of moved block centers around
its anchor once (``center_lattice``), and each field build within that
window reads its centers' sphere points from it instead of making its own
geometry call.  A window that reaches off the faces gets no lattice: the
validity rule keeps every costed center on a face, and each build maps
its own.  The row bank and the lattice are locals of the stage, passed to
each costing call and freed when the search returns.  A table miss
speculates: the valid, uncosted MVs the walk visits next (the rest of the
ring around the current best, or the remaining seeds) are costed with it
in one batched field build and warp, which pays numpy's per-call overhead
once per batch.  The walk still ranks one MV at a time, so every result
is what one-at-a-time evaluation gives.  A speculative MV the walk never
reaches is wasted work, so a batch holds at most ``BATCH_PIXELS`` pixels:
16 candidates of 16x16, 4 of 32x32, one of 64x64.

The advanced stage, the merge check and the evaluator's placement share
one table per block and reference, ``(advanced, mv) -> (SAD, luma)``, so
no advanced MV of a block is warped twice.  Its ``put`` writes each
translation (the translational winner, for placement, and a seed costed
outside its window) and its ``put_batch`` every advanced MV.

Mode decision compares three flavors per block: translational,
advanced-merge (a transported neighbor MV, no search, no MV-difference
bits) and advanced-AMVP (searched, predictor-differential bits).  The
merge MV is costed after the AMVP search, which has often costed it
already, and the two scans transport each neighbour once.  Decided
blocks are written into the grid so later blocks can use them as
merge/AMVP neighbors, which fixes the scan order: raster order, or a row
wavefront that gives each block the same decided neighbors (the
evaluator's, see ``evaluate``), waiting for the ones ``BlockGrid.above``
derives from the two scans.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cubemc import search_rounds
from cubemc.frame_io import Frame
from cubemc.geometry import NO_FACE, CubeLayout, face_of
from cubemc.interp import check_bank, fetch_block, row_bank, warp_block, warp_rows
from cubemc.motion_model import (
    Block,
    MotionVector,
    build_correspondence_field,
    build_correspondence_fields,
    center_lattice,
    translational_field,
    transport_mv_predictor,
)

__all__ = [
    "BlockGrid",
    "BlockRecord",
    "PredMode",
    "ReferencePicture",
    "SearchConfig",
    "amvp_predictor",
    "merge_candidate",
    "mode_decide",
    "mv_bits",
    "sad",
    "tzs_search",
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
        # a Python int: the search limit 4 * search_range must not wrap
        object.__setattr__(self, "search_range", int(self.search_range))
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
    own.  SADs are bare: each search checks validity, and the stage-5 walk
    adds the MV-bits term.  The integer stages do not use it: they cost
    their candidates as arrays (``search_rounds``)."""

    def __init__(self, block: Block, cur: np.ndarray, plane: np.ndarray, layout):
        super().__init__()
        self.block, self.cur, self.plane, self.layout = block, cur, plane, layout
        self.cur_blk = cur[block.y0 : block.y0 + block.height, block.x0 : block.x0 + block.width]

    def __missing__(self, key):
        advanced, mv = key
        if advanced:
            self.put_batch([mv])
            return self[key]
        b = self.block
        if mv.dx_q2 % 4 or mv.dy_q2 % 4:
            return self.put(key, warp_block(self.plane, translational_field(b, mv)))
        x, y = b.x0 + mv.dx_q2 // 4, b.y0 + mv.dy_q2 // 4
        return self.put(key, fetch_block(self.plane, x, y, b.width, b.height))

    def put(self, key, pred: np.ndarray) -> tuple[int, np.ndarray]:
        self[key] = entry = (sad(self.cur_blk, pred), pred)
        return entry

    def put_batch(self, mvs: list[MotionVector], rows=None, lattice=None) -> None:
        """Cost advanced ``mvs`` in one field build and warp, reading pass 1
        from ``rows`` (a ``row_bank``) and moved centers from ``lattice``
        (a ``center_lattice``) when given.  A lone MV keeps the singular
        build, whose MV the benchmark's tracer reads (the contract test
        test_singular_field_builds_take_one_mv), and a 2-D ``sad``."""
        b, plane = self.block, self.plane
        if len(mvs) == 1:
            fields = build_correspondence_field(b, mvs[0], self.layout, lattice)
        else:
            fields = build_correspondence_fields(b, mvs, self.layout, lattice)
        preds = warp_block(plane, fields) if rows is None else warp_rows(plane, rows, fields)
        if len(mvs) == 1:
            self[True, mvs[0]] = (sad(self.cur_blk, preds), preds)
        else:
            for mv, s, pred in zip(mvs, sad(preds, self.cur_blk).tolist(), preds):
                self[True, mv] = (s, pred)


@dataclass
class ReferencePicture:
    """A reference frame, the cost table of the block costed last in it,
    and the plan entries (``search_rounds.Planned``) of the blocks searched
    or planned (``plan``) under one current picture, layout and search
    config.  A block's entry is dropped when the table moves to another
    block, which the evaluator does only once the block is placed.  Its
    planes must not change while the object is in use."""

    frame: Frame
    poc: int        # picture order count; the single-reference search ignores it
    _table: _CostTable | None = field(default=None, init=False, repr=False, compare=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _plan_key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def costs(self, block: Block, cur: np.ndarray, layout: CubeLayout) -> _CostTable:
        """The cost table of ``block`` in ``cur``.  It is keyed by the block,
        ``cur`` (by identity: its pixels must not change either) and the
        layout, and a new key starts an empty one and drops the plan entry
        of the block costed before."""
        t = self._table
        if t is None or not (t.block == block and t.cur is cur and t.layout == layout):
            if t is not None:
                self._plans.pop(t.block, None)
            t = self._table = _CostTable(block, cur, self.frame.y, layout)
        return t

    def plan(self, blocks: list[Block], cur: np.ndarray, cfg: SearchConfig,
             layout: CubeLayout) -> None:
        """Run the zero-seeded translational searches of ``blocks`` (one
        size, such as a block row) together; ``tzs_search`` then returns
        each block's result without searching."""
        entries = [self._entry(b, cur, cfg, layout) for b in blocks]
        searches = search_rounds.Searches(blocks, cur, self.frame.y, cfg, layout)
        for e, (mv, cost, luma) in zip(entries, searches.translational(entries, [_ZERO])):
            e.result, e.luma = (mv, cost), luma

    def _entry(self, block: Block, cur: np.ndarray, cfg: SearchConfig,
               layout: CubeLayout) -> search_rounds.Planned:
        """``block``'s plan entry under ``(cur, layout, cfg)``; another key
        drops every entry."""
        key = self._plan_key
        if not (key and key[0] is cur and key[1:] == (layout, cfg)):
            self._plans.clear()
            self._plan_key = cur, layout, cfg
        return self._plans.setdefault(block, search_rounds.Planned())


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
    """SAD of uint8 ``a`` against ``b``, differenced in int16 and summed in
    int64: an int for one (h, w) block ``a``, an int64 array for an (n, h, w)
    stack, each block against the (h, w) block ``b`` or against its own
    block of an (n, h, w) stack ``b``."""
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError("blocks must be uint8")
    if a.ndim not in (2, 3) or b.shape not in (a.shape[-2:], a.shape):
        raise ValueError("block dimensions differ")
    diff = np.subtract(a, b, dtype=np.int16)
    s = np.abs(diff, out=diff).sum(axis=(-2, -1), dtype=np.int64)
    return int(s) if a.ndim == 2 else s


def mv_bits(mv: MotionVector, pred: MotionVector) -> int:
    """Exp-Golomb-like size proxy for coding mv as predictor + difference:
    1 + 2 bit_length(|d|) bits per component d."""
    return 2 + 2 * (int(abs(mv.dx_q2 - pred.dx_q2)).bit_length()
                    + int(abs(mv.dy_q2 - pred.dy_q2)).bit_length())


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


def _raster_best(block: Block, cur_blk: np.ndarray, plane: np.ndarray, layout: CubeLayout,
                 dxs: range, dys: range):
    """The lowest-``_mv_key`` valid MV ``(4dx, 4dy)`` of ``block`` (whose
    pixels are ``cur_blk``) in ``plane`` over the ``_raster`` offsets
    ``dxs`` x ``dys``, and its SAD, or None.

    Each offset's block is a strided view of one edge-clamped window, equal
    to its own ``fetch_block`` because clamping is per coordinate; ``sad``
    reduces one raster row at a time.  ``_raster`` keeps offsets
    within the search range, so validity is ``_mv_check``'s face check.
    """
    cx, cy = block.center
    dx, dy = np.array(dxs), np.array(dys)
    ok = face_of(cx + dx, cy + dy[:, None], layout) != NO_FACE  # 4dx / 4.0 == dx
    if not ok.any():  # also for an empty range
        return None
    h, w = block.height, block.width
    win = fetch_block(plane, block.x0 + dxs[0], block.y0 + dys[0],
                      dxs[-1] - dxs[0] + w, dys[-1] - dys[0] + h)
    s0, s1 = win.strides
    blocks = as_strided(win, (len(dys), len(dxs), h, w),
                        (RASTER_STEP * s0, RASTER_STEP * s1, s0, s1), writeable=False)
    sads = np.zeros(ok.shape, dtype=np.int64)
    for j in np.flatnonzero(ok.any(axis=1)):
        sads[j] = sad(blocks[j], cur_blk)
    row, col = np.nonzero(ok)
    x, y, s = 4 * dx[col], 4 * dy[row], sads[row, col]
    i = np.lexsort(_mv_key(s, x, y)[::-1])[0]  # lexsort sorts by its last key first
    return MotionVector(int(x[i]), int(y[i])), int(s[i])


def _mv_key(cost, dx, dy):
    # tie-break: cost, then shorter MV, then smaller dy, then smaller dx
    return (cost, dx * dx + dy * dy, dy, dx)


_WORST_KEY = (float("inf"),) * 4  # ranks below every real candidate
_ZERO = MotionVector(0, 0)


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
    A zero-seeded translational search that ``ref.plan`` ran returns its
    result.  ``bank``, kept for positional callers, must be None or equal
    to ``generate_dctif_bank()`` (``check_bank``).
    """
    check_bank(bank)
    if pred_for_bits is None:
        pred_for_bits = predictors[0] if predictors else _ZERO
    table = ref.costs(block, cur, layout)
    entry = ref._entry(block, cur, cfg, layout)
    if not advanced:
        if list(predictors) == [_ZERO] and pred_for_bits == _ZERO:  # the search a plan runs
            if entry.result is None:
                ref.plan([block], cur, cfg, layout)
            (mv, cost), luma, entry.luma = entry.result, entry.luma, None
        else:
            searches = search_rounds.Searches([block], cur, table.plane, cfg, layout)
            (mv, cost, luma), = searches.translational([entry], predictors, pred_for_bits, table)
        if luma is not None:  # the winner's luma, for placement
            table.put((False, mv), luma)
        return mv, cost

    searches = search_rounds.Searches([block], cur, table.plane, cfg, layout)
    searches.integer([search_rounds.stage1(predictors)], [entry])
    valid = _mv_check(block, cfg, layout)

    # stage 5 under the model cost: the walk from the integer winner, whose
    # window's rows are filtered once, at 64 x-phases
    anchor = MotionVector(4 * int(searches.bx[0]), 4 * int(searches.by[0]))
    m = BANK_MARGIN  # the stage's row bank spans m pixels beyond the block
    rows = row_bank(table.plane, block.x0 + anchor.dx_q2 // 4 - m, block.y0 + anchor.dy_q2 // 4 - m,
                    block.width + 2 * m, block.height + 2 * m)
    lattice = center_lattice(block, anchor, REFINE_WINDOW_Q2, layout)
    batch_cap = max(1, BATCH_PIXELS // (block.width * block.height))
    walk = search_rounds.walk(anchor, predictors, cfg.lambda_, pred_for_bits)
    mv, ahead = next(walk)
    while True:
        s = None
        if valid(mv):
            if (True, mv) not in table:  # a miss also costs what the walk visits next
                batch = [mv]
                for v in ahead:
                    if len(batch) == batch_cap:
                        break
                    if (True, v) not in table and v not in batch and valid(v):
                        batch.append(v)
                table.put_batch(batch, rows, lattice)
            s = table[True, mv][0]
        try:
            mv, ahead = walk.send(s)
        except StopIteration as done:
            return done.value


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


@functools.lru_cache(maxsize=8)
def _carried(center, mv: MotionVector, to, layout: CubeLayout) -> MotionVector:
    """``transport_mv_predictor``, once per neighbour and block: the merge
    and AMVP scans of a block often read the same neighbour."""
    return transport_mv_predictor(center, mv, to, layout)


def merge_candidate(grid: BlockGrid, block: Block, layout: CubeLayout) -> MotionVector | None:
    """First advanced-coded neighbor MV, transported to this block.

    Zero MVs never qualify, neither at the neighbor nor after the
    transport re-rounds the carried vector to the quarter-pel grid; a
    candidate that collapses to zero is skipped and the scan goes on.
    Returns None when no neighbor qualifies (merge unavailable).
    """
    for center, rec in _decided(grid, block, _MERGE_OFFSETS):
        if rec.mode is not PredMode.TRANS and rec.mv != _ZERO:
            cand = _carried(center, rec.mv, block.center, layout)
            if cand != _ZERO:
                return cand
    return None


def amvp_predictor(grid: BlockGrid, block: Block, layout: CubeLayout) -> MotionVector:
    """Predictor for the searched advanced mode; zero MV as fallback.

    The first decided neighbor supplies its MV, transported to this
    block's center.
    """
    for center, rec in _decided(grid, block, _AMVP_OFFSETS):
        return _carried(center, rec.mv, block.center, layout)
    return _ZERO


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
    can pass it as ``trans_result``.  The merge MV is costed after the
    AMVP search, which has often costed it already (as its predictor,
    say), and each neighbour is transported once for both scans.  Ties
    keep the earlier flavor in the order TRANS, ADV_MERGE, ADV_AMVP.  The
    record is stored in the grid for use by later blocks.  ``bank`` is
    checked as ``tzs_search``'s.
    """
    check_bank(bank)
    if trans_result is None:  # the zero seed is also the MV-bits predictor
        trans_result = tzs_search(block, cur, ref, [_ZERO], cfg, layout, advanced=False)
    mode, (mv, cost) = PredMode.TRANS, trans_result

    amvp = amvp_predictor(grid, block, layout)
    mv_a, cost_a = tzs_search(block, cur, ref, [amvp], cfg, layout, advanced=True)

    merge_mv = merge_candidate(grid, block, layout)
    if merge_mv is not None and _mv_check(block, cfg, layout)(merge_mv):
        # merge codes no MV difference, so its cost is the bare SAD
        cost_m = float(ref.costs(block, cur, layout)[True, merge_mv][0])
        if cost_m < cost:
            mode, mv, cost = PredMode.ADV_MERGE, merge_mv, cost_m

    if cost_a < cost:
        mode, mv, cost = PredMode.ADV_AMVP, mv_a, cost_a

    rec = BlockRecord(mode, mv, cost)
    grid.records[block.x0, block.y0] = rec
    return rec
