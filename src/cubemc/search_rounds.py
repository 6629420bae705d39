"""The array rounds of ``motion_search``'s zone search, and its stage-5 walk.

One engine (``Searches``) runs the integer-pel stages 1-4 of both
searches and costs the translational quarter-pel stage 5: the
translational searches of a whole block row at once
(``ReferencePicture.plan``), the integer stages of one advanced search,
and a lone translational search as a row of one.  Each round replaces the
per-candidate validity check, fetch, SAD and ranking of one-at-a-time
evaluation with a few numpy calls for every active block, and ranks in
the same ``_mv_key`` order, so every result is that evaluation's.  Stage 3
stays one array reduction per block (``motion_search._raster_best``), run
at most once per block; its result and each integer descent's end are
kept in the block's plan entry (``Planned``), which both of its searches
read.

Stage 5 visits its MVs in one order for both models, written once as a
generator (``walk``) that yields each MV to rank and takes its bare SAD.
Each model only costs what the walk visits: the translational one in
array rounds over a block row's walks (``Searches._refine``), the
advanced one an MV at a time, with speculative batches
(``motion_search.tzs_search``).

The module reads ``motion_search``'s names (``face_of``, ``sad``,
``fetch_block``, the raster kernel, the cost table, ``mv_bits`` and the
ranking key) through the module when it runs, so one definition serves
both files.  It is a file of its own because a process that writes no
bytecode compiles every module it imports, and CPython's parser doubles
its token buffer past 4096 tokens of one module: one file holding both
would cross that step, and every such process would keep about 0.25 MiB
more (``tests/test_module_boundaries.py`` keeps each module below it).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cubemc import motion_search as ms
from cubemc.geometry import NO_FACE, CubeLayout
from cubemc.interp import phase_planes
from cubemc.motion_model import Block, MotionVector, round_half_away

GATHER_PIXELS = 1 << 16  # pixels, cap of one integer-stage gather
REFINE_BYTES = 1 << 18   # bytes, cap of the phase planes of one translational stage-5 chunk
_NO_COST = np.iinfo(np.int64).max  # integer-stage cost of a block with no valid candidate yet
# stage-5 ring directions, in ``_ring``'s order: a pass at step s visits s times each
_UNIT_RING = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]


@functools.cache
def rings(r: int) -> np.ndarray:
    """Stage 2's rings ring(d, d // 2) at d = 1, 2, 4, ... <= ``r``, ring by
    ring in ``_ring``'s order, as rows ``(dx, dy, d)`` in pixels: ring 1
    holds rows 0-3, ring 2 rows 4-11, and each wider ring 8 more."""
    return np.array([(p.dx_q2 // 4, p.dy_q2 // 4, 1 << j) for j in range(r.bit_length())
                     for p in ms._ring(ms._ZERO, 4 << j, 4 * (1 << j >> 1))], np.int64)


def stage1(predictors) -> list[tuple[int, int]]:
    """Stage-1 offsets in pixels: zero, then each predictor rounded."""
    return [(0, 0), *((int(round_half_away(p.dx_q2 / 4.0)), int(round_half_away(p.dy_q2 / 4.0)))
                      for p in predictors)]


def walk(anchor, predictors, lambda_, pred_for_bits):
    """Stage 5's visiting order, which both models' costings drive: a
    generator that yields ``(mv, ahead)``, the MV to rank and the MVs it
    visits after it as things stand, and takes the bare SAD of ``mv`` (None
    where it is invalid).  It returns ``(best, cost)``.

    The seeds come first: the anchor (the integer winner, which passed the
    integer stages' check), then each predictor, wherever it lies.  Then
    ring passes at steps 2 and 1 visit ``_ring``'s points around the best
    of the moment that lie within ``REFINE_WINDOW_Q2`` of the anchor, in
    order: after a win, the rest of the ring around the new best.  A pass
    that moves the best runs again at its step.  An MV ranks by ``_mv_key``
    of its SAD plus ``lambda_`` times its ``mv_bits`` against
    ``pred_for_bits``, and wins only with a lower key."""
    q = ms.REFINE_WINDOW_Q2
    x0, x1, y0, y1 = anchor.dx_q2 - q, anchor.dx_q2 + q, anchor.dy_q2 - q, anchor.dy_q2 + q
    best, best_key = anchor, ms._WORST_KEY

    def won(mv, s):
        nonlocal best, best_key
        if s is None:
            return False
        cost = float(s)
        if lambda_:
            cost += lambda_ * ms.mv_bits(mv, pred_for_bits)
        key = ms._mv_key(cost, *mv)
        if key < best_key:
            best, best_key = mv, key
            return True
        return False

    seeds = [anchor, *predictors]
    for i, mv in enumerate(seeds):
        won(mv, (yield mv, seeds[i + 1 :]))
    step = 2
    while step:
        moved, start = False, 0
        while start < len(_UNIT_RING):  # the pass's rest, around the best of the moment
            bx, by = best
            ring = [(d, MotionVector(x, y)) for d, (ux, uy) in enumerate(_UNIT_RING[start:], start)
                    if x0 <= (x := bx + ux * step) <= x1 and y0 <= (y := by + uy * step) <= y1]
            mvs, start = [mv for _, mv in ring], len(_UNIT_RING)
            for i, (d, mv) in enumerate(ring):
                if won(mv, (yield mv, mvs[i + 1 :])):
                    moved, start = True, d + 1
                    break
        if not moved:
            step //= 2
    return best, best_key[0]


NOT_RUN = object()  # a plan entry's raster before stage 3 asks for it


class Planned:
    """What a reference keeps of one block's searches until the block is
    placed: the zero-seeded translational result, that winner's luma until
    the block's cost table takes it, the stage-3 raster result (None when
    no offset is valid) and the end of each integer descent, which both
    searches read."""

    def __init__(self):
        self.result = self.luma = None
        self.raster = NOT_RUN
        self.ends = {}  # stage-1 winner -> where stages 2-4 end from it


class Searches:
    """The searches of same-sized ``blocks`` of ``cur`` in the reference
    luma ``plane``, run together in array rounds.  A round costs the
    candidates of every active block with one range test, one array
    ``face_of`` of the moved centers (the float64 ``cx + dx_q2 / 4.0`` of
    ``_mv_check``) and one gather of windows and ``sad`` per
    ``GATHER_PIXELS`` pixels, then ranks them in ``_mv_key`` order with
    ``np.lexsort``: a composite int64 key would overflow at wide search
    ranges.  An integer window is a view of the reference where it lies
    inside it; one that reaches past an edge is gathered with clamped
    coordinates, which is ``fetch_block`` per coordinate.

    ``integer`` runs stages 1-4 and ``translational`` adds stage 5, each
    block's ``walk`` costed under SAD, whose candidates are slices of each
    block's ``phase_planes``; the advanced search runs ``integer`` on its
    one block.  A round may cost candidates that the one-at-a-time order
    would skip (the rest of a ring after a move, say); they are costed,
    never ranked, so every result is that order's.
    """

    def __init__(self, blocks: list[Block], cur: np.ndarray, plane: np.ndarray,
                 cfg: ms.SearchConfig, layout: CubeLayout):
        self.blocks, self.plane, self.cfg, self.layout = blocks, plane, cfg, layout
        self.cur_plane = cur
        self.h, self.w = h, w = blocks[0].height, blocks[0].width
        self.x0 = np.array([b.x0 for b in blocks], dtype=np.int64)
        self.y0 = np.array([b.y0 for b in blocks], dtype=np.int64)
        self.cx, self.cy = self.x0 + (w - 1) / 2.0, self.y0 + (h - 1) / 2.0  # Block.center
        self.cur = np.stack([cur[b.y0 : b.y0 + h, b.x0 : b.x0 + w] for b in blocks])
        (ph, pw), (s0, s1) = plane.shape, plane.strides
        self.views = as_strided(plane, (ph - h + 1, pw - w + 1, h, w), (s0, s1, s0, s1),
                                writeable=False)
        # each block's integer-stage best: a pixel offset and its SAD
        n = len(blocks)
        self.every = np.arange(n)
        self.bx, self.by = np.zeros(n, np.int64), np.zeros(n, np.int64)
        self.cost = np.full(n, _NO_COST, np.int64)

    def _valid(self, i, dx, dy, unit=4) -> np.ndarray:
        """``_mv_check`` of the MVs ``(dx, dy)`` of blocks ``i``, in 1/``unit``
        pixels: ``dx / unit`` is the float64 ``dx_q2 / 4.0`` of an MV."""
        limit = unit * self.cfg.search_range
        ok = (np.abs(dx) <= limit) & (np.abs(dy) <= limit)
        return ok & (ms.face_of(self.cx[i] + dx / unit, self.cy[i] + dy / unit, self.layout)
                     != NO_FACE)

    def _windows(self, x, y) -> np.ndarray:
        """The (h, w) windows of the reference at ``(x, y)``, edge-clamped."""
        vh, vw = self.views.shape[:2]
        inside = (x >= 0) & (x < vw) & (y >= 0) & (y < vh)
        if inside.all():
            return self.views[y, x]
        out = np.empty((len(x), self.h, self.w), np.uint8)
        out[inside] = self.views[y[inside], x[inside]]
        off = ~inside
        rows = np.minimum(np.maximum(y[off, None] + np.arange(self.h), 0), vh + self.h - 2)
        cols = np.minimum(np.maximum(x[off, None] + np.arange(self.w), 0), vw + self.w - 2)
        out[off] = self.plane[rows[:, :, None], cols[:, None, :]]
        return out

    def _cost(self, i, dx, dy):
        """The valid ones of pixel offsets ``(dx, dy)`` of blocks ``i``: their
        mask, and ``(i, dx, dy, SAD)`` of each."""
        ok = self._valid(i, dx, dy, 1)
        i, dx, dy = i[ok], dx[ok], dy[ok]
        x, y, n = self.x0[i] + dx, self.y0[i] + dy, GATHER_PIXELS // (self.h * self.w)
        sads = [ms.sad(self._windows(x[s : s + n], y[s : s + n]), self.cur[i[s : s + n]])
                for s in range(0, len(i) or 1, n)]
        return ok, (i, dx, dy, np.concatenate(sads))

    def _rank(self, i, dx, dy, cost) -> np.ndarray:
        """Rank candidates ``(dx, dy)`` of blocks ``i`` at ``cost`` against
        each block's best, in ``_mv_key`` order (pixel offsets rank as their
        MVs do).  A tie keeps the best, so a candidate wins only with a lower
        key, as one at a time.  Returns, per block, the index of the winning
        candidate, or a negative number where the best stays."""
        g = np.concatenate((self.every, i))
        c = np.concatenate((self.cost, cost))
        x, y = np.concatenate((self.bx, dx)), np.concatenate((self.by, dy))
        order = np.lexsort((x, y, x * x + y * y, c, g))  # stable: the best first on a tie
        head = np.ones(len(g), bool)
        gs = g[order]
        np.not_equal(gs[1:], gs[:-1], out=head[1:])
        first = order[head]
        self.cost, self.bx, self.by = c[first], x[first], y[first]
        return first - len(self.every)

    def integer(self, starts, entries) -> None:
        """Stages 1-4 from the pixel offsets ``starts`` (one list per block),
        leaving each block's winner in ``bx`` and ``by``.

        Stages 2-4 depend on the stage-1 winner alone, so each block's plan
        entry (``entries``) keeps where they ended from each start, and the
        end maps to itself, as stage 4 stopped there.  A block whose
        stage-1 offsets all have one known end takes it without a round;
        otherwise stage 1 and stage 2's rings around each stage-1 offset
        without a known end are costed in one round.  The stage-3 raster
        runs at most once per block, its result kept in the entry too.
        Raises ``ValueError`` if a block has no valid stage-1 offset.
        """
        r = self.cfg.search_range
        first, around = [], []  # (block, x, y) of each stage-1 offset, and of each ring center
        for k, (s, e) in enumerate(zip(starts, entries)):
            ends = {e.ends.get(o) for o in s}
            if len(ends) == 1 and None not in ends:
                self.bx[k], self.by[k] = ends.pop()
            else:
                first += [(k, *o) for o in s]
                around += [(k, *o) for o in dict.fromkeys(s) if o not in e.ends]
        if not first:
            return

        # stage 1: zero MV plus rounded predictors (a repeat changes nothing)
        # and, speculatively, stage 2's rings around each of them; a ring
        # offset carries its ring's distance d, a stage-1 offset d = 0
        ring, around = rings(r), np.array(around, np.int64).reshape(-1, 3)
        at = np.concatenate((np.array(first, np.int64), np.tile(around, (len(ring), 1))))
        step = np.zeros_like(at)
        step[len(first) :] = np.repeat(ring, len(around), axis=0)
        ok, (i, dx, dy, sads) = self._cost(at[:, 0], at[:, 1] + step[:, 0], at[:, 2] + step[:, 1])
        at, d = at[ok], step[ok, 2]
        one = d == 0
        self._rank(i[one], dx[one], dy[one], sads[one])
        run = np.zeros(len(self.blocks), bool)
        run[[k for k, *_ in first]] = True
        if (self.cost[run] == _NO_COST).any():
            raise ValueError("no valid motion")
        run = np.flatnonzero(run)
        ax, ay = self.bx.copy(), self.by.copy()
        for k in run:
            self.bx[k], self.by[k] = entries[k].ends.get((int(ax[k]), int(ay[k])), (ax[k], ay[k]))
        run = run[[(int(ax[k]), int(ay[k])) not in entries[k].ends for k in run]]
        if run.size:
            mine = (d > 0) & (at[:, 1] == ax[i]) & (at[:, 2] == ay[i])  # rings around the anchor
            self._descend(run, ax, ay, r, entries, d[mine], [v[mine] for v in (i, dx, dy, sads)])
            for k in run:
                end = int(self.bx[k]), int(self.by[k])
                entries[k].ends[int(ax[k]), int(ay[k])] = entries[k].ends[end] = end

    def _stage2(self, d, cand) -> np.ndarray:
        """Stage 2 from the costed rings ``cand`` (``_cost``'s arrays) at
        distances ``d`` around each block's anchor: each block's
        ``best_dist``, the distance of the last ring that won, or 0.

        Once the rings pass distance 1 without moving the best away from
        the anchor's immediate neighborhood, that is, unless ring 2 wins,
        wider rings are skipped.  So rings 1 and 2 always run, then, where
        ring 2 won, every wider one.  Each group is ranked at once: as a
        ring wins only by beating every ring before it, the last ring that
        wins holds the group's winner."""
        i, dx, dy, sads = cand
        dist = np.zeros(len(self.blocks), np.int64)
        for sel in (d <= 2, None):
            if sel is None:
                sel = (d > 2) & (dist[i] == 2)
            won = self._rank(i[sel], dx[sel], dy[sel], sads[sel])
            dist[won >= 0] = d[sel][won[won >= 0]]
        return dist

    def _descend(self, run, ax, ay, r, entries, d, cand) -> None:
        """Stages 2-4 of blocks ``run`` from their anchors ``(ax, ay)``, given
        the costed stage-2 rings ``cand`` at distances ``d`` around them."""
        far = self._stage2(d, cand) > 5

        # stage 3: coarse raster only when the motion looks large; offsets
        # whose center leaves the canvas would be rejected, so none is visited.
        # It is one array reduction per block; ranking only its best MV is
        # exact, as distinct MVs never tie on ``_mv_key``
        hits = []
        for k in np.flatnonzero(far):
            e, b = entries[k], self.blocks[k]
            if e.raster is NOT_RUN:
                cx, cy = b.center
                e.raster = ms._raster_best(b, self.cur[k], self.plane, self.layout,
                                           ms._raster(cx, self.layout.canvas_width, r),
                                           ms._raster(cy, self.layout.canvas_height, r))
            if e.raster is not None:
                (mx, my), s = e.raster
                hits.append((k, mx // 4, my // 4, s))
        if hits:
            self._rank(*(np.array(v, dtype=np.int64) for v in zip(*hits)))

        # stage 4: re-centering small-diamond refinement, ring 1 around the
        # best and ring 2 when ring 1 does not win, until neither does; each
        # round costs both rings.  A best still at its anchor stops at once,
        # as stage 2 ranked both rings there (when r >= 2)
        act = run[(self.bx[run] != ax[run]) | (self.by[run] != ay[run]) | (r < 2)]
        near = rings(2)
        while act.size:
            ok, (i, dx, dy, sads) = self._cost(np.repeat(act, len(near)),
                                               (self.bx[act][:, None] + near[:, 0]).ravel(),
                                               (self.by[act][:, None] + near[:, 1]).ravel())
            one = np.tile(near[:, 2] == 1, len(act))[ok]  # ring 1
            moved = self._rank(i[one], dx[one], dy[one], sads[one]) >= 0
            two = ~one & ~moved[i]  # ring 2, where ring 1 did not win
            moved |= self._rank(i[two], dx[two], dy[two], sads[two]) >= 0
            act = act[moved[act]]

    def translational(self, entries, predictors, pred_for_bits=MotionVector(0, 0), table=None):
        """Translational searches seeded with ``predictors``: ``(mv, cost,
        luma)`` per block.  Stage 5 runs on chunks of blocks whose phase
        planes hold at most ``REFINE_BYTES``; a seed outside a block's window
        is costed alone, through ``table`` (the cost table of a lone block)
        when given."""
        self.integer([stage1(predictors)] * len(self.blocks), entries)
        m = ms.REFINE_WINDOW_Q2 // 4
        per = max(1, REFINE_BYTES // (16 * (self.h + 2 * m) * (self.w + 2 * m)))
        return [found for s in range(0, len(self.blocks), per) for found in
                self._refine(self.every[s : s + per], predictors, pred_for_bits, table)]

    def _refine(self, sel, predictors, pred_for_bits, table):
        """Stage 5 of blocks ``sel``: each block's ``walk`` from its integer
        winner (the anchor), under SAD.  Each block's window is filtered once
        at the 16 quarter-pel phases (``phase_planes``) and a candidate in it
        is a slice; a seed outside it is costed alone, through ``table`` (the
        cost table of a lone block) when given.

        A round costs the MV each walk waits for and the MVs it visits after
        it, for every walking block at once; each walk then takes the costs
        of the MVs it visits, in order, until one is not costed yet (a point
        around a new best, say), which waits for the next round."""
        q, m, (h, w) = ms.REFINE_WINDOW_Q2, ms.REFINE_WINDOW_Q2 // 4, (self.h, self.w)
        planes = np.stack([phase_planes(self.plane, int(self.x0[b] + self.bx[b]) - m,
                                        int(self.y0[b] + self.by[b]) - m, w + 2 * m, h + 2 * m)
                           for b in sel])
        p = planes.strides
        slices = as_strided(planes, (len(sel), 4, 4, 2 * m + 1, 2 * m + 1, h, w),
                            (*p[:3], p[3], p[4], p[3], p[4]), writeable=False)
        ax, ay = 4 * self.bx[sel], 4 * self.by[sel]  # the anchors, in quarter-pels
        walks = [walk(MotionVector(int(x), int(y)), predictors, self.cfg.lambda_, pred_for_bits)
                 for x, y in zip(ax, ay)]
        at = {a: next(wk) for a, wk in enumerate(walks)}  # each walk's (mv, ahead)
        costed, lumas, out = [{} for _ in sel], {}, [None] * len(sel)
        while at:
            js, mvs = [], []
            for a, (mv, ahead) in at.items():
                new = [mv, *(v for v in ahead if v not in costed[a])]
                js += [a] * len(new)
                mvs += new
            j = np.array(js, np.int64)
            dx, dy = np.array(mvs, np.int64).T
            ox, oy = dx - ax[j] + q, dy - ay[j] + q
            ok = self._valid(sel[j], dx, dy)
            inw = ok & (np.abs(ox - q) <= q) & (np.abs(oy - q) <= q)
            sads = np.zeros(len(j), np.int64)
            ox, oy, jt = ox[inw], oy[inw], j[inw]
            sads[inw] = ms.sad(slices[jt, oy & 3, ox & 3, oy >> 2, ox >> 2], self.cur[sel[jt]])
            for t in np.flatnonzero(ok & ~inw):  # a seed outside the window, costed alone
                a, mv = js[t], mvs[t]
                tab = ms._CostTable(self.blocks[sel[a]], self.cur_plane, self.plane,
                                    self.layout) if table is None else table
                sads[t], lumas[a, mv] = tab[False, mv]
            for a, mv, s, good in zip(js, mvs, sads.tolist(), ok.tolist()):
                costed[a][mv] = s if good else None
            for a in list(at):
                mv, ahead = at[a]
                try:
                    while mv in costed[a]:
                        mv, ahead = walks[a].send(costed[a][mv])
                    at[a] = mv, ahead
                except StopIteration as done:
                    out[a] = done.value
                    del at[a]
        # each winner's luma, for placement; offsets in Python ints, as numpy
        # scalar arithmetic pages in 64 KiB of code no other step of an eval runs
        for a, (mv, cost) in enumerate(out):
            ox, oy = mv.dx_q2 - int(ax[a]) + q, mv.dy_q2 - int(ay[a]) + q
            if (a, mv) not in lumas:
                lumas[a, mv] = slices[a, oy & 3, ox & 3, oy >> 2, ox >> 2].copy()
            out[a] = mv, cost, lumas[a, mv]
        return out
