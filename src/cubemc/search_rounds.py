"""The array rounds of ``motion_search``'s zone search, and its stage-5 walk.

One engine (``Searches``) runs the integer-pel stages 1-4 of both
searches and costs the translational quarter-pel stage 5: the
translational searches of a whole block row at once
(``ReferencePicture.plan``), the integer stages of one advanced search,
and a lone translational search as a row of one.  It is built from the
blocks' cost tables (``motion_search._CostTable``), each block's only
search state.  Each round replaces the per-candidate validity check,
fetch, SAD and ranking of one-at-a-time evaluation with a few numpy calls
for every active block, and ranks in the same ``_mv_key`` order
(``_firsts``), so every result is that evaluation's.  Stage 3, the
coarse raster, is one round over the rasters of a round's far blocks,
run at most once per block; its result and each integer descent's end
are kept in the block's table, which both of its searches read.

Stage 5 visits its MVs in one order for both models, written once as a
generator (``walk``) that yields each MV to rank with what it visits
next if nothing wins, up to the end of the next pass (``ahead``), and
takes its bare SAD.  Both models cost by one rule: a miss costs
``ahead`` with it.  The translational model does so in array rounds over
a block row's walks (``Searches._refine``), the advanced one in batches
capped by block size (``motion_search.tzs_search``).

The module reads ``motion_search``'s names (``face_of``, ``sad``, the
ring order and stage 2's rings, the raster offsets, the cost table's
not-run raster marker, ``mv_bits`` and the ranking key) through the
module when it runs, so one definition serves both files.  It is a file
of its own because a process that writes no bytecode compiles every
module it imports, and CPython's parser doubles its token buffer past
4096 tokens of one module: one file holding both would cross that step,
and every such process would keep about 0.25 MiB more
(``tests/test_module_boundaries.py`` keeps each module below it).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cubemc import motion_search as ms
from cubemc.geometry import NO_FACE
from cubemc.interp import phase_planes
from cubemc.motion_model import MotionVector, round_half_away

GATHER_PIXELS = 1 << 16  # pixels, cap of one integer-stage gather
REFINE_BYTES = 1 << 18   # bytes, cap of the phase planes of one translational stage-5 chunk
_NO_COST = np.iinfo(np.int64).max  # integer-stage cost of a block with no valid candidate yet


def walk(anchor, predictors, lambda_, pred_for_bits):
    """Stage 5's visiting order, which both models' costings drive: a
    generator that yields ``(mv, ahead)`` and takes the bare SAD of ``mv``
    (None where it is invalid).  It returns ``(best, cost)``.

    The seeds come first: the anchor (the integer winner, which passed the
    integer stages' check), then each predictor, wherever it lies.  Then
    ring passes at steps 2 and 1 visit ``_ring``'s points around the best
    of the moment that lie within ``REFINE_WINDOW_Q2`` of the anchor, in
    order: after a win, the rest of the ring around the new best.  A pass
    that moves the best runs again at its step.  An MV ranks by ``_mv_key``
    of its SAD plus ``lambda_`` times its ``mv_bits`` against
    ``pred_for_bits``, and wins only with a lower key.

    ``ahead`` is what the walk visits after ``mv`` if none of the MVs it
    has yet to rank wins, up to the end of the next pass: the rest of the
    seeds or of the current ring, then the next pass's ring around the
    best of the moment (at the same step after a move in this pass, else
    at half of it; none after step 1).  Both costings follow one rule: a
    miss costs what the walk visits next, ``ahead``, with it.  The walk
    ranks only what it visits, so costing ahead of time changes nothing."""
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

    def ring(step, start=0):
        """``(direction, MV)`` of ``_ring`` at ``step`` around the best, from
        direction ``start`` on, in the window; none at step 0."""
        return [(d, mv) for d, mv in enumerate(ms._ring(best, step, step) if step else ())
                if d >= start and x0 <= mv.dx_q2 <= x1 and y0 <= mv.dy_q2 <= y1]

    seeds = [anchor, *predictors]
    for i, mv in enumerate(seeds):
        won(mv, (yield mv, seeds[i + 1 :] + [v for _, v in ring(2)]))
    step = 2
    while step:
        moved, start = False, 0
        while start is not None:  # the pass's rest, around the best of the moment
            now, start = ring(step, start), None
            mvs = [mv for _, mv in now + ring(step if moved else step // 2)]
            for i, (d, mv) in enumerate(now):
                if won(mv, (yield mv, mvs[i + 1 :])):
                    moved, start = True, d + 1
                    break
        if not moved:
            step //= 2
    return best, best_key[0]


def _firsts(g, c, x, y) -> np.ndarray:
    """The index of the first candidate of each group, groups ``g`` in
    ascending order, where candidates ``(x, y)`` at cost ``c`` rank in
    ``_mv_key`` order (pixel offsets rank as their MVs do); of equal keys
    the earlier candidate, as ``np.lexsort`` is stable."""
    order = np.lexsort((*ms._mv_key(c, x, y)[::-1], g))  # it sorts by its last key first
    gs = g[order]
    head = np.ones(len(g), bool)
    np.not_equal(gs[1:], gs[:-1], out=head[1:])
    return order[head]


class Searches:
    """The searches of the blocks of cost ``tables`` (same-sized blocks of
    one current picture, in one reference luma plane) under ``cfg``, run
    together in array rounds.  A round costs the candidates of every
    active block with one range test, one array ``face_of`` of the moved
    centers (the float64 ``cx + dx_q2 / 4.0`` of ``_mv_check``) and one
    gather of windows and ``sad`` per ``GATHER_PIXELS`` pixels, then ranks
    them in ``_mv_key`` order with ``np.lexsort`` (``_firsts``): a
    composite int64 key would overflow at wide search ranges.  An integer
    window is a view of the reference where it lies inside it; one that
    reaches past an edge is gathered with clamped coordinates, which is
    ``fetch_block`` per coordinate.

    ``integer`` runs stages 1-4 and ``translational`` adds stage 5, each
    block's ``walk`` costed under SAD, whose candidates are slices of each
    block's ``phase_planes``; the advanced search runs ``integer`` on its
    one block.  A round may cost candidates that the one-at-a-time order
    would skip (the rest of a ring after a move, say); they are costed,
    never ranked, so every result is that order's.
    """

    def __init__(self, tables: list[ms._CostTable], cfg: ms.SearchConfig):
        self.tables, self.cfg, self.layout = tables, cfg, tables[0].layout
        self.plane = plane = tables[0].plane
        self.h, self.w = h, w = tables[0].block.height, tables[0].block.width
        self.x0 = np.array([t.block.x0 for t in tables], dtype=np.int64)
        self.y0 = np.array([t.block.y0 for t in tables], dtype=np.int64)
        self.cx, self.cy = self.x0 + (w - 1) / 2.0, self.y0 + (h - 1) / 2.0  # Block.center
        self.cur = np.stack([t.cur_blk for t in tables])
        (ph, pw), (s0, s1) = plane.shape, plane.strides
        self.views = as_strided(plane, (ph - h + 1, pw - w + 1, h, w), (s0, s1, s0, s1),
                                writeable=False)
        # each block's integer-stage best: a pixel offset and its SAD
        n = len(tables)
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
        c = np.concatenate((self.cost, cost))
        x, y = np.concatenate((self.bx, dx)), np.concatenate((self.by, dy))
        first = _firsts(np.concatenate((self.every, i)), c, x, y)  # the best first on a tie
        self.cost, self.bx, self.by = c[first], x[first], y[first]
        return first - len(self.every)

    def integer(self, predictors) -> None:
        """Stages 1-4 from the stage-1 offsets of ``predictors``, zero and
        then each predictor rounded to pixels, leaving each block's winner
        in ``bx`` and ``by``.

        Stages 2-4 depend on the stage-1 winner alone, so each block's table
        keeps where they ended from each start (``ends``), and the end maps
        to itself, as stage 4 stopped there.  A block whose stage-1 offsets
        all have one known end takes it without a round;
        otherwise stage 1 and stage 2's rings around each stage-1 offset
        without a known end are costed in one round.  The stage-3 raster
        runs at most once per block, its result kept in the table too.
        Raises ``ValueError`` if a block has no valid stage-1 offset.
        """
        r = self.cfg.search_range
        starts = [(0, 0), *((int(round_half_away(p.dx_q2 / 4.0)),
                             int(round_half_away(p.dy_q2 / 4.0))) for p in predictors)]
        first, around = [], []  # (block, x, y) of each stage-1 offset, and of each ring center
        for k, t in enumerate(self.tables):
            ends = {t.ends.get(o) for o in starts}
            if len(ends) == 1 and None not in ends:
                self.bx[k], self.by[k] = ends.pop()
            else:
                first += [(k, *o) for o in starts]
                around += [(k, *o) for o in dict.fromkeys(starts) if o not in t.ends]
        if not first:
            return

        # stage 1: zero MV plus rounded predictors (a repeat changes nothing)
        # and, speculatively, stage 2's rings around each of them; a ring
        # offset carries its ring's distance d, a stage-1 offset d = 0
        ring, around = ms.rings(r), np.array(around, np.int64).reshape(-1, 3)
        at = np.concatenate((np.array(first, np.int64), np.tile(around, (len(ring), 1))))
        step = np.zeros_like(at)
        step[len(first) :] = np.repeat(ring, len(around), axis=0)
        ok, (i, dx, dy, sads) = self._cost(at[:, 0], at[:, 1] + step[:, 0], at[:, 2] + step[:, 1])
        at, d = at[ok], step[ok, 2]
        one = d == 0
        self._rank(i[one], dx[one], dy[one], sads[one])
        run = np.zeros(len(self.tables), bool)
        run[[k for k, *_ in first]] = True
        if (self.cost[run] == _NO_COST).any():
            raise ValueError("no valid motion")
        run = np.flatnonzero(run)
        ax, ay = self.bx.copy(), self.by.copy()
        ends = [t.ends for t in self.tables]
        for k in run:
            self.bx[k], self.by[k] = ends[k].get((int(ax[k]), int(ay[k])), (ax[k], ay[k]))
        run = run[[(int(ax[k]), int(ay[k])) not in ends[k] for k in run]]
        if run.size:
            mine = (d > 0) & (at[:, 1] == ax[i]) & (at[:, 2] == ay[i])  # rings around the anchor
            self._descend(run, ax, ay, r, d[mine], [v[mine] for v in (i, dx, dy, sads)])
            for k in run:
                end = int(self.bx[k]), int(self.by[k])
                ends[k][int(ax[k]), int(ay[k])] = ends[k][end] = end

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
        dist = np.zeros(len(self.tables), np.int64)
        for sel in (d <= 2, None):
            if sel is None:
                sel = (d > 2) & (dist[i] == 2)
            won = self._rank(i[sel], dx[sel], dy[sel], sads[sel])
            dist[won >= 0] = d[sel][won[won >= 0]]
        return dist

    def _stage3(self, ks) -> None:
        """Stage 3, the coarse raster, of blocks ``ks``: the ``_raster``
        offsets of every block (those that keep its moved center on the
        canvas), costed in one round, and in each block's table the
        lowest-``_mv_key`` valid one with its SAD, ``(dx, dy, SAD)``, or
        None."""
        if not ks:
            return
        r, w, h = self.cfg.search_range, self.layout.canvas_width, self.layout.canvas_height
        at = []
        for k in ks:
            self.tables[k].raster = None  # unless an offset is valid
            cx, cy = self.tables[k].block.center
            xs, ys = np.meshgrid(ms._raster(cx, w, r), ms._raster(cy, h, r))
            at.append((np.full(xs.size, k), xs.ravel(), ys.ravel()))
        # int64 also where a range is empty (and so float64 in ``np.meshgrid``)
        i, dx, dy = (np.concatenate(v).astype(np.int64) for v in zip(*at))
        _, (i, dx, dy, sads) = self._cost(i, dx, dy)
        for j in _firsts(i, sads, dx, dy).tolist():
            self.tables[i[j]].raster = int(dx[j]), int(dy[j]), int(sads[j])

    def _descend(self, run, ax, ay, r, d, cand) -> None:
        """Stages 2-4 of blocks ``run`` from their anchors ``(ax, ay)``, given
        the costed stage-2 rings ``cand`` at distances ``d`` around them."""
        far = np.flatnonzero(self._stage2(d, cand) > 5)

        # stage 3: coarse raster only when the motion looks large, run at most
        # once per block (``_stage3``) and kept in its table; ranking only its
        # best MV is exact, as distinct MVs never tie on ``_mv_key``
        tables = self.tables
        self._stage3([k for k in far if tables[k].raster is ms._NOT_RUN])
        hits = [(k, *tables[k].raster) for k in far if tables[k].raster is not None]
        if hits:
            self._rank(*(np.array(v, dtype=np.int64) for v in zip(*hits)))

        # stage 4: re-centering small-diamond refinement, ring 1 around the
        # best and ring 2 when ring 1 does not win, until neither does; each
        # round costs both rings.  A best still at its anchor stops at once,
        # as stage 2 ranked both rings there (when r >= 2)
        act = run[(self.bx[run] != ax[run]) | (self.by[run] != ay[run]) | (r < 2)]
        near = ms.rings(2)
        while act.size:
            ok, (i, dx, dy, sads) = self._cost(np.repeat(act, len(near)),
                                               (self.bx[act][:, None] + near[:, 0]).ravel(),
                                               (self.by[act][:, None] + near[:, 1]).ravel())
            one = np.tile(near[:, 2] == 1, len(act))[ok]  # ring 1
            moved = self._rank(i[one], dx[one], dy[one], sads[one]) >= 0
            two = ~one & ~moved[i]  # ring 2, where ring 1 did not win
            moved |= self._rank(i[two], dx[two], dy[two], sads[two]) >= 0
            act = act[moved[act]]

    def translational(self, predictors, pred_for_bits=MotionVector(0, 0)):
        """Translational searches seeded with ``predictors``: ``(mv, cost)``
        per block, each winner's luma written into its table, for
        placement.  Stage 5 runs on chunks of blocks whose phase planes hold
        at most ``REFINE_BYTES``."""
        self.integer(predictors)
        m = ms.REFINE_WINDOW_Q2 // 4
        per = max(1, REFINE_BYTES // (16 * (self.h + 2 * m) * (self.w + 2 * m)))
        return [found for s in range(0, len(self.tables), per) for found in
                self._refine(self.every[s : s + per], predictors, pred_for_bits)]

    def _refine(self, sel, predictors, pred_for_bits):
        """Stage 5 of blocks ``sel``: each block's ``walk`` from its integer
        winner (the anchor), under SAD.  Each block's window is filtered once
        at the 16 quarter-pel phases (``phase_planes``) and a candidate in it
        is a slice; a seed outside it is costed alone, through the block's
        table.

        A round costs, for every walking block at once, the MV each walk
        waits for and every MV of its ``ahead`` not costed yet, each once;
        each walk then takes the costs of the MVs it visits, in order, until
        one is not costed yet (a point around a new best), which waits for
        the next round.  The round's SAD of each winner is written into its
        table with the winner's luma, for placement."""
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
        tables = [self.tables[b] for b in sel]
        costed, out = [{} for _ in sel], [None] * len(sel)
        while at:
            js, mvs = [], []
            for a, (mv, ahead) in at.items():
                new = [v for v in dict.fromkeys((mv, *ahead)) if v not in costed[a]]
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
                sads[t] = tables[js[t]][False, mvs[t]][0]
            for a, mv, s, good in zip(js, mvs, sads.tolist(), ok.tolist()):
                costed[a][mv] = s if good else None
            for a in list(at):
                try:
                    while (mv := at[a][0]) in costed[a]:
                        at[a] = walks[a].send(costed[a][mv])
                except StopIteration as done:
                    out[a] = done.value
                    del at[a]
        # each winner's luma, for placement; offsets in Python ints, as numpy
        # scalar arithmetic pages in 64 KiB of code no other step of an eval runs
        for a, (mv, _) in enumerate(out):
            if (False, mv) not in tables[a]:
                ox, oy = mv.dx_q2 - int(ax[a]) + q, mv.dy_q2 - int(ay[a]) + q
                tables[a].put((False, mv), slices[a, oy & 3, ox & 3, oy >> 2, ox >> 2].copy(),
                              costed[a][mv])
        return out
