"""Sequence-level comparison of translational vs advanced prediction.

For every frame t >= d the evaluator predicts the frame from frame
t - d twice: once with the advanced modes disabled (every block gets
its translational search result) and once with the full mode decision.
Both policies share the translational search, which is seeded with the
zero MV only and therefore independent of neighbor decisions: so each
process plans the translational searches of a block row as it reaches
the row, before waiting for any neighbour (``ReferencePicture.plan``),
and each block's ``tzs_search`` returns its planned result.  Their luma
predictions are read from the block's cost table, where the searches
left them; only chroma is warped here.

Each frame's block rows are split across at most two processes, as a
wavefront: this process and one forked helper each decide the rows a
fixed unit-cost schedule gives them (``_owners``: mostly alternate rows,
with runs of the BOTTOM face's short rows kept in one process), and
exchange decided blocks' records over two pipes.  The waits, the sends
and the schedule all come from ``BlockGrid.above``, the upper neighbours
the merge and AMVP scans read: a block starts only when those have
records, so merge and AMVP see the neighbours raster order gives them
and the report is the same on either schedule.  The helper is
forked only where ``os.sched_getaffinity`` exists (Linux), holds at
least two CPUs, and the grid has at least two block rows.  If the
helper cannot be forked or is lost before it sends its results, this
process re-decides the whole frame alone.

There is no entropy coder in this package, so there is no rate axis and
no BD-rate; the reported figures are prediction PSNR deltas and
per-block SAD, computed over face pixels only.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from cubemc.frame_io import Frame, SyntheticSpec, generate_synthetic, read_yuv420
from cubemc.geometry import CubeLayout
from cubemc.interp import chroma_field, warp_block
from cubemc.motion_model import MotionVector, build_correspondence_field, translational_field
from cubemc.motion_search import (
    BLOCK_SIZES,
    BlockGrid,
    PredMode,
    ReferencePicture,
    SearchConfig,
    mode_decide,
    sad,  # not called here; the benchmark's tracer wraps ``evaluate.sad``
    tzs_search,
)

__all__ = [
    "EvalConfig",
    "EvalConfigError",
    "EvalReport",
    "emit_csv",
    "run_eval",
]

CSV_HEADER = "frame,bx,by,mode,mv_x_q2,mv_y_q2,sad_trans,sad_adv"


class EvalConfigError(ValueError):
    """Configuration problem detected before or while running."""


@dataclass(frozen=True)
class EvalConfig:
    input: str                      # path to a raw 4:2:0 file, or "synthetic"
    face_size: int                  # the canvas is 4 x 3 faces
    block_size: int = 16
    ref_distance: int = 1
    search_range: int = 64
    lambda_: float = 0.0
    out: str = "report.csv"
    synth_velocity: tuple[float, float, float] = (2.0, 0.0, 0.0)
    synth_frames: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("face_size", "block_size", "ref_distance"):
            v = getattr(self, name)
            if not isinstance(v, Integral) or isinstance(v, bool):
                raise EvalConfigError(f"{name} must be an integer")
        if self.block_size not in BLOCK_SIZES:
            raise EvalConfigError("block_size must be 16, 32 or 64")
        if self.face_size % 2:
            raise EvalConfigError("face_size must be even (4:2:0 chroma)")
        if self.face_size < self.block_size:
            raise EvalConfigError("face_size must be at least block_size")
        if self.ref_distance < 1:
            raise EvalConfigError("ref_distance must be at least 1")
        # the search and clip settings are checked by the objects they configure
        self._search_config()
        if self.input == "synthetic":
            self._synthetic_spec()

    def _search_config(self) -> SearchConfig:
        return _checked(SearchConfig, search_range=self.search_range, lambda_=self.lambda_)

    def _synthetic_spec(self) -> SyntheticSpec:
        return _checked(SyntheticSpec, face_width=self.face_size, frames=self.synth_frames,
                        velocity=self.synth_velocity, seed=self.seed)


def _checked(make, **kwargs):
    """``make(**kwargs)``, with its ``ValueError`` raised as ``EvalConfigError``."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise EvalConfigError(str(exc)) from exc


@dataclass
class BlockResult:
    bx: int
    by: int
    mode: PredMode
    mv: MotionVector
    sad_trans: int
    sad_adv: int


@dataclass
class FrameResult:
    poc: int
    psnr_trans: tuple[float, float, float]
    psnr_adv: tuple[float, float, float]
    blocks: list[BlockResult] = field(default_factory=list)


@dataclass
class EvalReport:
    config: EvalConfig
    frames: list[FrameResult]

    def mean_delta(self, plane: int = 0) -> float:
        """Mean advanced-minus-translational PSNR over evaluated frames."""
        deltas = [_psnr_delta(f.psnr_adv[plane], f.psnr_trans[plane]) for f in self.frames]
        return sum(deltas) / len(deltas) if deltas else 0.0

    def advanced_fraction(self) -> float:
        total = sum(len(f.blocks) for f in self.frames)
        adv = sum(
            1 for f in self.frames for b in f.blocks if b.mode is not PredMode.TRANS
        )
        return adv / total if total else 0.0


def _psnr_delta(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return a - b


def _psnr(err_sq_sum: float, count: int) -> float:
    if count == 0 or err_sq_sum == 0.0:
        return float("inf")
    return 10.0 * math.log10(255.0**2 / (err_sq_sum / count))


def _load_frames(cfg: EvalConfig, layout: CubeLayout) -> list[Frame]:
    if cfg.input == "synthetic":
        return generate_synthetic(cfg._synthetic_spec())
    return read_yuv420(cfg.input, layout.canvas_width, layout.canvas_height)


def _place(costs, advanced: bool, mv: MotionVector, cur: Frame, ref: Frame):
    """Predict the block of ``costs`` at ``mv``: luma and its SAD from the
    table, chroma warped along the same field.  Returns the luma SAD and
    each plane's squared prediction error; the predicted block itself is
    not kept."""
    block = costs.block
    sad_y, pred_y = costs[advanced, mv]
    fld = (build_correspondence_field(block, mv, costs.layout) if advanced
           else translational_field(block, mv))
    cfld = chroma_field(fld)
    pred_u = warp_block(ref.u, cfld)
    pred_v = warp_block(ref.v, cfld)
    cx, cy, cw, ch = block.x0 // 2, block.y0 // 2, block.width // 2, block.height // 2

    cur_u = cur.u[cy : cy + ch, cx : cx + cw]
    cur_v = cur.v[cy : cy + ch, cx : cx + cw]
    err = []
    for got, want in ((pred_y, costs.cur_blk), (pred_u, cur_u), (pred_v, cur_v)):
        diff = got.astype(np.float64) - want.astype(np.float64)
        err.append(float((diff * diff).sum()))
    return sad_y, err


class _Peer:
    """The other process of a two-process wavefront, over two pipes; there
    is one only where ``os.sched_getaffinity`` exists (Linux).

    Messages are ``(kind, value)`` pickles: ``"rec"`` carries a decided
    block's ``((x0, y0), BlockRecord)``, ``"done"`` the helper's block
    results.  The helper sends nothing else: when it stops early, for
    any reason, a read here ends in ``EOFError`` (or a partial pickle)
    and a write in ``BrokenPipeError``, and ``_predict_frame`` decides
    the frame again in this process.
    """

    def __init__(self, rfd: int, wfd: int, grid: BlockGrid):
        self.rx, self.tx, self.grid = os.fdopen(rfd, "rb"), os.fdopen(wfd, "wb"), grid

    def send(self, kind: str, value) -> None:
        self.tx.write(pickle.dumps((kind, value), pickle.HIGHEST_PROTOCOL))
        self.tx.flush()

    def receive(self):
        """Read one message: store a record and return None, or return
        the helper's block results."""
        kind, value = pickle.load(self.rx)
        if kind == "rec":
            self.grid.records[value[0]] = value[1]
            return None
        return value

    def close(self) -> None:
        self.rx.close()
        try:
            self.tx.close()
        except BrokenPipeError:  # a message left unflushed for a helper that is gone
            pass


def _owners(grid: BlockGrid) -> list[int]:
    """The process of each of ``grid.rows``: 0 for this one, 1 for the helper.

    The rows go out in order, each to the process whose simulated clock is
    lower (a tie to this process).  Every block costs one unit: it finishes
    at 1 + the later of its process's clock and the finish times of the
    blocks it waits for, ``grid.above`` (the merge and AMVP scans' upper
    neighbours).  This alternates on most grids (face 64 with 16-px
    blocks, 128 with 16- or 32-px ones), and keeps runs of the BOTTOM
    face's short rows in one process where alternating them would leave
    each waiting on the other: face 192 with 64-px blocks gives
    010101000, which ends the unit-cost schedule at 30 instead of 35.
    """
    done, clock, owners = {}, [0, 0], []
    for row in grid.rows:
        p = int(clock[1] < clock[0])
        for b in row:
            up = [done[k] for k in grid.above[b.x0, b.y0]]
            clock[p] = done[b.x0, b.y0] = 1 + max([clock[p], *up])
        owners.append(p)
    return owners


def _predict_rows(grid: BlockGrid, owners, me: int, predict, start, peer=None) -> dict:
    """``predict`` every block of the ``grid.rows`` whose ``owners`` entry
    is ``me``: ``{(x0, y0): result}``.  ``start(row)`` runs as this process
    reaches each of its rows, before the row waits for anything.

    With a ``peer`` deciding the other rows, a block starts only when its
    ``grid.above`` blocks have records: the upper neighbours the merge and
    AMVP scans read, so it sees the neighbours raster order gives it.  The
    scans' other neighbours are the left one, decided here before it, and
    the below-left one, which waits for this block and so is never decided
    yet.  Every wait is for an earlier row, so neither process waits
    forever.

    A record is sent only to a process with a block that reads it, that
    is, when a block the peer owns lists it in ``grid.above``; so the peer
    waits for, and so reads, every record before it finishes, and no write
    finds the pipe closed.  A process starts a row only once the peer has
    started the row above, when the peer owns it.  So while the reader is
    at its row b, every unread record comes from one of two rows: row
    b - 1, which row b reads as it goes, and the row the writer is
    deciding when the reader owns the next one.  Each row the writer
    decided in between is followed by a row of its own, so it sent
    nothing.  A record takes under 200 bytes, and a row holds 64 at face
    256 with 16-px blocks, so about 25 KiB sit in a pipe against its
    64 KiB, and a record write never waits on the reader.

    When this process owns every row, every block above a row is decided
    before the row starts and no record is sent, so no ``peer`` is needed.
    """
    rows = [row for row, p in zip(grid.rows, owners) if p == me]
    mine = {(b.x0, b.y0) for row in rows for b in row}
    read = {k for key, up in grid.above.items() if key not in mine for k in up}
    out = {}
    for row in rows:
        start(row)
        for b in row:
            key = b.x0, b.y0
            for k in grid.above[key]:
                while k not in grid.records:
                    peer.receive()
            out[key] = predict(b)
            if key in read:
                peer.send("rec", (key, grid.records[key]))
    return out


def _predict_frame(grid: BlockGrid, predict, start) -> dict:
    """``predict`` every block of ``grid``: ``{(x0, y0): result}``, calling
    ``start(row)`` as each row begins (``_predict_rows``).

    Where ``os.sched_getaffinity`` exists (Linux) and holds at least two
    CPUs, and the grid has at least two block rows, a forked helper
    decides the rows that ``_owners`` gives it while this process decides
    the others.  If the helper cannot be forked, or is gone before it
    sends its results, the records are dropped and this process decides
    every row itself: an error the helper met in its rows is then raised
    here, and a helper killed from outside costs one re-decision.
    """
    if (len(grid.rows) > 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        out = _split_frame(grid, predict, start)
        if out is not None:
            return out
        grid.records.clear()
    return _predict_rows(grid, [0] * len(grid.rows), 0, predict, start)


def _split_frame(grid: BlockGrid, predict, start) -> dict | None:
    """The two-process wavefront of ``_predict_frame``, or None where the
    helper could not be forked or was lost.

    The helper leaves through ``os._exit`` only, so it never unwinds into
    the caller's frames or flushes stdio buffers it inherited.  It exits
    without a word on an error in its own rows, and on EOF or a broken
    pipe when this process fails; it is reaped before this returns or
    raises.
    """
    owners = _owners(grid)
    down_r, down_w = os.pipe()  # this process -> helper
    up_r, up_w = os.pipe()      # helper -> this process
    try:
        pid = os.fork()
    except OSError:  # no room for another process
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(down_w)
            os.close(up_r)
            peer = _Peer(down_r, up_w, grid)
            peer.send("done", _predict_rows(grid, owners, 1, predict, start, peer))
        finally:
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    peer = _Peer(up_r, down_w, grid)
    try:
        out = _predict_rows(grid, owners, 0, predict, start, peer)
        helper = None
        while helper is None:
            helper = peer.receive()
    except (EOFError, pickle.UnpicklingError, BrokenPipeError):  # the helper is gone
        return None
    finally:
        peer.close()
        os.waitpid(pid, 0)
    out.update(helper)
    return out


def run_eval(cfg: EvalConfig) -> EvalReport:
    """Run both policies over the sequence and collect the report.

    Frames are predicted from the reference ``ref_distance`` earlier;
    PSNR is accumulated over grid-covered face pixels only, identically
    for both policies.
    """
    layout = CubeLayout(cfg.face_size, cfg.face_size)
    frames = _load_frames(cfg, layout)
    if len(frames) <= cfg.ref_distance:
        raise EvalConfigError(
            f"need more than {cfg.ref_distance} frames for ref_distance {cfg.ref_distance}"
        )

    search = cfg._search_config()
    zero = MotionVector(0, 0)

    results = []
    for t in range(cfg.ref_distance, len(frames)):
        cur = frames[t]
        refp = ReferencePicture(frames[t - cfg.ref_distance], frames[t - cfg.ref_distance].poc)
        grid = BlockGrid(layout, cfg.block_size)

        def start(row):  # the row's translational searches, which read no neighbour
            refp.plan(row, cur.y, search, layout)

        def predict(block):
            mv_t, cost_t = tzs_search(block, cur.y, refp, [zero], search, layout, advanced=False)
            rec = mode_decide(block, cur.y, refp, grid, search, layout,
                              trans_result=(mv_t, cost_t))
            costs = refp.costs(block, cur.y, layout)
            sad_t, err_t = _place(costs, False, mv_t, cur, refp.frame)
            # a TRANS record holds mv_t, whose placement is the one just made
            sad_a, err_a = ((sad_t, err_t) if rec.mode is PredMode.TRANS
                            else _place(costs, True, rec.mv, cur, refp.frame))
            return BlockResult(block.x0, block.y0, rec.mode, rec.mv, sad_t, sad_a), err_t, err_a

        done = _predict_frame(grid, predict, start)
        out = [done[b.x0, b.y0] for b in grid.blocks]
        # each error is an integer of at most 255**2 per pixel and each sum
        # stays far below 2**53, so float64 adds them exactly in any order
        luma = len(out) * cfg.block_size**2
        psnr = lambda i: tuple(_psnr(sum(o[i][p] for o in out), n)
                               for p, n in enumerate((luma, luma // 4, luma // 4)))
        results.append(FrameResult(cur.poc, psnr(1), psnr(2), [o[0] for o in out]))
    return EvalReport(cfg, results)


def emit_csv(report: EvalReport, path) -> None:
    """Write the per-block CSV and the key=value summary next to it."""
    lines = [CSV_HEADER]
    for f in report.frames:
        for b in f.blocks:
            lines.append(
                f"{f.poc},{b.bx},{b.by},{b.mode.value},"
                f"{b.mv.dx_q2},{b.mv.dy_q2},{b.sad_trans},{b.sad_adv}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    def fmt(x: float) -> str:
        return "inf" if math.isinf(x) else f"{x:.3f}"

    mean_psnr = lambda sel, i: (
        sum(sel(f)[i] for f in report.frames) / len(report.frames)
        if report.frames
        else float("inf")
    )
    summary = [
        f"frames={len(report.frames)}",
        f"blocks_per_frame={len(report.frames[0].blocks) if report.frames else 0}",
    ]
    for i, plane in enumerate("yuv"):
        summary.append(f"mean_psnr_{plane}_trans={fmt(mean_psnr(lambda f: f.psnr_trans, i))}")
        summary.append(f"mean_psnr_{plane}_adv={fmt(mean_psnr(lambda f: f.psnr_adv, i))}")
        summary.append(f"mean_delta_{plane}={fmt(report.mean_delta(i))}")
    summary.append(f"advanced_fraction={report.advanced_fraction():.4f}")
    with open(str(path) + ".summary", "w") as fh:
        fh.write("\n".join(summary) + "\n")
