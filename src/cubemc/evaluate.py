"""Sequence-level comparison of translational vs advanced prediction.

For every frame t >= d the evaluator predicts the frame from frame
t - d twice: once with the advanced modes disabled (every block gets
its translational search result) and once with the full mode decision.
Both policies share the translational search, which is seeded with the
zero MV only and therefore independent of neighbor decisions.  Their
luma predictions are read from the block's cost table, where the
searches left them; only chroma is warped here.

There is no entropy coder in this package, so there is no rate axis and
no BD-rate; the reported figures are prediction PSNR deltas and
per-block SAD, computed over face pixels only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from cubemc.frame_io import Frame, SyntheticSpec, generate_synthetic, read_yuv420
from cubemc.geometry import CubeLayout
from cubemc.interp import chroma_field, generate_dctif_bank, warp_block
from cubemc.motion_model import Block, MotionVector, build_correspondence_field, translational_field
from cubemc.motion_search import (
    BLOCK_SIZES,
    BlockGrid,
    PredMode,
    ReferencePicture,
    SearchConfig,
    mode_decide,
    sad,
    tzs_search,
)

__all__ = [
    "EvalConfig",
    "EvalConfigError",
    "BlockResult",
    "FrameResult",
    "EvalReport",
    "run_eval",
    "emit_csv",
    "CSV_HEADER",
]

CSV_HEADER = "frame,bx,by,mode,mv_x_q2,mv_y_q2,sad_trans,sad_adv"


class EvalConfigError(ValueError):
    """Configuration problem detected before or while running."""


@dataclass(frozen=True)
class EvalConfig:
    input: str                      # path to a raw 4:2:0 file, or "synthetic"
    face_size: int
    width: int = 0                  # required for file input; derived otherwise
    height: int = 0
    block_size: int = 16
    ref_distance: int = 1
    search_range: int = 64
    lambda_: float = 0.0
    out: str = "report.csv"
    synth_velocity: tuple[float, float, float] = (2.0, 0.0, 0.0)
    synth_frames: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("face_size", "width", "height", "block_size", "ref_distance"):
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
        elif self.width != 4 * self.face_size or self.height != 3 * self.face_size:
            raise EvalConfigError("width/height must be 4x and 3x the face size for file input")

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


def _load_frames(cfg: EvalConfig) -> list[Frame]:
    if cfg.input == "synthetic":
        return generate_synthetic(cfg._synthetic_spec())
    return read_yuv420(cfg.input, cfg.width, cfg.height)


def _field_for(block: Block, advanced: bool, mv: MotionVector, layout: CubeLayout):
    if advanced:
        return build_correspondence_field(block, mv, layout)
    return translational_field(block, mv)


class _Predictor:
    """One policy's squared prediction error and pixel count per plane;
    the predicted picture itself is not kept."""

    def __init__(self, cur: Frame):
        self.cur = cur
        self.err = [0.0, 0.0, 0.0]
        self.count = [0, 0, 0]

    def place(self, costs, advanced: bool, mv: MotionVector, ref: Frame) -> int:
        """Predict the block of ``costs`` at ``mv``: luma from the table, chroma
        warped along the same field; returns the luma SAD."""
        block, bank = costs.block, costs.bank
        x0, y0, w, h = block.x0, block.y0, block.width, block.height
        pred_y = costs[advanced, mv][1]
        cfld = chroma_field(_field_for(block, advanced, mv, costs.layout))
        pred_u = warp_block(ref.u, cfld, bank)
        pred_v = warp_block(ref.v, cfld, bank)
        cx, cy, cw, chh = x0 // 2, y0 // 2, w // 2, h // 2

        cur_y = self.cur.y[y0 : y0 + h, x0 : x0 + w]
        cur_u = self.cur.u[cy : cy + chh, cx : cx + cw]
        cur_v = self.cur.v[cy : cy + chh, cx : cx + cw]
        for i, (got, want) in enumerate(
            ((pred_y, cur_y), (pred_u, cur_u), (pred_v, cur_v))
        ):
            diff = got.astype(np.float64) - want.astype(np.float64)
            self.err[i] += float((diff * diff).sum())
            self.count[i] += diff.size
        return sad(cur_y, pred_y)

    def psnr(self) -> tuple[float, float, float]:
        return tuple(_psnr(e, c) for e, c in zip(self.err, self.count))


def run_eval(cfg: EvalConfig) -> EvalReport:
    """Run both policies over the sequence and collect the report.

    Frames are predicted from the reference ``ref_distance`` earlier;
    PSNR is accumulated over grid-covered face pixels only, identically
    for both policies.
    """
    frames = _load_frames(cfg)
    layout = CubeLayout(cfg.face_size, cfg.face_size)
    if len(frames) <= cfg.ref_distance:
        raise EvalConfigError(
            f"need more than {cfg.ref_distance} frames for ref_distance {cfg.ref_distance}"
        )

    search = cfg._search_config()
    bank = generate_dctif_bank()
    zero = MotionVector(0, 0)

    results = []
    for t in range(cfg.ref_distance, len(frames)):
        cur = frames[t]
        refp = ReferencePicture(frames[t - cfg.ref_distance], frames[t - cfg.ref_distance].poc)
        grid = BlockGrid(layout, cfg.block_size)
        pol_t = _Predictor(cur)
        pol_a = _Predictor(cur)
        rows = []
        for block in grid.blocks:
            mv_t, cost_t = tzs_search(block, cur.y, refp, [zero], search, layout, bank,
                                      advanced=False)
            rec = mode_decide(
                block, cur.y, refp, grid, search, layout, bank,
                trans_result=(mv_t, cost_t),
            )
            costs = refp.costs(block, cur.y, layout, bank)
            sad_trans = pol_t.place(costs, False, mv_t, refp.frame)
            sad_adv = pol_a.place(costs, rec.mode is not PredMode.TRANS, rec.mv, refp.frame)
            rows.append(BlockResult(block.x0, block.y0, rec.mode, rec.mv, sad_trans, sad_adv))
        results.append(FrameResult(cur.poc, pol_t.psnr(), pol_a.psnr(), rows))
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
