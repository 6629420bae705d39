"""Command-line entry point.

Exit codes: 0 on success, 2 on configuration errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from cubemc.evaluate import EvalConfig, EvalConfigError, emit_csv, run_eval
from cubemc.geometry import CubeLayout
from cubemc.motion_search import BLOCK_SIZES, BlockGrid

_EVAL_DESCRIPTION = """\
Compare translational and advanced (sphere-uniform) motion compensation
over a 4x3 cube-map sequence and write a per-block CSV report.

There is no entropy coder here and therefore no rate axis: BD-rate is
replaced by prediction-PSNR deltas (advanced minus translational) and
per-block SAD figures.  Aggregates land in <out>.summary.
"""


def _velocity(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers, e.g. 2,0,0")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return (x, y, z)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemc",
        description="Sphere-uniform motion compensation tools for 4x3 cube-map video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser(
        "eval",
        help="run the translational-vs-advanced prediction comparison",
        description=_EVAL_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ev.add_argument(
        "--input",
        required=True,
        help="raw planar 8-bit YUV 4:2:0 file, or the word 'synthetic'",
    )
    ev.add_argument("--width", type=int, default=0, help="canvas width (file input)")
    ev.add_argument("--height", type=int, default=0, help="canvas height (file input)")
    ev.add_argument("--face-size", type=int, required=True, help="cube face width in pixels")
    ev.add_argument("--block-size", type=int, default=16, choices=BLOCK_SIZES)
    ev.add_argument("--ref-distance", type=int, default=1, help="frames between current and reference")
    ev.add_argument("--search-range", type=int, default=64, help="integer search range in pixels")
    ev.add_argument("--lambda", dest="lambda_", type=float, default=0.0,
                    help="weight of the MV-bits proxy in the search cost")
    ev.add_argument("--out", default="report.csv", help="CSV output path")
    ev.add_argument("--synth-velocity", type=_velocity, default=(2.0, 0.0, 0.0),
                    metavar="X,Y,Z", help="sphere velocity in pixels/frame (synthetic input)")
    ev.add_argument("--synth-frames", type=int, default=5, help="frame count (synthetic input)")
    ev.add_argument("--seed", type=int, default=0, help="texture seed (synthetic input)")
    return parser


def _eval_command(args: argparse.Namespace) -> int:
    try:
        # every option's dest is the name of its EvalConfig field
        cfg = EvalConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(EvalConfig)})
    except EvalConfigError as exc:
        print(f"cubemc: config error: {exc}", file=sys.stderr)
        return 2

    if cfg.face_size % cfg.block_size:
        # blocks tile the canvas, so face border strips fall outside every block
        grid = BlockGrid(CubeLayout(cfg.face_size, cfg.face_size), cfg.block_size)
        dropped = 1 - len(grid.blocks) * cfg.block_size**2 / (6 * cfg.face_size**2)
        print(
            f"cubemc: warning: {dropped:.1%} of face pixels lie outside the "
            f"{cfg.block_size}-px block grid and are left out of the PSNR",
            file=sys.stderr,
        )

    try:
        report = run_eval(cfg)
        emit_csv(report, cfg.out)
    except EvalConfigError as exc:
        print(f"cubemc: config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"cubemc: i/o error: {exc}", file=sys.stderr)
        return 3

    print(
        f"evaluated {len(report.frames)} frame(s): "
        f"mean Y-PSNR delta {report.mean_delta(0):+.3f} dB, "
        f"advanced fraction {report.advanced_fraction():.4f} "
        f"-> {cfg.out}"
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1,0,0 for an option: pass it in the =
    # form, after --synth-velocity or any prefix of it that is not ambiguous
    for i in reversed(range(len(argv) - 1)):
        if (argv[i].startswith("--synth-v") and "--synth-velocity".startswith(argv[i])
                and argv[i + 1].startswith("-")):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    if args.command == "eval":
        return _eval_command(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
