"""Tests for the sequence evaluator and its CSV/summary emission."""

import hashlib
import json
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cubemc import cli, evaluate, motion_model, motion_search, search_rounds
from cubemc.evaluate import (
    CSV_HEADER,
    BlockResult,
    EvalConfig,
    EvalConfigError,
    EvalReport,
    FrameResult,
    emit_csv,
    run_eval,
)
from cubemc.frame_io import SyntheticSpec, generate_synthetic, write_yuv420
from cubemc.geometry import CubeLayout
from cubemc.motion_model import MotionVector
from cubemc.motion_search import BlockGrid, PredMode


@pytest.fixture
def one_cpu():
    """Pin this process to one CPU, so ``run_eval`` decides every block
    itself, and restore its affinity afterwards."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the two-process wavefront needs two CPUs",
)


def small_cfg(**kw):
    base = dict(
        input="synthetic",
        face_size=32,
        synth_frames=2,
        synth_velocity=(1.0, 0.0, 0.0),
        seed=2,
    )
    base.update(kw)
    return EvalConfig(**base)


class TestConfigValidation:
    def test_block_size(self):
        with pytest.raises(EvalConfigError, match="block_size"):
            small_cfg(block_size=24)

    def test_file_input_requires_matching_canvas(self, tmp_path, capsys):
        # the canvas follows the face size; --width/--height only check it
        argv = ["eval", "--input", "x.yuv", "--face-size", "64", "--out", str(tmp_path / "r.csv")]
        assert cli.main([*argv, "--width", "256", "--height", "128"]) == 2
        assert "config error: width/height must be 4x and 3x" in capsys.readouterr().err

    def test_ref_distance(self):
        with pytest.raises(EvalConfigError, match="ref_distance"):
            small_cfg(ref_distance=0)

    @pytest.mark.parametrize("face", [9, 33, 65])
    def test_odd_face_size(self, face):
        # a 4:2:0 canvas needs an even 3*face luma height
        with pytest.raises(EvalConfigError, match="even"):
            small_cfg(face_size=face)
        with pytest.raises(EvalConfigError, match="even"):
            EvalConfig(input="x.yuv", face_size=face)

    @pytest.mark.parametrize("face,block", [(8, 16), (10, 16), (32, 64), (48, 64)])
    def test_face_smaller_than_block(self, face, block):
        # such a grid holds no block, so every PSNR would be empty
        with pytest.raises(EvalConfigError, match="at least block_size"):
            small_cfg(face_size=face, block_size=block)

    @pytest.mark.parametrize("face,block", [(16, 16), (64, 64), (72, 16)])
    def test_face_not_below_block_accepted(self, face, block):
        assert small_cfg(face_size=face, block_size=block).face_size == face

    def test_velocity_bound_is_config_error(self):
        with pytest.raises(EvalConfigError, match="velocity"):
            run_eval(small_cfg(synth_velocity=(40.0, 0.0, 0.0)))

    @pytest.mark.parametrize("velocity", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.5)], ids=["two", "four"])
    def test_velocity_of_other_than_three_components(self, velocity):
        # (1, 0) raised IndexError mid-run; (1, 0, 0, 0.5) ran as (1, 0, 0)
        with pytest.raises(EvalConfigError, match="three components"):
            small_cfg(synth_velocity=velocity)

    @pytest.mark.parametrize("velocity", [2.0, ("1", "0", "0")], ids=["scalar", "strings"])
    def test_velocity_of_non_numbers(self, velocity):
        # both raised TypeError, which no caller of EvalConfig expects
        with pytest.raises(EvalConfigError, match="velocity"):
            EvalConfig(input="synthetic", face_size=32, synth_velocity=velocity)

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(synth_velocity=(40.0, 0.0, 0.0)), "velocity"),
            (dict(seed=-1), "seed"),
            (dict(synth_frames=0), "frames"),
            (dict(search_range=0), "search_range"),
        ],
        ids=["velocity", "seed", "synth-frames", "search-range"],
    )
    def test_search_and_clip_settings_fail_at_construction(self, kw, message):
        # checked by the SearchConfig and SyntheticSpec the config builds,
        # when the config is built, not first when run_eval uses them
        with pytest.raises(EvalConfigError, match=message):
            small_cfg(**kw)

    @pytest.mark.parametrize("kw,name", [
        (dict(search_range=64.0), "search_range"),
        (dict(block_size=16.0), "block_size"),
        (dict(face_size=32.0), "face_size"),
        (dict(ref_distance=1.0), "ref_distance"),
        (dict(synth_frames=2.0), "frames"),
        (dict(seed=0.0), "seed"),
        (dict(ref_distance=True), "ref_distance"),
    ])
    def test_non_integer_sizes_rejected(self, kw, name):
        # each would pass the range checks, then fail mid-run where a size
        # builds a range or an array shape
        with pytest.raises(EvalConfigError, match=f"{name} must be an integer"):
            small_cfg(**kw)

    def test_numpy_integer_search_range_reports_as_its_int(self, tmp_path):
        # 4 * np.uint8(64) overflowed the search's limit to 0, so every MV but
        # the anchor was invalid and the report silently changed
        cfg = EvalConfig(input="synthetic", face_size=32, synth_frames=2,
                         search_range=np.uint8(64))
        assert type(cfg._search_config().search_range) is int
        for name, c in (("numpy", cfg), ("int", EvalConfig(input="synthetic", face_size=32,
                                                            synth_frames=2, search_range=64))):
            emit_csv(run_eval(c), tmp_path / f"{name}.csv")
        for suffix in ("", ".summary"):
            assert ((tmp_path / f"numpy.csv{suffix}").read_bytes()
                    == (tmp_path / f"int.csv{suffix}").read_bytes())

    def test_numpy_integer_sizes_accepted(self):
        cfg = small_cfg(face_size=np.int64(32), block_size=np.int32(16), ref_distance=np.int16(1),
                        search_range=np.uint8(8), synth_frames=np.int64(2), seed=np.int64(2))
        assert run_eval(cfg).frames[0].blocks

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(EvalConfigError, match="lambda"):
            small_cfg(lambda_=lam)

    def test_too_few_frames_for_distance(self):
        with pytest.raises(EvalConfigError, match="frames"):
            run_eval(small_cfg(synth_frames=2, ref_distance=2))


class TestRunEval:
    def test_static_sequence_has_zero_delta_and_no_advanced(self):
        report = run_eval(small_cfg(synth_velocity=(0.0, 0.0, 0.0), synth_frames=3))
        assert len(report.frames) == 2
        for fr in report.frames:
            assert all(math.isinf(p) for p in fr.psnr_trans)
            assert all(math.isinf(p) for p in fr.psnr_adv)
            for b in fr.blocks:
                assert b.mode is PredMode.TRANS
                assert b.mv == MotionVector(0, 0)
                assert b.sad_trans == 0 and b.sad_adv == 0
        assert report.mean_delta(0) == 0.0
        assert report.advanced_fraction() == 0.0

    def test_moving_sequence_gains_luma_psnr(self):
        report = run_eval(small_cfg(face_size=64, synth_velocity=(2.0, 0.0, 0.0)))
        assert report.mean_delta(0) > 0.0
        assert 0.0 < report.advanced_fraction() <= 1.0

    def test_block_results_cover_grid(self):
        report = run_eval(small_cfg())
        fr = report.frames[0]
        assert len(fr.blocks) == 6 * 4  # 32px faces, 16px blocks
        assert fr.poc == 1


class TestNoRepeatedWork:
    """Both searches, the merge check and placement share one cost table
    per block, and the two searches one plan entry: within a frame no block
    runs integer stages 2-4 twice from one start or builds an advanced
    field twice, and placement warps chroma only, once per distinct
    placement.  Each block's work is done before the next block's starts,
    so the one-entry sphere-grid cache misses once per block and frame."""

    def test_face64_counts(self, monkeypatch, one_cpu):
        # pinned to one CPU: the spies count in this process, and a
        # wavefront helper would decide half the blocks out of their sight
        motion_model._block_sphere.cache_clear()
        block = {}
        descents, built, placed = Counter(), Counter(), []

        def spy(module, name, record):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                record(args)
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # the evaluator's translational search opens each block; the frame
        # is told apart by its current luma array, which lives all run long
        spy(evaluate, "tzs_search", lambda a: block.update(key=(id(a[1]), a[0])))
        spy(search_rounds.Searches, "_descend", lambda a: descents.update(
            (id(a[0].cur_plane), a[0].blocks[k], int(a[2][k]), int(a[3][k])) for k in a[1]))
        spy(motion_search, "build_correspondence_field",
            lambda a: built.update([(block["key"], a[1])]))
        spy(motion_search, "build_correspondence_fields",
            lambda a: built.update((block["key"], mv) for mv in a[1]))
        spy(evaluate, "warp_block", placed.append)

        report = run_eval(EvalConfig(input="synthetic", face_size=64, synth_frames=3,
                                     synth_velocity=(2.0, 0.0, 0.0), lambda_=4.0, seed=0))
        blocks = sum(len(f.blocks) for f in report.frames)
        assert blocks == 2 * 96
        assert {m for f in report.frames for m in (b.mode for b in f.blocks)} == set(PredMode)
        assert descents and max(descents.values()) == 1
        assert built and max(built.values()) == 1
        # two chroma warps per distinct placement: a TRANS block's advanced
        # placement is its translational one, made once
        advanced = sum(b.mode is not PredMode.TRANS for f in report.frames for b in f.blocks)
        assert len(placed) == 2 * (blocks + advanced)
        info = motion_model._block_sphere.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        assert (info.misses, info.hits) == (blocks, 560)


class TestOwners:
    """The unit-cost schedule that gives each block row to a process."""

    @pytest.mark.parametrize("face,block_size", [
        (32, 16), (48, 16), (64, 16), (72, 16), (72, 32), (96, 32), (128, 16), (128, 32),
        (192, 64), (256, 16),
    ])
    def test_deterministic_and_one_process_per_row(self, face, block_size):
        grid = BlockGrid(CubeLayout(face, face), block_size)
        owners = evaluate._owners(grid)
        assert len(owners) == len(grid.rows) and set(owners) <= {0, 1}
        assert evaluate._owners(BlockGrid(CubeLayout(face, face), block_size)) == owners
        assert owners[0] == 0  # a tie goes to the evaluating process

    @pytest.mark.parametrize("face,block_size", [(64, 16), (128, 32), (128, 16)])
    def test_parity_where_rows_are_alike(self, face, block_size):
        # small-blocks, fast-motion and the gate's grid
        grid = BlockGrid(CubeLayout(face, face), block_size)
        assert evaluate._owners(grid) == [i % 2 for i in range(len(grid.rows))]

    @pytest.mark.parametrize("face,block_size", [(48, 16), (96, 32), (192, 64)])
    def test_bottom_face_rows_stay_in_one_process(self, face, block_size):
        # three block rows per face: the rows alternate down to the middle
        # band's last, then the three short BOTTOM rows, which would only
        # wait on each other across processes, go to the evaluating one
        grid = BlockGrid(CubeLayout(face, face), block_size)
        assert "".join(map(str, evaluate._owners(grid))) == "010101000"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_CONFIGS = [
    dict(face_size=64, synth_frames=3, synth_velocity=(2.0, 0.0, 0.0), lambda_=4.0),
    dict(face_size=72),  # partial blocks, and block rows that hold none
    dict(face_size=32),  # two block rows per face
    dict(face_size=48),  # nine block rows: the BOTTOM face's three stay in this process
    dict(face_size=128, block_size=32, synth_velocity=(0.0, 12.0, 0.0), lambda_=4.0),
    # block rows at y 0, 32, 96, 160: the helper's last row waits for nothing
    dict(face_size=72, block_size=32),
    # three block rows per face; the BOTTOM face's are all decided here
    dict(face_size=96, block_size=32),
]
SPLIT_IDS = ["face64-lambda4-3frames", "face72", "face32", "face48-odd-rows", "face128-fast",
             "face72-32px", "face96-32px"]


@two_cpus
class TestWavefront:
    """Block rows split between this process and one forked helper give
    the report raster order gives, and the helper never outlives run_eval."""

    @pytest.mark.parametrize("kw", SPLIT_CONFIGS, ids=SPLIT_IDS)
    def test_reports_equal_pinned_and_unpinned(self, request, monkeypatch, kw):
        forks, calls = self.count_forks(monkeypatch), []
        inner = evaluate._predict_rows
        monkeypatch.setattr(evaluate, "_predict_rows",
                            lambda *a, **k: calls.append(1) or inner(*a, **k))
        cfg = small_cfg(**{"seed": 0, **kw})
        split = run_eval(cfg)
        assert_no_child_left()
        assert len(forks) == len(split.frames)
        # one call per frame here (the helper's is in its own process): a
        # second one would be a re-decision hiding a fault in the exchange
        assert len(calls) == len(split.frames)
        request.getfixturevalue("one_cpu")
        serial = run_eval(cfg)
        assert len(forks) == len(split.frames)  # pinned: nothing forked
        assert len(calls) == 2 * len(split.frames)
        assert split.frames == serial.frames

    @pytest.mark.parametrize("kw", SPLIT_CONFIGS, ids=SPLIT_IDS)
    def test_waits_follow_the_scan_tables(self, request, monkeypatch, kw):
        # an AMVP scan that first reads two blocks right in the row above:
        # the grid's upper neighbours, and so the waits, sends and schedule,
        # follow it, and the report stays the raster order's
        monkeypatch.setattr(motion_search, "_AMVP_OFFSETS",
                            (("X", (2, -1)), *motion_search._AMVP_OFFSETS))
        forks = self.count_forks(monkeypatch)
        cfg = small_cfg(**{"seed": 0, **kw})
        split = run_eval(cfg)
        assert_no_child_left()
        assert len(forks) == len(split.frames)
        request.getfixturevalue("one_cpu")
        assert split.frames == run_eval(cfg).frames

    @staticmethod
    def count_forks(monkeypatch) -> list:
        """A list that gains an entry on every ``os.fork``."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_helper_lost_mid_frame(self, request, monkeypatch, tmp_path):
        # the helper owns block row 3 of a face-32 grid (the middle band's
        # second) and dies halfway along it without a word, as if killed.
        # This process has read the records of the row's first blocks by
        # then, and at lambda 4 a stale below-left record would change
        # the AMVP decisions of row 2 when the frame is decided again
        parent, inner = os.getpid(), evaluate.mode_decide

        def dying(block, *args, **kwargs):
            if os.getpid() != parent and (block.x0, block.y0) == (64, 48):
                os._exit(1)
            return inner(block, *args, **kwargs)

        monkeypatch.setattr(evaluate, "mode_decide", dying)
        forks = self.count_forks(monkeypatch)
        cfg = small_cfg(synth_frames=3, synth_velocity=(2.0, 0.0, 0.0), lambda_=4.0)
        lost = run_eval(cfg)
        assert_no_child_left()
        assert len(forks) == 2
        argv = ["eval", "--input", "synthetic", "--face-size", "32", "--synth-frames", "3",
                "--synth-velocity", "2,0,0", "--lambda", "4", "--seed", "2",
                "--out", str(tmp_path / "lost.csv")]
        assert cli.main(argv) == 0
        assert_no_child_left()
        assert len(forks) == 4
        request.getfixturevalue("one_cpu")
        serial = run_eval(cfg)
        assert lost.config == serial.config
        assert len(lost.frames) == len(serial.frames) == 2
        for got, want in zip(lost.frames, serial.frames):
            assert got.poc == want.poc
            assert got.psnr_trans == want.psnr_trans
            assert got.psnr_adv == want.psnr_adv
            assert got.blocks == want.blocks
        emit_csv(serial, tmp_path / "serial.csv")
        for suffix in ("", ".summary"):
            assert ((tmp_path / f"lost.csv{suffix}").read_bytes()
                    == (tmp_path / f"serial.csv{suffix}").read_bytes())

    def test_fork_failure_decides_every_row_here(self, request, monkeypatch):
        def no_fork():
            raise OSError("no room for another process")

        cfg = small_cfg()
        fds = len(os.listdir("/proc/self/fd"))
        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_fork)
            alone = run_eval(cfg)
        assert len(os.listdir("/proc/self/fd")) == fds  # both pipes closed
        assert_no_child_left()
        request.getfixturevalue("one_cpu")
        assert alone == run_eval(cfg)

    def test_no_affinity_call_forks_nothing(self, monkeypatch):
        cfg = small_cfg()
        split = run_eval(cfg)
        forks = self.count_forks(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run_eval(cfg) == split
        assert forks == []

    @staticmethod
    def fail_at(monkeypatch, where, exc):
        """``evaluate.mode_decide`` raises ``exc`` on blocks where ``where(block)``."""
        inner = evaluate.mode_decide

        def failing(block, *args, **kwargs):
            if where(block):
                raise exc
            return inner(block, *args, **kwargs)

        monkeypatch.setattr(evaluate, "mode_decide", failing)

    @pytest.mark.parametrize("row", [0, 1, 2, 3])
    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_error_in_a_row_reaches_the_caller(self, monkeypatch, row, exc):
        # rows 0 and 2 are decided here, rows 1 and 3 in the helper
        self.fail_at(monkeypatch, lambda b: (b.x0, b.y0) == (16, 16 * row),
                     exc(f"injected at row {row}"))
        with pytest.raises(exc, match=f"injected at row {row}"):
            run_eval(small_cfg())
        assert_no_child_left()

    def test_unpicklable_error_keeps_type_name_and_message(self, monkeypatch):
        class Local(Exception):  # a local class does not pickle
            pass

        # the helper's row fails; deciding the frame again here raises it
        self.fail_at(monkeypatch, lambda b: b.y0 == 16, Local("from the helper"))
        with pytest.raises(Local, match="from the helper") as info:
            run_eval(small_cfg())
        assert type(info.value).__name__ == "Local"
        assert_no_child_left()

    @pytest.mark.parametrize("row", [0, 1])
    def test_cli_exit_code_for_a_row_error(self, monkeypatch, tmp_path, capsys, row):
        self.fail_at(monkeypatch, lambda b: b.y0 == 16 * row, ValueError("injected"))
        argv = ["eval", "--input", "synthetic", "--face-size", "32", "--synth-frames", "2",
                "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 3
        assert "i/o error: injected" in capsys.readouterr().err
        assert_no_child_left()


class TestEmitCsv:
    def test_empty_report_writes_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(EvalReport(small_cfg(), []), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_block_two_lines(self, tmp_path):
        row = BlockResult(16, 32, PredMode.ADV_AMVP, MotionVector(-3, 2), 100, 40)
        rep = EvalReport(
            small_cfg(),
            [FrameResult(1, (30.0, 31.0, 32.0), (33.0, 34.0, 35.0), [row])],
        )
        path = tmp_path / "r.csv"
        emit_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines == [CSV_HEADER, "1,16,32,adv_amvp,-3,2,100,40"]

    def test_reparse_matches_report(self, tmp_path):
        report = run_eval(small_cfg())
        path = tmp_path / "r.csv"
        emit_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        flat = [(f, b) for f in report.frames for b in f.blocks]
        assert len(rows) == len(flat)
        for row, (f, b) in zip(rows, flat):
            assert row == [
                str(f.poc),
                str(b.bx),
                str(b.by),
                b.mode.value,
                str(b.mv.dx_q2),
                str(b.mv.dy_q2),
                str(b.sad_trans),
                str(b.sad_adv),
            ]

    def test_summary_companion(self, tmp_path):
        report = run_eval(small_cfg())
        path = tmp_path / "r.csv"
        emit_csv(report, path)
        summary = dict(
            line.split("=", 1) for line in (tmp_path / "r.csv.summary").read_text().splitlines()
        )
        assert summary["frames"] == "1"
        assert summary["blocks_per_frame"] == "24"
        assert "mean_delta_y" in summary
        assert float(summary["advanced_fraction"]) == pytest.approx(
            report.advanced_fraction(), abs=1e-4
        )

    def test_two_runs_emit_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(run_eval(small_cfg()), a)
        emit_csv(run_eval(small_cfg()), b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary").read_bytes() == (
            tmp_path / "b.csv.summary"
        ).read_bytes()


class TestFileInput:
    def test_file_and_synthetic_agree(self, tmp_path):
        spec = SyntheticSpec(face_width=32, frames=2, velocity=(1.0, 0.0, 0.0), seed=2)
        clip = tmp_path / "clip.yuv"
        write_yuv420(clip, generate_synthetic(spec))
        file_cfg = EvalConfig(input=str(clip), face_size=32, seed=2)
        a = tmp_path / "file.csv"
        b = tmp_path / "synth.csv"
        emit_csv(run_eval(file_cfg), a)
        emit_csv(run_eval(small_cfg()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_raises_oserror(self):
        cfg = EvalConfig(input="/nonexistent/clip.yuv", face_size=32)
        with pytest.raises(OSError):
            run_eval(cfg)

    def test_bad_file_size_propagates(self, tmp_path):
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(b"\0" * 1000)  # not a whole number of frames
        cfg = EvalConfig(input=str(clip), face_size=32)
        with pytest.raises(ValueError, match="multiple"):
            run_eval(cfg)


# SHA-256 of the CSV and of its .summary for three synthetic clips.  Between
# them they cover all three modes, the stage-3 raster, lambda > 0 and two
# predicted frames, so any change to a search decision or a cost shows here.
GOLDEN = [
    (
        dict(face_size=32, block_size=16, synth_velocity=(0.0, 3.5, 0.0), lambda_=4.0,
             synth_frames=2),
        "61d46abc52a9b0243d28e96f9256aacd74a2c07222cf4b5c4c8c00f94417530c",
        "5404089aec58b267baa09d3e111f52624be3b03442c955bf57f1d4be5881527b",
    ),
    (
        dict(face_size=64, block_size=32, synth_velocity=(0.0, 7.5, 0.0), lambda_=4.0,
             synth_frames=2),
        "84de84c66c69cdfea4920fdd836d7023e037f5b10f3f8fd901d32396f5d261b5",
        "0daef753ba0f3876b1a8bbdbf729b25a9b34ba02e69ccae007a0ea8742da1c81",
    ),
    (
        dict(face_size=32, block_size=16, synth_velocity=(2.0, 0.0, 0.0), lambda_=0.0,
             synth_frames=3),
        "4765634d56f69ba32543b0cec310e91195ab94f4e91d5c1fdbe1ec0eecca27ee",
        "a15acf165f121d89d13acae7b311b19d7ec226bbfb893cda27ebaa4a86778a3c",
    ),
]


@pytest.mark.parametrize("kw,csv_sha,summary_sha", GOLDEN)
def test_golden_reports(tmp_path, kw, csv_sha, summary_sha):
    cfg = EvalConfig(input="synthetic", seed=0, search_range=64, ref_distance=1, **kw)
    path = tmp_path / "r.csv"
    emit_csv(run_eval(cfg), path)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(path) == csv_sha
    assert digest(tmp_path / "r.csv.summary") == summary_sha


# Configs drawn off the benchmark's band (partial grids, the wavefront's
# 010101000 owners, search range 2-4, ref distance 2, lambda with 64-px
# blocks, motion toward cube corners), with the seed commit's digests;
# tests/data/make_seed_corpus.py writes the file.  CI's one-CPU step runs
# these with the one-process schedule, its main step with the wavefront.
SEED_CORPUS = json.loads((Path(__file__).parent / "data" / "seed_corpus.json").read_text())


@pytest.mark.parametrize("entry", SEED_CORPUS["entries"], ids=lambda e: e["name"])
def test_seed_corpus(tmp_path, capsys, entry):
    path = tmp_path / "r.csv"
    assert cli.main([*entry["argv"], "--out", str(path)]) == 0
    assert "evaluated" in capsys.readouterr().out
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(path) == entry["csv_sha256"]
    assert digest(tmp_path / "r.csv.summary") == entry["summary_sha256"]
