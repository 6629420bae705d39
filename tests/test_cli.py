"""Tests for the command-line interface."""

import dataclasses
import hashlib

import pytest

from cubemc.cli import build_parser, main
from cubemc.evaluate import CSV_HEADER, EvalConfig
from cubemc.frame_io import SyntheticSpec, generate_synthetic, write_yuv420


def eval_args(tmp_path, *extra):
    return [
        "eval",
        "--input", "synthetic",
        "--face-size", "32",
        "--synth-frames", "2",
        "--synth-velocity", "1,0,0",
        "--out", str(tmp_path / "report.csv"),
        *extra,
    ]


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(eval_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "mean Y-PSNR delta" in out
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.csv.summary").exists()

    def test_config_error_exits_2(self, tmp_path):
        assert main(eval_args(tmp_path, "--face-size", "4")) == 2

    def test_odd_face_size_exits_2(self, tmp_path, capsys):
        assert main(eval_args(tmp_path, "--face-size", "9")) == 2
        assert "config error: face_size must be even" in capsys.readouterr().err

    @pytest.mark.parametrize("face", ["8", "10"])
    def test_face_smaller_than_block_exits_2(self, tmp_path, capsys, face):
        assert main(eval_args(tmp_path, "--face-size", face, "--block-size", "16")) == 2
        assert "face_size must be at least block_size" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_velocity_too_large_exits_2(self, tmp_path):
        assert main(eval_args(tmp_path, "--synth-velocity", "99,0,0")) == 2

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--synth-velocity", "nan,0,0"), "velocity components must be finite"),
            (("--lambda", "nan"), "lambda must be finite"),
            (("--lambda", "inf"), "lambda must be finite"),
            (("--seed", "-1"), "seed must be non-negative"),
        ],
        ids=["nan-velocity", "nan-lambda", "inf-lambda", "negative-seed"],
    )
    def test_bad_numeric_input_exits_2(self, tmp_path, capsys, extra, message):
        assert main(eval_args(tmp_path, *extra)) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--synth-velocity", "40,0,0"), "velocity magnitude"),
            (("--seed", "-1"), "seed must be non-negative"),
        ],
        ids=["velocity", "negative-seed"],
    )
    def test_clip_error_exits_2_before_grid_warning(self, tmp_path, capsys, extra, message):
        # face 72 leaves face pixels outside the 16-px grid, which warns
        assert main(eval_args(tmp_path, "--face-size", "72", *extra)) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "warning" not in err

    def test_missing_file_exits_3(self, tmp_path):
        args = [
            "eval", "--input", str(tmp_path / "none.yuv"),
            "--width", "128", "--height", "96", "--face-size", "32",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 3

    def test_truncated_file_exits_3(self, tmp_path):
        clip = tmp_path / "bad.yuv"
        clip.write_bytes(b"\0" * 1000)
        args = [
            "eval", "--input", str(clip),
            "--width", "128", "--height", "96", "--face-size", "32",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 3

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--block-size", "24", "--input", "synthetic", "--face-size", "32"])
        assert exc.value.code == 2


class TestHelpText:
    def test_eval_help_explains_bd_rate_replacement(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "BD-rate" in text
        assert "prediction-PSNR deltas" in text

    def test_velocity_argument_format(self):
        parser = build_parser()
        args = parser.parse_args(
            ["eval", "--input", "synthetic", "--face-size", "32",
             "--synth-velocity", "0.5,-1,2"]
        )
        assert args.synth_velocity == (0.5, -1.0, 2.0)


class TestNegativeVelocity:
    @pytest.mark.parametrize("option, velocity", [
        pytest.param("--synth-velocity", "-1,0,0", id="-1,0,0"),
        pytest.param("--synth-velocity", "0.5,-1,-2", id="0.5,-1,-2"),
        # an abbreviation that names the option alone
        pytest.param("--synth-vel", "-1,0,0", id="--synth-vel"),
        pytest.param("--synth-v", "0.5,-1,-2", id="--synth-v"),
    ])
    def test_space_form_equals_equals_form(self, tmp_path, option, velocity):
        # argparse alone takes "-1,0,0" for an option and exits 2
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        base = ["eval", "--input", "synthetic", "--face-size", "32", "--synth-frames", "2"]
        assert main([*base, option, velocity, "--out", str(spaced)]) == 0
        assert main([*base, f"--synth-velocity={velocity}", "--out", str(joined)]) == 0
        for suffix in ("", ".summary"):
            assert (tmp_path / f"spaced.csv{suffix}").read_bytes() == (
                tmp_path / f"joined.csv{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("option", ["--synth-velocity", "--synth-v"])
    def test_missing_value_leaves_the_next_option_alone(self, tmp_path, capsys, option):
        # only -<digit> and -.<digit> values are rewritten, so --out stays an option
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", "synthetic", "--face-size", "32",
                  option, "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "argument --synth-velocity: expected one argument" in capsys.readouterr().err

    def test_leading_dot_value_is_a_velocity(self, tmp_path):
        assert main(eval_args(tmp_path, "--synth-velocity", "-.5,0,0")) == 0

    def test_ambiguous_prefix_still_exits_2(self, tmp_path):
        # --synth- is a prefix of --synth-velocity and --synth-frames alike
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", "synthetic", "--face-size", "32",
                  "--synth-", "-1,0,0", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2


class TestParserMatchesConfig:
    def test_every_eval_config_field_is_an_eval_dest(self):
        args = build_parser().parse_args(["eval", "--input", "synthetic", "--face-size", "32"])
        assert {f.name for f in dataclasses.fields(EvalConfig)} <= set(vars(args))

    def test_defaults_are_the_configs(self):
        # the parser takes its defaults from EvalConfig, not from a second list
        args = build_parser().parse_args(["eval", "--input", "synthetic", "--face-size", "32"])
        want = EvalConfig(input="synthetic", face_size=32)
        for f in dataclasses.fields(EvalConfig):
            assert getattr(args, f.name) == getattr(want, f.name), f.name


class TestOutputs:
    def test_csv_written_with_header(self, tmp_path):
        assert main(eval_args(tmp_path)) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 24  # one evaluated frame, 24 blocks

    def test_file_input_runs(self, tmp_path):
        spec = SyntheticSpec(face_width=32, frames=2, velocity=(1.0, 0.0, 0.0), seed=2)
        clip = tmp_path / "clip.yuv"
        write_yuv420(clip, generate_synthetic(spec))
        args = [
            "eval", "--input", str(clip),
            "--width", "128", "--height", "96", "--face-size", "32",
            "--seed", "2",
            "--out", str(tmp_path / "file.csv"),
        ]
        assert main(args) == 0
        assert (tmp_path / "file.csv").exists()


class TestCanvasFlags:
    """The canvas is 4 x 3 faces of ``--face-size``, for file and synthetic
    input alike; the optional ``--width``/``--height`` are checked against it."""

    @staticmethod
    def clip(tmp_path):
        spec = SyntheticSpec(face_width=32, frames=2, velocity=(1.0, 0.0, 0.0), seed=2)
        path = tmp_path / "clip.yuv"
        write_yuv420(path, generate_synthetic(spec))
        return ["eval", "--input", str(path), "--face-size", "32", "--seed", "2"]

    def test_file_input_without_flags_writes_the_same_report(self, tmp_path):
        argv = self.clip(tmp_path)
        with_flags, without = tmp_path / "with.csv", tmp_path / "without.csv"
        assert main([*argv, "--width", "128", "--height", "96", "--out", str(with_flags)]) == 0
        assert main([*argv, "--out", str(without)]) == 0
        for suffix in ("", ".summary"):
            assert (tmp_path / f"with.csv{suffix}").read_bytes() == (
                tmp_path / f"without.csv{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("flags", [("--width", "256"), ("--height", "64"), ("--width", "0"),
                                       ("--width", "128", "--height", "97")],
                             ids=["width", "height", "zero-width", "height-with-width"])
    def test_mismatched_canvas_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        assert main([*self.clip(tmp_path), *flags, "--out", str(out)]) == 2
        assert ("config error: width/height must be 4x and 3x the face size"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_non_integer_canvas_size_exits_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([*self.clip(tmp_path), flag, "128.0", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value" in capsys.readouterr().err

    def test_synthetic_input_checks_the_flags(self, tmp_path, capsys):
        assert main(eval_args(tmp_path, "--width", "1", "--height", "1")) == 2
        assert ("config error: width/height must be 4x and 3x the face size"
                in capsys.readouterr().err)
        assert not (tmp_path / "report.csv").exists()
        assert main(eval_args(tmp_path, "--width", "128", "--height", "96")) == 0


class TestGridCoverageWarning:
    def test_face_not_a_multiple_of_block_warns_once(self, tmp_path, capsys):
        # 6 faces of 72x72 keep 4x4 blocks of 16 px each: 1 - 64^2 / 72^2
        assert main(eval_args(tmp_path, "--face-size", "72", "--block-size", "16")) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "cubemc: warning: 21.0% of face pixels lie outside the 16-px block grid "
            "and are left out of the PSNR"
        ]
        # the report is byte for byte what it was before the warning existed
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest("report.csv") == (
            "afb540c4b4576d375a389d26fd33dc1fed11c998b456a026b20ceb0c893d898c"
        )
        assert digest("report.csv.summary") == (
            "7ca8bbf5b0f0657207ca9dde424076648088e5fef004131acfac94cba2222a2e"
        )

    @pytest.mark.parametrize("face,block", [("32", "16"), ("64", "32"), ("64", "64")])
    def test_exact_multiples_print_nothing(self, tmp_path, capsys, face, block):
        assert main(eval_args(tmp_path, "--face-size", face, "--block-size", block)) == 0
        assert capsys.readouterr().err == ""
