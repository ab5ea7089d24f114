"""CLI layer: subcommand behavior, exit codes, file outputs."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hilbloch
from hilbloch import cli
from hilbloch.cli import main
from hilbloch.measures import moments_to_csv
from hilbloch.measures import lebesgue


class TestVerify:
    def test_single_suite_json_stdout(self, capsys):
        code = main(["verify", "--suite", "E3.1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["all_agree"] is True
        assert doc["reports"][0]["suite"] == "E3.1"
        assert "E3.1: agree" in captured.err

    def test_config_file_input(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "suite": "E3.1", "options": {}}))
        code = main(["verify", "--config", str(cfg), "--format", "md"])
        captured = capsys.readouterr()
        assert code == 0
        assert "## E3.1" in captured.out

    def test_out_directory(self, tmp_path, capsys):
        code = main(["verify", "--suite", "E3.1", "--out", str(tmp_path), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        report = tmp_path / "report.csv"
        assert report.exists()
        assert report.read_text().startswith("suite,")
        assert "wrote" in captured.err

    def test_needs_some_input(self, capsys):
        assert main(["verify"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "suite": "T9.9"}))
        assert main(["verify", "--config", str(cfg)]) == 2

    def test_unknown_suite_flag_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "T9.9"])

    def test_consecutive_calls_share_no_suite_or_config_list(self, tmp_path, monkeypatch, capsys):
        ran = []
        run_suite = cli.run_suite
        monkeypatch.setattr(cli, "run_suite", lambda cfg: ran.append(cfg.suite) or run_suite(cfg))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "suite": "E3.1"}))
        assert main(["verify", "--suite", "E3.1", "--suite", "E3.1"]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
        assert main(["verify"]) == 2
        assert "at least one" in capsys.readouterr().err
        assert ran == ["E3.1"] * 3

    def test_main_builds_its_parser_once(self, monkeypatch, capsys):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert main(["moments", "--measure", "lebesgue", "--n-max", "2"]) == 0
            assert main(["moments", "--measure", "lebesgue", "--n-max", "3"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().out.count("n,mu_n") == 2
        assert build_parser() is not build_parser()

    def test_resolution_scale_flag(self, capsys):
        code = main(["verify", "--suite", "E3.1", "--resolution-scale", "2.0", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["reports"][0]["resolution"]["resolution_scale"] == 2.0


class TestUtilities:
    def test_moments_stdout(self, capsys):
        code = main(["moments", "--measure", "lebesgue", "--n-max", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == moments_to_csv(lebesgue(), 4)

    def test_moments_to_file(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["moments", "--measure", "lebesgue", "--n-max", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,mu_n"

    def test_moments_inline_measure(self, capsys):
        code = main(["moments", "--measure", '{"atoms": [[0.5, 1.0]]}', "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[2].startswith("1,0.5")

    def test_bloch_norm_json(self, capsys):
        code = main(["bloch-norm", "--series", "affine", "--weight", "power_1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == pytest.approx(2.0, rel=1e-9)
        assert doc["method"] == "direct"

    def test_inline_series_is_cut_at_the_truncation(self, capsys):
        values = []
        for series in ("[1, 1, 1, 1]", "[1, 1]"):
            assert main(["bloch-norm", "--series", series, "--weight", "power_1", "--truncation", "1"]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == values[1] == pytest.approx(2.0, rel=1e-9)

    def test_bloch_norm_alternate_method(self, capsys):
        code = main(
            ["bloch-norm", "--series", "ones", "--weight", "power_1", "--method", "coefficient_sum", "--truncation", "512"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["divergent"] is True

    def test_apply_coefficients_csv(self, capsys):
        code = main(["apply", "--measure", "atom_half", "--series", "constant", "--alpha", "0", "--truncation", "8"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "index,coefficient"
        assert float(lines[2].split(",")[1]) == pytest.approx(0.5)

    def test_apply_pointwise_agreement(self, capsys):
        code = main(["apply", "--measure", "atom_half", "--series", "constant", "--alpha", "0", "--z", "0.4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["series_value"][0] == pytest.approx(1.25, rel=1e-10)
        assert doc["relative_gap"] < 1e-10

    def test_apply_complex_point(self, capsys):
        code = main(
            ["apply", "--measure", "lebesgue", "--series", "affine", "--alpha", "0.5", "--z", "0.3", "0.4", "--truncation", "256"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["relative_gap"] < 1e-8

    def test_series_csv_file_input(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("index,coefficient\n0,1.0\n1,1.0\n")
        code = main(["bloch-norm", "--series", str(path), "--weight", "power_1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == pytest.approx(2.0, rel=1e-9)

    def test_criterion_moment(self, capsys):
        code = main(
            [
                "criterion",
                "--kind",
                "moment",
                "--measure",
                "atom_half",
                "--omega",
                "power_0.5",
                "--nu",
                "power_1",
                "--alpha",
                "0",
                "--n-max-exponent",
                "12",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "bounded"

    def test_criterion_missing_argument(self, capsys):
        code = main(["criterion", "--kind", "moment", "--measure", "atom_half", "--alpha", "0"])
        assert code == 2
        assert "--omega" in capsys.readouterr().err

    def test_probe(self, capsys):
        code = main(
            [
                "probe",
                "--measure",
                "atom_half",
                "--omega",
                "power_1",
                "--nu",
                "power_1",
                "--alpha",
                "0",
                "--truncation-exponent",
                "7",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["classification"] == "stable"


# Every flag of every subcommand, 32 in all; a new flag has to update this table.
CLI_FLAGS = {
    "verify": ("--config", "--suite", "--out", "--format", "--resolution-scale"),
    "moments": ("--measure", "--n-max", "--out"),
    "bloch-norm": ("--series", "--weight", "--method", "--truncation"),
    "apply": ("--measure", "--series", "--alpha", "--truncation", "--z", "--out"),
    "criterion": ("--kind", "--measure", "--omega", "--nu", "--alpha", "--beta", "--gamma", "--n-max-exponent", "--depth"),
    "probe": ("--measure", "--omega", "--nu", "--alpha", "--truncation-exponent"),
}


def test_only_the_pinned_flags_exist():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: tuple(opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert sum(len(v) for v in CLI_FLAGS.values()) == 32
    assert flags == CLI_FLAGS


class TestErrors:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_catalog_name(self, capsys):
        code = main(["moments", "--measure", "missing_measure", "--n-max", "2"])
        assert code == 2
        assert "missing_measure" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["verify", "--config", "/nonexistent/cfg.json"])
        assert code == 2

    def test_bad_inline_json_exits_2_without_traceback(self):
        # Run the installed entry point in a child process so an escaping
        # exception would show as a traceback on stderr.
        src = str(pathlib.Path(hilbloch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, "-m", "hilbloch.cli", "bloch-norm", "--weight", '{"kind":', "--series", "constant"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not valid JSON" in proc.stderr

    def test_malformed_series_csv_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,coefficient\n0,1.0\n1,abc\n")
        src = str(pathlib.Path(hilbloch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, "-m", "hilbloch.cli", "bloch-norm", "--weight", "power_1", "--series", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not an (index, coefficient) pair" in proc.stderr

    def test_negative_truncation_of_a_csv_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("index,coefficient\n" + "".join(f"{k},1.0\n" for k in range(7)))
        code = main(["bloch-norm", "--series", str(path), "--weight", "power_1", "--truncation", "-2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "truncation must be nonnegative" in captured.err

    @pytest.mark.parametrize("spec", ["harmonic", "[1, 1, 1]"], ids=["name", "inline"])
    def test_negative_truncation_of_a_named_or_inline_series_exits_2(self, spec, capsys):
        code = main(["bloch-norm", "--series", spec, "--weight", "power_1", "--truncation", "-2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "truncation must be nonnegative" in captured.err

    @pytest.mark.parametrize("exponent", ["63", "64"])
    def test_n_max_exponent_past_int64_exits_2_without_traceback(self, exponent):
        src = str(pathlib.Path(hilbloch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        cmd = [sys.executable, "-m", "hilbloch.cli", "criterion", "--kind", "moment", "--measure", "lebesgue"]
        cmd += ["--omega", "power_0.5", "--nu", "power_1", "--alpha", "0", "--n-max-exponent", exponent]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "n_max must be below 2^63" in proc.stderr

    # (1-t)^-0.99 dt has mass 100, but its moment grid never settles in the tail: the image
    # reports the operator undefined on this source, in one line.
    @pytest.mark.parametrize(
        "command",
        [["probe", "--omega", "power_0.5", "--nu", "power_1"], ["apply", "--series", "constant"]],
        ids=["probe", "apply"],
    )
    def test_unsettled_moment_grid_exits_2_with_one_line(self, command):
        src = str(pathlib.Path(hilbloch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        measure = '{"density": {"kind": "power_log", "s": -0.99, "gamma": 0.0}}'
        cmd = [sys.executable, "-m", "hilbloch.cli", *command, "--measure", measure, "--alpha", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: weighted moments diverge; the operator is not well defined on this source\n"

    # 2^-1 and 2^-3 are no truncation: the error names the flag and the value the user typed.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["criterion", "--kind", "moment", "--omega", "power_0.5", "--nu", "power_1", "--n-max-exponent", "-1"],
             "error: --n-max-exponent must be nonnegative, got -1\n"),
            (["probe", "--omega", "power_0.5", "--nu", "power_1", "--truncation-exponent", "-3"],
             "error: --truncation-exponent must be nonnegative, got -3\n"),
        ],
        ids=["criterion", "probe"],
    )
    def test_negative_exponent_names_its_flag(self, argv, message, capsys):
        code = main(argv + ["--measure", "lebesgue", "--alpha", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == message

    def test_apply_z_takes_at_most_two_numbers(self, capsys):
        code = main(["apply", "--measure", "lebesgue", "--series", "[1, 2]", "--alpha", "0", "--z", "0.1", "0.1", "5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --z takes RE and an optional IM, got 3 numbers\n"

    def test_tail_depth_past_53_names_its_limit(self, capsys):
        argv = ["criterion", "--kind", "beta", "--measure", "density_2", "--alpha", "0", "--beta", "2", "--gamma", "1"]
        code = main(argv + ["--depth", "54"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: tail ladder depth must lie in [1, 53], got 54\n"

    @pytest.mark.parametrize(
        "weight", ['{"kind": "power", "gamma": "1"}', '{"kind": "power"}', '{"kind": "power", "gamma": NaN}']
    )
    def test_malformed_weight_descriptor_exits_2(self, weight, capsys):
        assert main(["bloch-norm", "--weight", weight, "--series", "constant"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--measure", "lebesgue", "--n-max", "-1"],
            ["criterion", "--kind", "log-source", "--measure", "lebesgue"]
            + ["--alpha", "0", "--beta", "0", "--gamma", "1", "--depth", "0"],
            ["criterion", "--kind", "beta", "--measure", "lebesgue"]
            + ["--alpha", "0.5", "--beta", "nan", "--gamma", "1"],
            ["criterion", "--kind", "log-source", "--measure", "lebesgue"]
            + ["--alpha", "0", "--beta", "nan", "--gamma", "1"],
            ["criterion", "--kind", "moment", "--measure", "lebesgue", "--omega", "power_0.5", "--nu", "power_1"]
            + ["--alpha", "0", "--n-max-exponent", "-1"],
        ],
        ids=["negative-n-max", "zero-depth", "nan-beta", "nan-log-beta", "negative-n-max-exponent"],
    )
    def test_out_of_range_numbers_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
