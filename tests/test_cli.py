"""CLI layer: subcommand behavior, exit codes, file outputs."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import hilbloch
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

    @pytest.mark.parametrize(
        "weight", ['{"kind": "power", "gamma": "1"}', '{"kind": "power"}', '{"kind": "power", "gamma": NaN}']
    )
    def test_malformed_weight_descriptor_exits_2(self, weight, capsys):
        assert main(["bloch-norm", "--weight", weight, "--series", "constant"]) == 2
        assert "error:" in capsys.readouterr().err
