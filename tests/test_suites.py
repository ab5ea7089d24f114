"""Harness layer: config contract, registry, determinism, report rendering."""

import json
import math
import pathlib

import pytest

from hilbloch.errors import DomainError
from hilbloch.reports import emit_report, render_csv, render_json, render_markdown, write_report
from hilbloch.suites import (
    CONFIG_VERSION,
    FLAG_ERROR,
    ExperimentConfig,
    config_from_json,
    config_to_json,
    default_config,
    list_suites,
    run_suite,
)

ALL_SUITES = [
    "L2.1",
    "L2.2",
    "L2.3",
    "L2.4",
    "L2.5",
    "T3.1",
    "E3.1",
    "T3.3",
    "P4.1",
    "T4.2",
    "T4.3",
    "T5.1",
    "T5.3",
    "T5.4",
    "T5.6",
    "T5.7",
    "T5.8",
    "remark5",
]


PINNED_ROWS = json.loads((pathlib.Path(__file__).parent / "data" / "suite_rows.json").read_text())

# Suites whose options hold case specs: the option, and one valid spec.
CASE_OPTIONS = {
    "L2.5": ("cases", {"measure": "lebesgue", "beta": 0.5, "gamma": 0.5}),
    "P4.1": ("fixed_cases", {"measure": "lebesgue", "weight": "power_1"}),
    "T4.2": ("cases", {"measure": "atom_half", "omega": "power_1", "nu": "power_1", "alpha": 0.0}),
    "T4.3": ("cases", {"measure": "atom_half", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0}),
    "T5.1": ("cases", {"measure": "lebesgue", "alpha": 0.0, "gamma": 1.0}),
    "T5.6": ("cases", {"beta": 0.0, "gamma": 1.0, "expected": "bounded"}),
    "T5.7": ("cases", {"gamma": 1.0, "expected": "bounded"}),
    "T5.8": ("cases", {"gamma": 1.0}),
}


def report_fingerprint(report):
    payload = report.to_dict()
    payload.pop("wall_time", None)
    return json.dumps(payload, sort_keys=True)


class TestConfig:
    def test_registry_roster(self):
        assert sorted(list_suites()) == sorted(ALL_SUITES)

    def test_every_suite_has_a_default_config(self):
        for suite in list_suites():
            cfg = default_config(suite)
            assert cfg.suite == suite
            assert cfg.version == CONFIG_VERSION

    def test_shipped_config_files_cover_registry(self):
        config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
        docs = [json.loads(p.read_text()) for p in sorted(config_dir.glob("*.json"))]
        suites = {config_from_json(doc).suite for doc in docs}
        assert suites == set(list_suites())

    def test_json_round_trip(self):
        cfg = ExperimentConfig(suite="E3.1", resolution_scale=2.0, seed=7, options={})
        again = config_from_json(config_to_json(cfg))
        assert again == cfg

    def test_missing_suite_rejected(self):
        with pytest.raises(DomainError):
            config_from_json({"version": 1})

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            config_from_json({"version": 1, "suite": "T9.9"})

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            config_from_json({"version": 1, "suite": "E3.1", "budget": 5})

    def test_wrong_version_rejected(self):
        with pytest.raises(DomainError):
            config_from_json({"version": 2, "suite": "E3.1"})

    def test_bad_resolution_scale_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(suite="E3.1", resolution_scale=0.0)
        with pytest.raises(DomainError):
            ExperimentConfig(suite="E3.1", resolution_scale=-1.0)

    def test_unknown_option_key_rejected(self):
        cfg = ExperimentConfig(suite="E3.1", options={"bogus": 1})
        with pytest.raises(DomainError):
            run_suite(cfg)

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("resolution_scale", "deep"), ("version", None)])
    def test_malformed_config_field_rejected(self, key, value):
        with pytest.raises(DomainError, match=key):
            config_from_json({"suite": "E3.1", key: value})

    @pytest.mark.parametrize(
        "suite, key, value", [("L2.2", "weights", "power_1"), ("T5.1", "depth", "24"), ("L2.4", "spread_cap", math.nan)]
    )
    def test_option_of_the_wrong_type_rejected(self, suite, key, value):
        with pytest.raises(DomainError, match=f"{suite}.*'{key}'"):
            run_suite(ExperimentConfig(suite=suite, options={key: value}))


@pytest.mark.parametrize("suite", sorted(CASE_OPTIONS))
class TestCaseSpecs:
    """Malformed case specs raise DomainError naming the suite and the key, before any case runs."""

    def _run(self, suite, cases):
        option, _ = CASE_OPTIONS[suite]
        return run_suite(ExperimentConfig(suite=suite, options={option: cases}))

    def test_missing_key(self, suite):
        _, spec = CASE_OPTIONS[suite]
        for key in [k for k in spec if k != "expected"]:
            partial = {k: v for k, v in spec.items() if k != key}
            with pytest.raises(DomainError, match=f"{suite}.*'{key}'"):
                self._run(suite, [partial])

    def test_unknown_key(self, suite):
        _, spec = CASE_OPTIONS[suite]
        with pytest.raises(DomainError, match=f"{suite}.*'bogus'"):
            self._run(suite, [{**spec, "bogus": 1}])

    def test_spec_list_given_a_single_spec(self, suite):
        option, spec = CASE_OPTIONS[suite]
        with pytest.raises(DomainError, match=f"{suite}.*'{option}'"):
            self._run(suite, spec)

    def test_spec_that_is_not_an_object(self, suite):
        with pytest.raises(DomainError, match=suite):
            self._run(suite, ["lebesgue"])


class TestRunSuite:
    def test_unknown_suite_id(self):
        cfg = ExperimentConfig.__new__(ExperimentConfig)
        object.__setattr__(cfg, "suite", "T9.9")
        object.__setattr__(cfg, "version", 1)
        object.__setattr__(cfg, "resolution_scale", 1.0)
        object.__setattr__(cfg, "seed", 1)
        object.__setattr__(cfg, "options", {})
        with pytest.raises(DomainError):
            run_suite(cfg)

    def test_runs_are_deterministic(self):
        cfg = default_config("E3.1")
        first = run_suite(cfg)
        second = run_suite(cfg)
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_report_shape(self):
        report = run_suite(default_config("E3.1"))
        assert report.suite == "E3.1"
        assert report.agreement
        assert len(report.cases) == 4
        assert report.wall_time >= 0.0
        assert report.resolution["resolution_scale"] == 1.0
        payload = report.to_dict()
        assert {"suite", "agreement", "cases", "resolution", "wall_time"} <= set(payload)

    def test_agreement_is_conjunction_of_cases(self):
        report = run_suite(default_config("E3.1"))
        assert report.agreement == all(case.agree for case in report.cases)

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_verdicts_survive_resolution_doubling(self, suite):
        base = run_suite(default_config(suite))
        deep = run_suite(ExperimentConfig(suite=suite, resolution_scale=2.0))
        assert [b.label for b in base.cases] == [d.label for d in deep.cases]
        for b, d in zip(base.cases, deep.cases):
            assert (b.left_verdict, b.right_verdict) == (d.left_verdict, d.right_verdict), b.label
        # Labels, side names, verdicts and agreement at scale 1 are pinned: the
        # benchmark's oracles key on the labels, and the file holds no floats.
        rows = [[c.label, c.left_name, c.right_name, c.left_verdict, c.right_verdict, c.agree] for c in base.cases]
        assert rows == PINNED_ROWS[suite]

    def test_case_errors_are_captured_not_raised(self):
        # delta = 10^0 = 1 is outside the admissible Laplace range; every case
        # must surface as an error row rather than aborting the run.
        cfg = ExperimentConfig(suite="L2.4", options={"delta_exponents": [0]})
        report = run_suite(cfg)
        assert not report.agreement
        assert all(case.left_verdict == FLAG_ERROR for case in report.cases)
        assert all(not case.agree for case in report.cases)
        assert all("error" in case.detail for case in report.cases)


@pytest.fixture(scope="module")
def sample():
    return run_suite(default_config("E3.1"))


class TestReports:
    def test_render_json(self, sample):
        doc = json.loads(render_json(sample))
        assert doc["all_agree"] is True
        assert doc["reports"][0]["suite"] == "E3.1"

    def test_render_csv(self, sample):
        lines = render_csv(sample).strip().splitlines()
        assert lines[0].split(",")[:3] == ["suite", "case", "left_name"]
        assert len(lines) == 1 + len(sample.cases)

    def test_render_markdown(self, sample):
        text = render_markdown(sample)
        assert "# Verification report" in text
        assert "## E3.1" in text
        assert "| case |" in text

    def test_emit_dispatch(self, sample):
        assert emit_report(sample, "md") == render_markdown(sample)
        with pytest.raises(DomainError):
            emit_report(sample, "xml")

    def test_write_report(self, sample, tmp_path):
        path = write_report(sample, tmp_path, "csv", stem="out")
        assert path == tmp_path / "out.csv"
        assert path.read_text().startswith("suite,")

    def test_multiple_reports_concatenate(self, sample):
        doc = json.loads(render_json([sample, sample]))
        assert len(doc["reports"]) == 2
