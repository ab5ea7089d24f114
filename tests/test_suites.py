"""Harness layer: config contract, registry, determinism, report rendering."""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy

from hilbloch import suites
from hilbloch.catalog import resolve_weight
from hilbloch.errors import DomainError, NumericsError
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
from hilbloch.weights import NormalWeight, build_extremal

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


REPO = pathlib.Path(__file__).resolve().parent.parent
PINNED_ROWS = json.loads((REPO / "tests" / "data" / "suite_rows.json").read_text())
REPORT_DIGESTS = json.loads((REPO / "tests" / "data" / "report_digests.json").read_text())
SHIPPED_CONFIGS = sorted((REPO / "perfbench" / "configs").glob("*.json"))

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


def report_digest(report):
    """sha256 of the report's JSON rendering with its wall time zeroed, as report_digests.json records it."""
    return hashlib.sha256(render_json(dataclasses.replace(report, wall_time=0.0)).encode()).hexdigest()


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

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
    def test_shipped_config_options_are_accepted(self, path):
        # Parses and checks the options the way run_suite does, without running any case;
        # an option the suite does not take raises DomainError.
        cfg = config_from_json(json.loads(path.read_text()))
        suites._options(cfg, suites._REGISTRY[cfg.suite])

    # The document README shows for `verify --config`, with no options, for every suite.
    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_config_without_options_is_the_default(self, suite):
        cfg = config_from_json({"version": 1, "suite": suite, "options": {}})
        assert cfg == default_config(suite)
        suites._options(cfg, suites._REGISTRY[cfg.suite])

    def test_every_option_default_is_a_list(self):
        # Options select rows; resolution values and caps are constants of the suite.
        for suite_id, suite in suites._REGISTRY.items():
            for key, default in suite.defaults.items():
                assert isinstance(default, list), (suite_id, key)

    def test_json_round_trip(self):
        cfg = ExperimentConfig(suite="E3.1", resolution_scale=2.0, options={})
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

    def test_seed_is_an_unknown_key(self):
        with pytest.raises(DomainError, match="unknown config keys.*seed"):
            config_from_json({"version": 1, "suite": "E3.1", "seed": 7})

    def test_wrong_version_rejected(self):
        with pytest.raises(DomainError):
            config_from_json({"version": 2, "suite": "E3.1"})

    def test_bad_resolution_scale_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(suite="E3.1", resolution_scale=0.0)
        with pytest.raises(DomainError):
            ExperimentConfig(suite="E3.1", resolution_scale=-1.0)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_integer_resolution_scale_renders_as_its_float(self, scale):
        as_int = ExperimentConfig(suite="E3.1", resolution_scale=scale)
        as_float = ExperimentConfig(suite="E3.1", resolution_scale=float(scale))
        assert type(as_int.resolution_scale) is float
        assert report_digest(run_suite(as_int)) == report_digest(run_suite(as_float))

    def test_unknown_option_key_rejected(self):
        cfg = ExperimentConfig(suite="E3.1", options={"bogus": 1})
        with pytest.raises(DomainError):
            run_suite(cfg)

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("resolution_scale", "deep"), ("version", None)])
    def test_malformed_config_field_rejected(self, key, value):
        with pytest.raises(DomainError, match=key):
            config_from_json({"suite": "E3.1", key: value})

    @pytest.mark.parametrize("suite, key, value", [("L2.2", "weights", "power_1"), ("T5.3", "sigma_offsets", 0.25)])
    def test_option_of_the_wrong_type_rejected(self, suite, key, value):
        with pytest.raises(DomainError, match=f"suite {suite}: option '{key}' must be a list"):
            run_suite(ExperimentConfig(suite=suite, options={key: value}))

    @pytest.mark.parametrize(
        "suite, key, value",
        [
            ("L2.1", "drift_cap", 0.2),
            ("L2.4", "delta_exponents", [2, 3]),
            ("T5.1", "depth", 24),
            ("T5.8", "beta", -2.0),
            ("T5.6", "measure", "lebesgue"),
            ("T4.2", "probe_exponent", 10),
        ],
    )
    def test_suite_constant_is_an_unknown_option(self, suite, key, value):
        with pytest.raises(DomainError, match=rf"unknown options for suite {suite}: \['{key}'\]"):
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
        # Every float is pinned too, through the report bytes at both scales; the
        # digests hold for the numpy and scipy versions that recorded them.
        if (np.__version__, scipy.__version__) == (REPORT_DIGESTS["numpy"], REPORT_DIGESTS["scipy"]):
            assert [report_digest(base), report_digest(deep)] == list(REPORT_DIGESTS["digests"][suite].values())

    def test_case_errors_are_captured_not_raised(self):
        # A table weight sampled only up to r = 0.5 cannot reach the sweep's
        # radii near 1; the case must surface as an error row rather than
        # aborting the run.
        table = {"kind": "table", "samples": [[0, 1], [0.5, 0.5]], "a": 1, "b": 1}
        report = run_suite(ExperimentConfig(suite="L2.4", options={"weights": [table]}))
        assert len(report.cases) == 1
        assert not report.agreement
        assert all(case.left_verdict == FLAG_ERROR for case in report.cases)
        assert all(not case.agree for case in report.cases)
        assert all("error" in case.detail for case in report.cases)
        # A descriptor row is labelled by its name in every rendering.
        assert [case["label"] for case in json.loads(render_json(report))["reports"][0]["cases"]] == ["table"]
        assert [line.split(",")[1] for line in render_csv(report).splitlines()[1:]] == ["table"]
        assert "\n| table | " in render_markdown(report)

    def test_reports_do_not_depend_on_the_blas_thread_count(self):
        # A BLAS reduction may split its work by thread count and so round
        # differently; a report and a moment table must read the same under any.
        # The mixed measure, an atom plus (1-t)^2 dt, read differently at 2^14 before
        # contiguous_moments padded its node set.
        script = (
            "import hashlib\n"
            "from hilbloch.catalog import builtin_measures\n"
            "from hilbloch.cli import main\n"
            "from hilbloch.measures import RadialMeasure, power_log_density\n"
            "main(['verify', '--suite', 'T3.3', '--resolution-scale', '2', '--format', 'json'])\n"
            "mixed = RadialMeasure(atoms=[(0.5, 1.0)], density=power_log_density(2.0))\n"
            "tables = [builtin_measures()['density_-0.5'].contiguous_moments(2**18)]\n"
            "tables += [mixed.contiguous_moments(n) for n in (2**14, 2**18)]\n"
            "print(hashlib.sha256(b''.join(table.tobytes() for table in tables)).hexdigest())\n"
        )
        src = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            *report, digest = proc.stdout.splitlines()
            doc = json.loads("\n".join(report))
            for rep in doc["reports"]:
                rep["wall_time"] = 0.0
            outputs.append((doc, digest))
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def monotone_rows():
    """T3.3's default rows at resolution scale 2, as JSON text by label."""
    report = run_suite(ExperimentConfig(suite="T3.3", resolution_scale=2.0))
    return {case.label: json.dumps(case.to_dict()) for case in report.cases}


class TestSharedWeightProfile:
    def test_each_weight_ladder_is_evaluated_once(self, monkeypatch, monotone_rows):
        sizes = []
        value_from_gap = NormalWeight.value_from_gap

        def counting(self, gap):
            sizes.append(np.size(gap))
            return value_from_gap(self, gap)

        monkeypatch.setattr(NormalWeight, "value_from_gap", counting)
        report = run_suite(ExperimentConfig(suite="T3.3", resolution_scale=2.0))
        assert report.resolution["truncation"] == 2**16
        assert sizes.count(2**16) == 4  # one per weight, not one per (weight, function, form)
        assert {case.label: json.dumps(case.to_dict()) for case in report.cases} == monotone_rows

    @pytest.mark.parametrize(
        "weight, function",
        [("power_0.5", "ones"), ("power_2", "geometric"), ("power_log_1_1", "log_damped_shift")],
    )
    def test_one_row_alone_reads_as_in_the_full_run(self, weight, function, monotone_rows):
        options = {"weights": [weight], "functions": [function]}
        report = run_suite(ExperimentConfig(suite="T3.3", resolution_scale=2.0, options=options))
        assert [json.dumps(case.to_dict()) for case in report.cases] == [monotone_rows[f"{weight}|{function}"]]

    def test_a_weight_whose_ladder_fails_gives_error_rows(self, monkeypatch, monotone_rows):
        def resolve(name):
            weight = resolve_weight(name)
            if name == "power_1":

                def failing(gap):
                    raise NumericsError("ladder failed")

                weight.value_from_gap = failing
            return weight

        monkeypatch.setattr(suites, "resolve_weight", resolve)
        report = run_suite(ExperimentConfig(suite="T3.3", resolution_scale=2.0))
        rows = {case.label: case for case in report.cases}
        assert list(rows) == list(monotone_rows)
        failed = [label for label in rows if label.startswith("power_1|")]
        assert len(failed) == 6
        for label in failed:
            case = rows[label]
            assert (case.left_verdict, case.right_verdict, case.agree) == (FLAG_ERROR, FLAG_ERROR, False)
            assert case.detail == {"error": "NumericsError: ladder failed"}
        assert {label: json.dumps(case.to_dict()) for label, case in rows.items() if label not in failed} == {
            label: row for label, row in monotone_rows.items() if label not in failed
        }


@pytest.fixture(scope="module")
def block_rows():
    """L2.1's default rows at resolution scale 1, as JSON text by label."""
    report = run_suite(ExperimentConfig(suite="L2.1"))
    return {case.label: json.dumps(case.to_dict()) for case in report.cases}


class TestSharedBlockPeaks:
    def test_each_function_and_truncation_takes_one_peak_table(self, monkeypatch, block_rows):
        truncations = []
        block_peaks = suites.block_peaks

        def counting(f):
            truncations.append(f.truncation)
            return block_peaks(f)

        monkeypatch.setattr(suites, "block_peaks", counting)
        report = run_suite(ExperimentConfig(suite="L2.1"))
        truncation = report.resolution["truncation"]
        # Ten functions at two truncations, not once per weight as well.
        assert sorted(truncations) == [truncation] * 10 + [2 * truncation] * 10
        assert {case.label: json.dumps(case.to_dict()) for case in report.cases} == block_rows

    @pytest.mark.parametrize("weight", ["power_0.5", "power_1", "power_2", "power_log_1_1"])
    def test_one_weight_reads_as_in_the_full_run(self, weight, block_rows):
        report = run_suite(ExperimentConfig(suite="L2.1", options={"weights": [weight]}))
        rows = {case.label: json.dumps(case.to_dict()) for case in report.cases}
        assert rows == {label: row for label, row in block_rows.items() if label.startswith(f"{weight}|")}

    def test_failing_peaks_give_error_rows_for_that_function_only(self, monkeypatch, block_rows):
        block_peaks = suites.block_peaks

        def failing(f):
            if f.truncation and np.all(f.coefficients == 1.0):  # "ones", at either truncation
                raise NumericsError("peaks failed")
            return block_peaks(f)

        monkeypatch.setattr(suites, "block_peaks", failing)
        report = run_suite(ExperimentConfig(suite="L2.1"))
        rows = {case.label: case for case in report.cases}
        failed = sorted(label for label, case in rows.items() if case.detail.get("error"))
        assert failed == sorted(f"{w}|ones" for w in ("power_0.5", "power_1", "power_2", "power_log_1_1"))
        assert all(rows[label].detail == {"error": "NumericsError: peaks failed"} for label in failed)
        assert {label: json.dumps(case.to_dict()) for label, case in rows.items() if label not in failed} == {
            label: row for label, row in block_rows.items() if label not in failed
        }


@pytest.fixture(scope="module")
def coefficient_sum_rows():
    """T3.1's default rows at resolution scale 1, as JSON text by label."""
    report = run_suite(ExperimentConfig(suite="T3.1"))
    return {case.label: json.dumps(case.to_dict()) for case in report.cases}


class TestSharedNormRows:
    """L2.1, T3.1 and T3.3 build their rows through one builder, sharing profiles and peaks."""

    def test_each_weight_takes_one_profile_per_truncation(self, monkeypatch, coefficient_sum_rows):
        calls = []
        weight_profile = suites.weight_profile

        def counting(w, n_max):
            calls.append(n_max)
            return weight_profile(w, n_max)

        monkeypatch.setattr(suites, "weight_profile", counting)
        report = run_suite(ExperimentConfig(suite="T3.1"))
        truncation = report.resolution["truncation"]
        # Four weights at two truncations, not once per function as well.
        assert sorted(calls) == [truncation] * 4 + [2 * truncation] * 4
        assert {case.label: json.dumps(case.to_dict()) for case in report.cases} == coefficient_sum_rows

    @pytest.mark.parametrize("weight, function", [("power_0.5", "ones"), ("power_log_1_1", "log_damped")])
    def test_one_row_alone_reads_as_in_the_full_run(self, weight, function, coefficient_sum_rows):
        options = {"weights": [weight], "functions": [function]}
        report = run_suite(ExperimentConfig(suite="T3.1", options=options))
        assert [json.dumps(case.to_dict()) for case in report.cases] == [coefficient_sum_rows[f"{weight}|{function}"]]

    def test_a_weight_whose_profile_fails_gives_error_rows_for_its_rows_only(self, monkeypatch, coefficient_sum_rows):
        weight_profile = suites.weight_profile
        failing_weight = resolve_weight("power_2")

        def failing(w, n_max):
            if w.label == failing_weight.label:
                raise NumericsError("profile failed")
            return weight_profile(w, n_max)

        monkeypatch.setattr(suites, "weight_profile", failing)
        report = run_suite(ExperimentConfig(suite="T3.1"))
        rows = {case.label: case for case in report.cases}
        failed = sorted(label for label, case in rows.items() if case.detail.get("error"))
        assert failed == sorted(label for label in coefficient_sum_rows if label.startswith("power_2|"))
        assert all(rows[label].detail == {"error": "NumericsError: profile failed"} for label in failed)
        assert {label: json.dumps(case.to_dict()) for label, case in rows.items() if label not in failed} == {
            label: row for label, row in coefficient_sum_rows.items() if label not in failed
        }

    def test_only_the_named_functions_are_built(self, monkeypatch):
        built = []
        for name, make in list(suites._SERIES_FACTORIES.items()):
            monkeypatch.setitem(suites._SERIES_FACTORIES, name, lambda n, name=name, make=make: built.append(name) or make(n))
        options = {"weights": ["power_1", "power_2"], "functions": ["harmonic", "monomial_8"]}
        report = run_suite(ExperimentConfig(suite="L2.1", options=options))
        assert built == ["harmonic", "monomial_8"]
        assert len(report.cases) == 4

    @pytest.mark.parametrize("suite", ["T3.1", "T3.3"])
    def test_no_two_weights_profiles_are_alive_at_once(self, monkeypatch, suite):
        # A profile's nu array lives exactly as long as the profile.
        alive = []
        weight_profile = suites.weight_profile

        def tracked(w, n_max):
            gc.collect()
            assert {label for ref, label in alive if ref() is not None} <= {w.label}
            profile = weight_profile(w, n_max)
            alive.append((weakref.ref(profile.nu), w.label))
            return profile

        monkeypatch.setattr(suites, "weight_profile", tracked)
        run_suite(ExperimentConfig(suite=suite))
        assert len(alive) == (8 if suite == "T3.1" else 4)

    def test_an_unknown_function_raises_before_any_row(self):
        with pytest.raises(DomainError, match="unknown monotone series name 'harmonic'"):
            run_suite(ExperimentConfig(suite="T3.3", options={"functions": ["ones", "harmonic"]}))
        with pytest.raises(DomainError, match="unknown series name 'harmonic_shift'"):
            run_suite(ExperimentConfig(suite="T3.1", options={"functions": ["harmonic_shift"]}))


def _looped_witness_values(weight, gap_target):
    """P4.1's witness as first written: extremal series at levels 8, 14, ... until the gap is reached."""
    levels = 8
    while True:
        ext = build_extremal(weight, levels)
        if 1.0 - ext.radii[-1] <= gap_target or levels >= 58:
            break
        levels += 6
    pairs = ext.coefficient_pairs()

    def values(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.ones_like(ts)
        for exponent, coeff in pairs:
            out = out + coeff * ts ** (exponent + 1) / (exponent + 1)
        return out

    return values


class TestWitnessLevel:
    @pytest.mark.parametrize("weight", ["power_0.5", "power_1", "power_2", "power_log_1_1"])
    @pytest.mark.parametrize("gap_exponent", [6, 10, 22, 30, 44])
    def test_one_build_and_the_looped_values(self, monkeypatch, weight, gap_exponent):
        w = resolve_weight(weight)
        gap_target = 2.0**-gap_exponent
        levels = []
        monkeypatch.setattr(suites, "build_extremal", lambda w, n: levels.append(n) or build_extremal(w, n))
        values = suites._witness_values(w, gap_target)
        assert len(levels) == 1 and (levels[0] - 8) % 6 == 0
        ts = np.concatenate([np.linspace(0.0, 0.99, 50), 1.0 - 2.0 ** -np.arange(1.0, gap_exponent + 1)])
        assert np.array_equal(values(ts), _looped_witness_values(w, gap_target)(ts))

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_the_suite_builds_one_series_per_weight(self, monkeypatch, scale):
        levels = []
        monkeypatch.setattr(suites, "build_extremal", lambda w, n: levels.append(n) or build_extremal(w, n))
        report = run_suite(ExperimentConfig(suite="P4.1", resolution_scale=scale))
        assert len(levels) == sum(case.label.startswith("atom_family|") for case in report.cases) == 3

    # The rung read off nu(gap_target) is deep enough without a rebuild: the series
    # reaches the deepest atom of its ladder, or it stops at the 62-level cap.
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_the_witness_reaches_the_deepest_atom(self, monkeypatch, scale):
        built = []
        monkeypatch.setattr(suites, "build_extremal", lambda w, n: built.append((n, build_extremal(w, n))) or built[-1][1])
        report = run_suite(ExperimentConfig(suite="P4.1", resolution_scale=scale))
        families = [case for case in report.cases if case.label.startswith("atom_family|")]
        assert len(built) == len(families) == 3
        for (n, ext), case in zip(built, families):
            assert 1.0 - ext.radii[-1] <= 2.0 ** -max(case.detail["levels"]) or n == 62, case.label


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
        path = write_report(sample, tmp_path, "csv")
        assert path == tmp_path / "report.csv"
        assert path.read_text().startswith("suite,")

    def test_multiple_reports_concatenate(self, sample):
        doc = json.loads(render_json([sample, sample]))
        assert len(doc["reports"]) == 2


def _regen_module():
    spec = importlib.util.spec_from_file_location("regen_digests", REPO / "tests" / "data" / "regen_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDigestHelper:
    """tests/data/regen_digests.py rewrites only the suites it names, and only under the recorded versions."""

    def test_rewrites_only_the_named_suites(self, tmp_path, monkeypatch, capsys):
        if (np.__version__, scipy.__version__) != (REPORT_DIGESTS["numpy"], REPORT_DIGESTS["scipy"]):
            pytest.skip("the helper refuses to run under other numpy or scipy versions")
        regen = _regen_module()
        path = tmp_path / "report_digests.json"
        path.write_text((REPO / "tests" / "data" / "report_digests.json").read_text())
        monkeypatch.setattr(regen, "DIGESTS", path)
        monkeypatch.setattr(regen, "digest", lambda suite, scale: f"{suite}@{scale}")
        assert regen.main(["E3.1"]) == 0
        doc = json.loads(path.read_text())
        assert doc["digests"].pop("E3.1") == {"1": "E3.1@1", "2": "E3.1@2"}
        want = dict(REPORT_DIGESTS, digests={k: v for k, v in REPORT_DIGESTS["digests"].items() if k != "E3.1"})
        assert doc == want
        old = REPORT_DIGESTS["digests"]["E3.1"]
        assert capsys.readouterr().out.splitlines() == [f"E3.1 scale {k}: {old[k]} -> E3.1@{k}" for k in ("1", "2")]

    def test_refuses_other_library_versions(self, tmp_path, monkeypatch, capsys):
        regen = _regen_module()
        path = tmp_path / "report_digests.json"
        text = (REPO / "tests" / "data" / "report_digests.json").read_text()
        path.write_text(text)
        monkeypatch.setattr(regen, "DIGESTS", path)
        monkeypatch.setattr(regen, "np", type("numpy", (), {"__version__": "0.0"}))
        assert regen.main(["E3.1"]) == 2
        assert path.read_text() == text
        assert "recorded under numpy" in capsys.readouterr().err
