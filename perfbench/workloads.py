"""The benchmark's workloads: inputs, the timed operations, and their checks.

A workload has two parts.  ``setup(hb, seed)`` builds the inputs from the
freshly imported package ``hb`` and returns the steps of a round: calls into
the program, each timed on its own.  ``check(results)`` compares what the
steps returned with values computed apart from the program (``oracles``) and
returns one outcome per operation.  An operation is a suite case in the
verify workloads and one library call in ``library_session``.  It fails when
its agreement flag is false or an oracle rejects it.  A workload's
``known_faults`` map the operations that fail on every run because of a
fault in the program to the way each is expected to fail (``Outcome.fault``);
any other failure, or a known one that fails another way, makes the run
incorrect.

``oracles`` (and mpmath with it) is imported only when the first round is
checked, after its steps have run, so that its memory stays out of the peak
resident memory the benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Suites that evaluate no deep series, with their case counts.
LIGHT_CASES = {
    "E3.1": 4, "L2.2": 5, "L2.3": 6, "L2.4": 3, "L2.5": 8, "P4.1": 7, "T3.3": 24,
    "T5.1": 5, "T5.3": 4, "T5.4": 4, "T5.6": 3, "T5.7": 2, "T5.8": 3, "remark5": 5,
}
# The four suites that evaluate series at degree 2^13 and beyond.  At scale 1
# they take about 80 s together, more than a run may last, so the verify
# workload runs them on a subset of their cases (configs/) at their default
# resolution: the cases that remain give the same rows as in a full run.
HEAVY_CONFIGS = ["L2_1.json", "T3_1.json", "T4_2.json", "T4_3.json"]

# How the two known faults show.  build_extremal probes the weight through the
# radius; at level 62 the gap 2^-62 rounds the radius to 1.0.
RADIUS_FAULT = "radius rounds to 1.0"
RADIUS_FAULT_DETAIL = {"error": "DomainError: radius must lie in [0, 1)"}
# norm_direct scans 256 angles whatever the degree and so falls below the
# FFT lower bound, by about 23 % on the fixed polynomial; a shortfall of more
# than 30 %, or a value above the triangle bound, is another fault.
ANGLE_FAULT = "256 angles miss the circle maximum"
ANGLE_FAULT_MAX_SHORTFALL = 0.30


@dataclass
class Step:
    """One timed call into the program; ``meta`` tells the check what it computed."""

    name: str
    call: Callable[[], object]
    meta: object = None


@dataclass
class Outcome:
    op: str
    ok: bool
    why: str = ""
    fault: str = ""  # the known program fault this failure shows, if it matches one


@dataclass
class Checked:
    outcomes: list[Outcome]
    problems: list[str] = field(default_factory=list)  # structural faults: make the run incorrect


def _rel_err(value, reference) -> float:
    reference = float(reference)
    return abs(float(value) - reference) / abs(reference)


# -- verify workloads --------------------------------------------------------------


class VerifyWorkload:
    """``hilbloch verify --format json`` once per suite, the reports parsed back."""

    def __init__(self, name, argvs, expected_cases, known_faults=None):
        self.name = name
        self.argvs = argvs  # suite id -> verify arguments
        self.expected_cases = expected_cases
        self.known_faults = known_faults or {}
        self._cache: dict = {}

    def setup(self, hb, seed) -> list[Step]:
        cli = importlib.import_module("hilbloch.cli")
        return [Step(suite, functools.partial(_verify, cli, argv)) for suite, argv in self.argvs.items()]

    def check(self, results) -> Checked:
        outcomes, problems, counts = [], [], {}
        for step, (code, text, err) in results:
            doc = json.loads(text)
            for report in doc["reports"]:
                suite = report["suite"]
                counts[suite] = len(report["cases"])
                for case in report["cases"]:
                    op = f"{suite}|{case['label']}"
                    if not case["agree"]:
                        fault = RADIUS_FAULT if case["detail"] == RADIUS_FAULT_DETAIL else ""
                        outcomes.append(Outcome(op, False, f"agree=false {case['detail']}", fault))
                    else:
                        outcomes.append(Outcome(op, *self._oracle(suite, case, report["resolution"])))
            if code != (0 if doc["all_agree"] else 1):
                problems.append(f"verify {step.name} exited {code} with all_agree={doc['all_agree']}: {err[-400:]}")
        if counts != self.expected_cases:
            problems.append(f"suite case counts {counts} differ from {self.expected_cases}")
        return Checked(outcomes, problems)

    # Oracles keyed by suite; each returns (ok, why) for one case.
    def _oracle(self, suite, case, resolution):
        import oracles

        label, left = case["label"], case["left"]
        key = (suite, label, json.dumps(resolution, sort_keys=True))
        if suite in ("L2.1", "T3.1"):
            weight, function = label.split("|")
            if weight not in oracles.POWER_GAMMA or function not in ("constant", "affine", "monomial_8", "monomial_64"):
                return True, ""
            return self._close(key, left, lambda: oracles.power_norm(function, oracles.POWER_GAMMA[weight]), 1e-9)
        if suite == "T4.3" and label == "lebesgue|power_0.5->power_1|alpha=0":
            n = resolution["n_max"]
            return self._close(key, left, lambda: oracles.plain_moment_sup(n), 1e-9)
        if suite == "P4.1" and label.startswith("fixed|"):
            _, measure, weight = label.split("|")
            if measure == "lebesgue" and weight == "power_2":  # gauge ~ 1/(1-t): the integral diverges
                ok = case["left_verdict"] == "divergent" and not math.isfinite(left)
                return ok, "" if ok else f"expected a divergent gauge integral, got {left}"
            return self._close(key, left, lambda: oracles.gauge_integral(measure, weight), 1e-7)
        if suite == "E3.1":
            depth = resolution["deep_depth"]
            return self._close(key, left, lambda: oracles.dyadic_ladder_sup(label, depth), 1e-10)
        if suite == "T5.4":
            sigma = float(label.split("=")[1])
            depth = resolution["depth"]
            return self._close(key, left, lambda: oracles.small_beta_carleson_sup(sigma, 1.5, depth), 1e-12)
        return True, ""

    def _close(self, key, value, reference, tol):
        if key not in self._cache:
            self._cache[key] = reference()
        ref = self._cache[key]
        err = _rel_err(value, ref)
        return err <= tol, "" if err <= tol else f"relative error {err:.3g} against {float(ref)!r}"


def _verify(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _verify_argvs(heavy_configs, scale):
    argvs = {}
    for name in heavy_configs:
        path = CONFIG_DIR / name
        argvs[json.loads(path.read_text(encoding="utf-8"))["suite"]] = ["--config", str(path)]
    argvs.update({suite: ["--suite", suite] for suite in LIGHT_CASES})
    return {suite: ["verify", *args, "--resolution-scale", scale, "--format", "json"] for suite, args in argvs.items()}


def _verify_scale1():
    return VerifyWorkload(
        "verify_scale1",
        _verify_argvs(HEAVY_CONFIGS, "1"),
        {**LIGHT_CASES, "L2.1": 4, "T3.1": 4, "T4.2": 1, "T4.3": 2},
    )


def _verify_scale2_light():
    return VerifyWorkload(
        "verify_scale2_light",
        _verify_argvs([], "2"),
        LIGHT_CASES,
        known_faults={"P4.1|atom_family|power_2": RADIUS_FAULT},
    )


# -- library session -------------------------------------------------------------------

MOMENT_N = 2**18
MOMENT_MEASURES = ["lebesgue", "atom_half", "density_1", "density_2", "density_-0.5", "density_1_log-1", "atom_ladder_16"]
MOMENT_INDICES = [0, 1, 2, 3, 10, 100, 1000, 4097, 10**4, 31337, 65536, 100000, 177777, MOMENT_N]
LOG_MOMENT_INDICES = [0, 1, 10, 1000, 65536, MOMENT_N]
APPLY_N = 2**14
APPLY_MEASURES = ["lebesgue", "density_1", "density_2", "density_-0.5"]
APPLY_SERIES = ["constant", "harmonic"]
NORM_WEIGHTS = ["power_0.5", "power_1", "power_2", "power_log_1_1"]
SIGNED_DEGREE = 2**12
# A signed polynomial that does not depend on --seed.  norm_direct scans 256
# angles whatever the degree, so at degree 2^13 it returns values about 23 %
# below nu(r) max|f'| sampled finely on its own rungs, under every weight
# whose supremum sits near the boundary (all but power_2).  These operations
# fail on every run, as ANGLE_FAULT, until the estimator resolves the degree.  On the seeded
# polynomials the shortfall is as large, but whether it shows depends on the
# draw, so they are held only to bounds that a correct estimator always meets.
FIXED_SIGNED_SEED = 0
FIXED_SIGNED_DEGREE = 2**13
FIXED_SIGNED_FAULTS = ["power_0.5", "power_1", "power_log_1_1"]
DYADIC_BAND = 50.0


def _radial_depth(degree: int) -> int:
    """Rungs down to 1 - 2^-(log2 N + 2), the depth operator_norm_probe uses for degree N."""
    return max(12, int(math.log2(degree)) + 2)


class LibrarySession:
    name = "library_session"

    def __init__(self):
        self.known_faults = {f"norm_direct|fixed_{FIXED_SIGNED_DEGREE}|{w}": ANGLE_FAULT for w in FIXED_SIGNED_FAULTS}
        self._cache: dict = {}

    def setup(self, hb, seed) -> list[Step]:
        # Every operation gets its own measure, so no moment grid is shared.
        steps = []
        for m in MOMENT_MEASURES:
            mu = hb.resolve_measure(m)
            steps.append(Step(f"moments|{m}", functools.partial(mu.contiguous_moments, MOMENT_N), ("moments", m)))
        for m in APPLY_MEASURES:
            for s in APPLY_SERIES:
                f = hb.resolve_series(s, APPLY_N)
                cfg = hb.OperatorConfig(0.0, hb.resolve_measure(m), APPLY_N)
                steps.append(Step(f"apply|{m}|{s}", functools.partial(hb.apply_coefficient, f, cfg), ("apply", m, s, f)))
        polys = [
            (f"signed_{SIGNED_DEGREE}", SIGNED_DEGREE, seed, ["norm_direct", "norm_dyadic_blocks"]),
            (f"fixed_{FIXED_SIGNED_DEGREE}", FIXED_SIGNED_DEGREE, FIXED_SIGNED_SEED, ["norm_direct"]),
        ]
        for label, degree, poly_seed, calls in polys:
            f = hb.random_signed_polynomials(1, degree, poly_seed)[0][1]
            for w in NORM_WEIGHTS:
                weight = hb.resolve_weight(w)
                for call in calls:
                    kwargs = {"radial_depth": _radial_depth(f.truncation)} if call == "norm_direct" else {}
                    fn = functools.partial(getattr(hb, call), f, weight, **kwargs)
                    steps.append(Step(f"{call}|{label}|{w}", fn, (call, label, w, f)))
        return steps

    def check(self, results) -> Checked:
        outcomes, direct = [], {}
        for step, value in results:
            kind = step.meta[0]
            if kind == "moments":
                outcomes.append(self._check_moments(step.name, step.meta[1], value))
            elif kind == "apply":
                outcomes.append(self._check_image(step.name, *step.meta[1:], value))
            elif kind == "norm_direct":
                _, label, weight, f = step.meta
                direct[label, weight] = value.value
                outcomes.append(self._check_direct(step.name, label, f, weight, value.value))
            else:
                _, label, weight, f = step.meta
                ratio = value.value / direct[label, weight]
                ok = 1.0 / DYADIC_BAND <= ratio <= DYADIC_BAND
                outcomes.append(Outcome(step.name, ok, "" if ok else f"ratio to the direct norm {ratio:.4g}"))
        return Checked(outcomes)

    def _check_direct(self, op, label, f, weight, value) -> Outcome:
        import oracles

        key = ("bounds", label, weight)  # a run's polynomials are the same in every round
        if key not in self._cache:
            self._cache[key] = oracles.signed_bounds(f.coefficients, weight, _radial_depth(f.truncation))
        lower, upper = self._cache[key]
        if value > upper * (1 + 1e-9):
            return Outcome(op, False, f"{value:.6g} above triangle bound {upper:.6g}")
        if label.startswith("fixed") and value < lower:
            shortfall = 1 - value / lower
            fault = ANGLE_FAULT if shortfall <= ANGLE_FAULT_MAX_SHORTFALL else ""
            return Outcome(op, False, f"{value:.6g} below FFT lower bound {lower:.6g} (-{shortfall:.1%})", fault)
        return Outcome(op, True)

    def _check_moments(self, op, measure, values) -> Outcome:
        import oracles

        if len(values) != MOMENT_N + 1:
            return Outcome(op, False, f"{len(values)} moments, expected {MOMENT_N + 1}")
        # A positive measure on [0, 1) has positive, non-increasing moments.
        if np.any(values < 0) or np.any(np.diff(values) > 1e-12 * values[:-1]):
            return Outcome(op, False, "moments are not positive and non-increasing")
        indices = LOG_MOMENT_INDICES if measure == oracles.LOG_DENSITY else MOMENT_INDICES
        key = ("moments", measure)
        if key not in self._cache:
            self._cache[key] = [float(oracles.moment(measure, n)) for n in indices]
        for n, ref in zip(indices, self._cache[key]):
            if abs(values[n] - ref) > 1e-10 * abs(ref) + 1e-300:
                return Outcome(op, False, f"mu_{n} = {values[n]!r}, reference {ref!r}")
        return Outcome(op, True)

    def _check_image(self, op, measure, series, f, image) -> Outcome:
        import oracles

        cache_key = ("image", measure, series)
        if cache_key not in self._cache:
            if measure == "lebesgue" and series == "constant":
                # Hilbert matrix: the image of 1 under dt with alpha = 0 is 1/(n+1).
                self._cache[cache_key] = 1.0 / np.arange(1, APPLY_N + 2, dtype=float)
            else:
                self._cache[cache_key] = oracles.coefficient_image(measure, f.coefficients, APPLY_N)
        ref = self._cache[cache_key]
        b = image.coefficients
        if b.shape != ref.shape:
            return Outcome(op, False, f"image has {b.size} coefficients, expected {ref.size}")
        err = float(np.max(np.abs(b - ref) / np.abs(ref)))
        return Outcome(op, err <= 1e-9, "" if err <= 1e-9 else f"max relative error {err:.3g}")


WORKLOADS = {w.name: w for w in (_verify_scale1(), _verify_scale2_light(), LibrarySession())}
