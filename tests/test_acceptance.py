"""Acceptance checks: thirteen end-to-end properties at fixed tolerances.

Each test is one acceptance criterion; `pytest -v` prints one pass/fail line
per criterion.  Criteria that restate a shipped verification suite run that
suite at its default configuration and additionally assert the stated
per-case tolerances from the report payload.
"""

import cmath
import math

import numpy as np
import pytest

from hilbloch.catalog import builtin_measures, series_catalog
from hilbloch.hilbert_op import (
    OperatorConfig,
    apply_coefficient,
    apply_quadrature,
    criterion_beta_spaces,
    criterion_log_spaces,
    hankel_apply,
)
from hilbloch.measures import RadialMeasure, lebesgue, power_log_density
from hilbloch.series import TaylorSeries, block_polynomial, sup_norm
from hilbloch.suites import default_config, run_suite
from hilbloch.trend import VERDICT_BOUNDED, VERDICT_UNBOUNDED


def classic_value(z: complex) -> complex:
    return -cmath.log(1.0 - z) / z


def run_and_check(suite: str):
    report = run_suite(default_config(suite))
    assert report.agreement, f"{suite}: " + "; ".join(
        f"{c.label} ({c.left_verdict}/{c.right_verdict})" for c in report.cases if not c.agree
    )
    return report


def test_criterion_01_classic_hilbert_closed_form():
    cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=2**12)
    image = apply_coefficient(TaylorSeries([1.0]), cfg)
    n = np.arange(2**12 + 1, dtype=float)
    assert np.max(np.abs(image.coefficients - 1.0 / (n + 1.0))) < 1e-10

    points = [0.9, -0.9, 0.5, -0.5, 0.3, 0.9j, 0.9 * cmath.exp(1j * math.pi / 4), 0.2 - 0.7j]
    for z in points:
        assert abs(image(z) - classic_value(z)) < 1e-9, z


def test_criterion_02_mode_agreement_across_catalog():
    functions = ["constant", "affine", "monomial_8", "geometric", "harmonic"]
    measures = ["lebesgue", "atom_half", "density_1"]
    alphas = [0.0, 1.0]
    catalog = series_catalog(2**10)
    points = [0.3, -0.7, 0.9, 0.9 * cmath.exp(1j * math.pi / 4)]
    cases = 0
    for fname in functions:
        f = catalog[fname]
        for mname in measures:
            mu = builtin_measures()[mname]
            for alpha in alphas:
                cfg = OperatorConfig(alpha=alpha, measure=mu, truncation=2**10)
                series = apply_coefficient(f, cfg)
                for z in points:
                    tol = 1e-8 * (1.0 - abs(z)) ** -(alpha + 1.0)
                    gap = abs(apply_quadrature(f, cfg, z) - series(z))
                    assert gap < tol, (fname, mname, alpha, z, gap, tol)
                cases += 1
    assert cases >= 30


def test_criterion_03_coefficient_estimator_band():
    report = run_and_check("T3.1")
    assert len(report.cases) >= 40
    assert report.resolution["truncation"] == 2**13
    for case in report.cases:
        assert case.detail["in_band"], case.label
        assert case.detail["drift"] < 0.2, case.label
        assert case.left_verdict == case.right_verdict, case.label


def test_criterion_04_dyadic_block_estimator_band():
    report = run_and_check("L2.1")
    assert len(report.cases) >= 40
    for case in report.cases:
        assert case.detail["in_band"], case.label
        assert case.detail["drift"] < 0.2, case.label
        assert case.left_verdict == case.right_verdict, case.label


def test_criterion_05_monotone_verdicts_match_everywhere():
    report = run_and_check("T3.3")
    assert len(report.cases) == 24
    for case in report.cases:
        assert case.left_verdict == case.right_verdict, case.label


def test_criterion_06_laplace_tail_sweep_bounded_and_flat():
    report = run_and_check("L2.4")
    labels = {case.label for case in report.cases}
    assert labels == {"power_0.5", "power_1", "power_log_1_1"}
    assert report.resolution["delta_exponents"] == [2, 3, 4, 5, 6]
    for case in report.cases:
        spread = case.left / case.right
        assert spread < 100.0, case.label
        assert case.detail["slope"] <= 0.05, case.label


def test_criterion_07_dyadic_sum_ratio_stable_under_deepening():
    report = run_and_check("E3.1")
    assert report.resolution["base_depth"] == 16
    assert report.resolution["deep_depth"] == 20
    for case in report.cases:
        assert math.isfinite(case.left), case.label
        assert case.ratio < 2.0, case.label


def test_criterion_08_reweighted_carleson_catalog():
    report = run_and_check("L2.5")
    assert len(report.cases) == 8
    verdicts = {case.left_verdict for case in report.cases}
    assert verdicts == {"bounded", "unbounded"}
    for case in report.cases:
        assert case.left_verdict == case.right_verdict, case.label


def test_criterion_09_moment_general_probe_coherence():
    report = run_and_check("T4.3")
    assert len(report.cases) >= 6
    for case in report.cases:
        assert case.left_verdict == case.right_verdict == case.detail["probe_verdict"], case.label


def test_criterion_10_log_exponent_shift_threshold():
    expectations = [
        (0.0, 1.0, VERDICT_BOUNDED),
        (1.0, 2.0, VERDICT_BOUNDED),
        (-1.0, 0.0, VERDICT_UNBOUNDED),
        (-2.0, -1.0, VERDICT_UNBOUNDED),
    ]
    for beta, gamma, expected in expectations:
        result = criterion_log_spaces(lebesgue(), alpha=0.0, beta=beta, gamma=gamma, n_max=2**18)
        assert result.verdict == expected, (beta, gamma, result.verdict)


def test_criterion_11_power_scale_boundary_flip():
    protocols = [
        # beta > 1: threshold sigma = alpha + beta - gamma.
        {"alpha": 0.5, "beta": 2.0, "gamma": 1.0, "threshold": 1.5},
        # 0 < beta < 1: threshold sigma = alpha + 1 - gamma.
        {"alpha": 0.5, "beta": 0.5, "gamma": 1.0, "threshold": 0.5},
    ]
    for proto in protocols:
        for offset in (-0.75, -0.25, 0.25, 0.75):
            sigma = proto["threshold"] + offset
            mu = RadialMeasure(density=power_log_density(sigma))
            result = criterion_beta_spaces(
                mu, alpha=proto["alpha"], beta=proto["beta"], gamma=proto["gamma"], depth=24
            )
            expected = VERDICT_BOUNDED if offset > 0 else VERDICT_UNBOUNDED
            assert result.verdict == expected, (proto, offset, result.verdict)


def test_criterion_12_block_polynomial_properties():
    # Blocks 0..8 telescope to f on every exponent up to 2^8.
    rng = np.random.default_rng(20260814)
    for f in (TaylorSeries(rng.standard_normal(257)), series_catalog(256)["harmonic"]):
        rebuilt = np.zeros(len(f.coefficients))
        for n in range(9):
            block = block_polynomial(n)
            piece = block.hadamard(f)[: len(rebuilt) - block.offset]
            rebuilt[block.offset : block.offset + len(piece)] += piece
        assert np.max(np.abs(rebuilt - f.coefficients)) < 1e-12

    # Sup, H^2 and H^1 norms of block n scale like 2^n, 2^(n/2) and 1; the H^1
    # norm is the mean of |block| over 8 (degree + 1) points of the circle.
    sup_band, two_band, one_band = [], [], []
    for n in range(1, 11):
        block = block_polynomial(n)
        sup_band.append(sup_norm(block.values) / 2.0**n)
        two_band.append(np.linalg.norm(block.values) / 2.0 ** (n / 2.0))
        one_band.append(np.mean(np.abs(np.fft.fft(block.values, 8 * (block.degree + 1)))))
    for band in (sup_band, two_band, one_band):
        assert max(band) / min(band) <= 4.0, band


def test_criterion_13_hankel_identity():
    functions = ["constant", "affine", "monomial_8", "geometric", "harmonic"]
    catalog = series_catalog(32)
    for fname in functions:
        f = catalog[fname]
        for mname in ("lebesgue", "atom_half", "density_1"):
            mu = builtin_measures()[mname]
            for alpha in (0.0, 0.5):
                cfg = OperatorConfig(alpha=alpha, measure=mu, truncation=48)
                via_moments = apply_coefficient(f, cfg)
                via_hankel = hankel_apply(f.coefficients, mu, alpha, 48)
                gap = np.max(np.abs(via_moments.coefficients - via_hankel.coefficients))
                assert gap < 1e-10, (fname, mname, alpha, gap)
