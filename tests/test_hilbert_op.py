"""Operator layer: kernel coefficients, application modes, boundedness criteria."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from hilbloch.catalog import builtin_measures, builtin_weights, probe_functions
from hilbloch.errors import DomainError, NumericsError, PreconditionError
from hilbloch.hilbert_op import (
    PROBE_GROWING,
    PROBE_STABLE,
    OperatorConfig,
    apply_coefficient,
    apply_quadrature,
    apply_sublinear,
    config_from_json,
    config_to_json,
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
    gamma_coefficient,
    gamma_table,
    hankel_apply,
    operator_norm_probe,
    sign_change_points,
    well_defined_check,
)
from hilbloch.measures import lebesgue, point_mass
from hilbloch.series import TaylorSeries
from hilbloch.trend import VERDICT_BOUNDED, VERDICT_UNBOUNDED
from hilbloch.weights import power_weight

LN2_PLUS_1 = 1.6931471805599453


class TestGammaCoefficients:
    def test_alpha_zero_is_ones(self):
        assert np.allclose(gamma_table(16, 0.0), 1.0)

    def test_alpha_one_is_linear(self):
        assert np.allclose(gamma_table(8, 1.0), np.arange(1.0, 10.0))

    def test_fractional_alpha_matches_gamma_functions(self):
        alpha = 0.5
        n = np.arange(0, 200)
        oracle = np.exp(gammaln(n + 1 + alpha) - gammaln(n + 1) - gammaln(1 + alpha))
        assert np.allclose(gamma_table(199, alpha), oracle, rtol=1e-13)

    @pytest.mark.parametrize("alpha", [-0.75, -0.5, 0.25, 1.5, 3.0])
    def test_table_matches_mpmath_to_2_18(self, alpha):
        ns = sorted({0, 1} | {2**k + d for k in range(1, 19) for d in (-1, 0, 1)} - {2**18 + 1})
        with mpmath.workdps(30):
            oracle = [float(mpmath.gammaprod([n + alpha + 1], [alpha + 1, n + 1])) for n in ns]
        assert gamma_table(2**18, alpha)[ns] == pytest.approx(oracle, rel=1e-12)

    def test_scalar_matches_table(self):
        assert gamma_coefficient(7, 0.25) == pytest.approx(gamma_table(7, 0.25)[-1], rel=1e-14)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            gamma_table(4, -1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0, -2.0])
@pytest.mark.parametrize(
    "build",
    [
        lambda alpha: gamma_table(4, alpha),
        lambda alpha: OperatorConfig(alpha=alpha, measure=point_mass(0.5), truncation=8),
        lambda alpha: criterion_moment(lebesgue(), power_weight(0.5), power_weight(1.0), alpha, n_max=2**10),
    ],
    ids=["gamma_table", "OperatorConfig", "criterion_moment"],
)
def test_alpha_outside_the_domain_is_rejected(build, alpha):
    # NaN and inf must not slip through to a verdict: -1 < alpha < inf is checked in one place.
    with pytest.raises(DomainError, match="alpha"):
        build(alpha)


class TestOperatorConfig:
    def test_round_trip(self):
        cfg = OperatorConfig(alpha=0.5, measure=point_mass(0.5), truncation=64)
        again = config_from_json(config_to_json(cfg))
        assert again.alpha == cfg.alpha
        assert again.truncation == 64
        assert again.measure.moment(3) == pytest.approx(cfg.measure.moment(3))

    def test_unknown_keys_rejected(self):
        doc = config_to_json(OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=8))
        doc["extra"] = 1
        with pytest.raises(DomainError):
            config_from_json(doc)

    def test_alpha_floor(self):
        with pytest.raises(DomainError):
            OperatorConfig(alpha=-1.0, measure=point_mass(0.5), truncation=8)

    @pytest.mark.parametrize("key, value", [("alpha", "x"), ("truncation", 1e400), ("rel_tol", None), ("alpha", True)])
    def test_malformed_number_rejected(self, key, value):
        doc = config_to_json(OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=8))
        doc[key] = value
        with pytest.raises(DomainError, match=key):
            config_from_json(doc)


class TestWellDefined:
    def test_arcsine_gauge_integral(self):
        report = well_defined_check(lebesgue(), power_weight(0.5))
        assert report.finite
        assert report.integral == pytest.approx(math.pi / 2.0, rel=1e-7)

    def test_atanh_gauge_integral(self):
        report = well_defined_check(lebesgue(), power_weight(1.0))
        assert report.finite
        assert report.integral == pytest.approx(LN2_PLUS_1, rel=1e-8)

    def test_linear_density_against_quartic_weight(self):
        report = well_defined_check(builtin_measures()["density_1"], power_weight(2.0))
        assert report.finite
        assert report.integral == pytest.approx(0.75, rel=1e-8)

    def test_divergent_pairing(self):
        report = well_defined_check(lebesgue(), power_weight(2.0))
        assert not report.finite

    def test_report_serializes(self):
        report = well_defined_check(point_mass(0.5), power_weight(1.0))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["finite"] is True


class TestApplyModes:
    def test_point_mass_geometric_output(self):
        cfg = OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=128)
        out = apply_coefficient(TaylorSeries([1.0]), cfg)
        assert np.allclose(out.coefficients, 0.5 ** np.arange(129), rtol=1e-13)
        assert out(0.4) == pytest.approx(1.25, rel=1e-12)

    def test_point_mass_alpha_one(self):
        cfg = OperatorConfig(alpha=1.0, measure=point_mass(0.5), truncation=256)
        out = apply_coefficient(TaylorSeries([1.0]), cfg)
        # Kernel (1-tz)^-2 at t=1/2, z=0.4: 1/0.8^2.
        assert out(0.4) == pytest.approx(1.5625, rel=1e-10)

    def test_lebesgue_reciprocal_moments(self):
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=64)
        out = apply_coefficient(TaylorSeries([1.0]), cfg)
        assert np.allclose(out.coefficients, 1.0 / np.arange(1.0, 66.0), rtol=1e-11)

    def test_input_coefficients_mix(self):
        # b_n = c_n * (mu_n a_0 + mu_{n+1} a_1) for f = a_0 + a_1 z.
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=16)
        out = apply_coefficient(TaylorSeries([1.0, 2.0]), cfg)
        n = np.arange(17.0)
        assert np.allclose(out.coefficients, 1.0 / (n + 1.0) + 2.0 / (n + 2.0), rtol=1e-10)

    def test_sublinear_equals_plain_on_nonnegative(self):
        cfg = OperatorConfig(alpha=0.5, measure=lebesgue(), truncation=32)
        f = TaylorSeries([0.5, 0.25, 0.125])
        plain = apply_coefficient(f, cfg)
        sub = apply_sublinear(f, cfg)
        assert np.allclose(plain.coefficients, sub.coefficients, rtol=1e-9)

    def test_sublinear_dominates_signed_input(self):
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=32)
        f = TaylorSeries([0.5, -1.0, 0.25])
        plain = apply_coefficient(f, cfg)
        sub = apply_sublinear(f, cfg)
        assert np.all(sub.coefficients >= np.abs(plain.coefficients) - 1e-12)

    def test_sign_change_points_find_roots(self):
        f = TaylorSeries([-0.25, 0.0, 1.0])  # root at t = 1/2
        roots = sign_change_points(f)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_quadrature_matches_series_eval(self):
        cfg = OperatorConfig(alpha=0.5, measure=builtin_measures()["density_1"], truncation=512)
        f = TaylorSeries([1.0, -0.5, 0.25])
        series = apply_coefficient(f, cfg)
        for z in (0.3, -0.6, 0.5 + 0.4j):
            direct = apply_quadrature(f, cfg, z)
            assert direct == pytest.approx(series(z), rel=1e-9)

    def test_quadrature_rejects_boundary(self):
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=8)
        with pytest.raises(DomainError):
            apply_quadrature(TaylorSeries([1.0]), cfg, 1.0)

    @given(st.floats(min_value=-0.8, max_value=0.8))
    def test_operator_is_linear_in_input(self, z):
        cfg = OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=64)
        f = TaylorSeries([1.0, 0.5])
        g = TaylorSeries([0.25, -1.0])
        both = TaylorSeries(f.pad(1).coefficients + g.pad(1).coefficients)
        lhs = apply_coefficient(both, cfg)(z)
        rhs = apply_coefficient(f, cfg)(z) + apply_coefficient(g, cfg)(z)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestHankel:
    def test_matches_coefficient_mode(self):
        cfg = OperatorConfig(alpha=0.5, measure=builtin_measures()["density_1"], truncation=48)
        f = TaylorSeries([1.0, 0.5, 0.25, 0.125])
        via_moments = apply_coefficient(f, cfg)
        via_hankel = hankel_apply(f.coefficients, cfg.measure, cfg.alpha, cfg.truncation)
        assert np.allclose(via_hankel.coefficients, via_moments.coefficients, atol=1e-12, rtol=1e-10)

    def test_rejects_non_decaying_long_input(self):
        with pytest.raises(NumericsError):
            hankel_apply(np.ones(256), lebesgue(), 0.0, 16)

    def test_rejects_empty_input(self):
        with pytest.raises(DomainError):
            hankel_apply([], lebesgue(), 0.0, 4)


class TestCriteria:
    def test_general_requires_well_defined(self):
        with pytest.raises(PreconditionError):
            criterion_general(lebesgue(), power_weight(2.0), power_weight(1.0), alpha=0.0)

    def test_moment_requires_finite_gauge(self):
        with pytest.raises(PreconditionError):
            criterion_moment(lebesgue(), power_weight(1.0), power_weight(1.0), alpha=0.0)

    def test_moment_bounded_case(self):
        result = criterion_moment(
            lebesgue(), builtin_weights()["power_0.5"], power_weight(1.0), alpha=0.0, n_max=2**16
        )
        assert result.verdict == VERDICT_BOUNDED
        assert result.details["compactness"] == VERDICT_BOUNDED
        # q_n = n^2 nu(1-1/n) mu_n -> 2 for Lebesgue and nu = 1-r^2.
        assert result.sup_value == pytest.approx(2.0, rel=0.1)

    def test_moment_unbounded_case(self):
        result = criterion_moment(
            lebesgue(), builtin_weights()["power_0.5"], power_weight(0.5), alpha=0.0, n_max=2**16
        )
        assert result.verdict == VERDICT_UNBOUNDED

    def test_general_agrees_with_moment_when_gauge_is_bounded(self):
        omega, nu = builtin_weights()["power_0.5"], power_weight(1.0)
        lhs = criterion_general(lebesgue(), omega, nu, alpha=0.0, n_max=2**16)
        rhs = criterion_moment(lebesgue(), omega, nu, alpha=0.0, n_max=2**16)
        assert lhs.verdict == rhs.verdict == VERDICT_BOUNDED

    def test_bloch_to_gamma_automatic_region(self):
        result = criterion_bloch_to_gamma(lebesgue(), alpha=0.0, gamma=2.5)
        assert result.verdict == VERDICT_BOUNDED

    def test_bloch_to_gamma_critical_lebesgue(self):
        result = criterion_bloch_to_gamma(lebesgue(), alpha=0.0, gamma=1.0, n_max=2**16, depth=20)
        assert result.verdict == VERDICT_UNBOUNDED

    def test_bloch_to_gamma_modes_share_verdict(self):
        mu = builtin_measures()["density_2"]
        for mode in ("carleson", "moment"):
            result = criterion_bloch_to_gamma(mu, alpha=1.0, gamma=1.0, mode=mode, n_max=2**16, depth=20)
            assert result.verdict == VERDICT_BOUNDED
            assert result.details["forms_agree"]

    def test_bloch_to_gamma_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            criterion_bloch_to_gamma(lebesgue(), alpha=0.0, gamma=1.0, mode="vibes")

    def test_beta_spaces_rejects_unit_beta(self):
        with pytest.raises(DomainError):
            criterion_beta_spaces(lebesgue(), alpha=0.5, beta=1.0, gamma=1.0)

    def test_beta_spaces_large_beta_threshold(self):
        # Threshold sigma = alpha + beta - gamma = 1.5 for these parameters.
        from hilbloch.measures import power_log_density, radial_measure

        bounded = radial_measure(density=power_log_density(2.25))
        result = criterion_beta_spaces(bounded, alpha=0.5, beta=2.0, gamma=1.0, depth=20)
        assert result.verdict == VERDICT_BOUNDED
        assert "reweighted_form" in result.details

        unbounded = radial_measure(density=power_log_density(0.75))
        result = criterion_beta_spaces(unbounded, alpha=0.5, beta=2.0, gamma=1.0, depth=20)
        assert result.verdict == VERDICT_UNBOUNDED

    def test_beta_spaces_small_beta_reports_compactness(self):
        result = criterion_beta_spaces(lebesgue(), alpha=0.5, beta=0.5, gamma=1.0, depth=20)
        assert result.details["compactness"] == result.verdict

    def test_log_spaces_verdicts(self):
        up = criterion_log_spaces(lebesgue(), alpha=0.0, beta=0.0, gamma=1.0, n_max=2**16, depth=20)
        assert up.verdict == VERDICT_BOUNDED
        assert "tail_form" in up.details
        down = criterion_log_spaces(lebesgue(), alpha=0.0, beta=-2.0, gamma=-1.0, n_max=2**16, depth=20)
        assert down.verdict == VERDICT_UNBOUNDED

    def test_log_spaces_fast_branch_reports_compactness(self):
        result = criterion_log_spaces(lebesgue(), alpha=0.0, beta=-2.0, gamma=0.0, n_max=2**16, depth=20)
        assert result.details["compactness"] == result.verdict

    @pytest.mark.parametrize(
        "call",
        [
            lambda: criterion_beta_spaces(lebesgue(), 0.5, math.nan, 1.0),
            lambda: criterion_beta_spaces(lebesgue(), 0.5, 0.5, math.nan),
            lambda: criterion_log_spaces(lebesgue(), 0.0, math.nan, 1.0),
            lambda: criterion_log_spaces(lebesgue(), 0.0, 0.0, math.nan),
            lambda: criterion_bloch_to_gamma(lebesgue(), 0.0, math.nan),
            lambda: criterion_bloch_to_gamma(lebesgue(), 0.0, math.inf),
        ],
        ids=["beta-spaces-beta", "beta-spaces-gamma", "log-beta", "log-gamma", "bloch-gamma-nan", "bloch-gamma-inf"],
    )
    def test_non_finite_exponent_is_rejected(self, call):
        with pytest.raises(DomainError, match="must be a finite number"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: criterion_moment(lebesgue(), power_weight(0.5), power_weight(1.0), 0.0, n_max=0),
            lambda: criterion_general(lebesgue(), power_weight(0.5), power_weight(1.0), 0.0, n_max=-5),
            lambda: criterion_bloch_to_gamma(lebesgue(), 0.0, 1.0, n_max=0.5),
            lambda: criterion_log_spaces(lebesgue(), 0.0, -2.0, 1.0, n_max=0),
        ],
        ids=["moment", "general", "bloch-to-gamma", "log-spaces"],
    )
    def test_n_max_below_one_is_rejected(self, call):
        with pytest.raises(DomainError, match="n_max must be at least 1"):
            call()


class TestProbe:
    def test_stable_on_point_mass(self):
        omega = nu = power_weight(1.0)
        cfg = OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=2**7)
        report = operator_norm_probe(cfg, omega, nu, probe_functions(omega, 2**8))
        assert report.classification == PROBE_STABLE
        assert report.growth <= 1.1

    def test_growing_on_critical_lebesgue(self):
        omega = nu = builtin_weights()["power_0.5"]
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=2**9)
        report = operator_norm_probe(cfg, omega, nu, probe_functions(omega, 2**10))
        assert report.classification == PROBE_GROWING

    def test_report_structure(self):
        omega = nu = power_weight(1.0)
        functions = probe_functions(omega, 2**7)
        cfg = OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=2**6)
        report = operator_norm_probe(cfg, omega, nu, functions)
        payload = json.loads(json.dumps(report.to_dict()))
        assert [case["label"] for case in payload["cases"]] == [name for name, _ in functions]
        assert payload["truncation"] == 2**6
