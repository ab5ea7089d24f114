"""Operator layer: kernel coefficients, application modes, boundedness criteria."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaln

from hilbloch import hilbert_op, suites
from hilbloch.catalog import (
    builtin_measures,
    builtin_weights,
    probe_functions,
    random_signed_polynomials,
    resolve_measure,
    resolve_weight,
)
from hilbloch.errors import DomainError, NumericsError, PreconditionError
from hilbloch.hilbert_op import (
    PROBE_GROWING,
    PROBE_STABLE,
    OperatorConfig,
    apply_coefficient,
    apply_quadrature,
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
    gamma_table,
    hankel_apply,
    operator_norm_probe,
    well_defined_check,
)
from hilbloch.measures import RadialMeasure, lebesgue, point_mass, power_log_density
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
    def test_alpha_floor(self):
        with pytest.raises(DomainError):
            OperatorConfig(alpha=-1.0, measure=point_mass(0.5), truncation=8)


class TestWellDefined:
    def test_arcsine_gauge_integral(self):
        assert well_defined_check(lebesgue(), power_weight(0.5)) == pytest.approx(math.pi / 2.0, rel=1e-7)

    def test_atanh_gauge_integral(self):
        assert well_defined_check(lebesgue(), power_weight(1.0)) == pytest.approx(LN2_PLUS_1, rel=1e-8)

    def test_linear_density_against_quartic_weight(self):
        integral = well_defined_check(builtin_measures()["density_1"], power_weight(2.0))
        assert integral == pytest.approx(0.75, rel=1e-8)

    def test_divergent_pairing(self):
        assert well_defined_check(lebesgue(), power_weight(2.0)) == math.inf

    def test_point_mass_reads_the_gauge_at_its_atom(self):
        # gauge(t) = atanh(t) for nu = 1 - t^2, and the unit atom at 1/2 reads it there.
        integral = well_defined_check(point_mass(0.5), power_weight(1.0))
        assert integral == pytest.approx(1.0 + math.atanh(0.5), rel=1e-12)


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


# The (measure, omega, alpha) of every default T4.2 and T4.3 case, each once.
OPERATOR_CASES = list(
    {
        json.dumps([spec["measure"], spec["omega"], spec["alpha"]], sort_keys=True): spec
        for suite in ("T4.2", "T4.3")
        for spec in suites._REGISTRY[suite].defaults["cases"]
    }.values()
)


def case_id(spec) -> str:
    name = lambda x: x if isinstance(x, str) else x.get("label") or json.dumps(x, sort_keys=True)  # noqa: E731
    return f"{name(spec['measure'])}|{name(spec['omega'])}|alpha={spec['alpha']:g}"


def quadrature_image(f, mu, alpha, n):
    """The image c_k * integral of t^k f dmu, k <= n, from the f-weighted moment study, index by index."""
    return gamma_table(n, alpha) * mu.moments_at(range(n + 1), phi=lambda t, omt: np.asarray(f(t), dtype=float))


def log_density_moment(n):
    """mu_n of (1-t) / log(e/(1-t)) dt, in u = -log(1-t), where the integrand peaks near u = log n."""
    f = lambda u: mpmath.exp(n * mpmath.log1p(-mpmath.exp(-u)) - 2 * u) / (1 + u) if u > 0 else mpmath.mpf(n == 0)  # noqa: E731
    peak = mpmath.log(n + 1)
    cuts = sorted({mpmath.mpf(0), *(max(mpmath.mpf(0), peak + d) for d in (-2, 2, 20))})
    return mpmath.quad(f, [*cuts, mpmath.inf])


class TestPlainNodeImage:
    """Images read off the measure's plain node set against the f-weighted moment study and mpmath."""

    @pytest.mark.parametrize("n", [2**8, 2**9])
    @pytest.mark.parametrize("spec", OPERATOR_CASES, ids=case_id)
    def test_apply_coefficient_matches_the_weighted_study(self, spec, n):
        mu, omega, alpha = resolve_measure(spec["measure"]), resolve_weight(spec["omega"]), spec["alpha"]
        for label, f in probe_functions(omega, 2 * n):
            image = apply_coefficient(f, OperatorConfig(alpha, mu, n)).coefficients
            assert image == pytest.approx(quadrature_image(f, mu, alpha, n), rel=1e-10, abs=0.0), label

    @pytest.mark.parametrize("n", [2**8, 2**9])
    @pytest.mark.parametrize("spec", OPERATOR_CASES, ids=case_id)
    def test_probe_images_match_the_weighted_study(self, monkeypatch, spec, n):
        mu, omega, alpha = resolve_measure(spec["measure"]), resolve_weight(spec["omega"]), spec["alpha"]
        images = []
        image_of = hilbert_op._coefficient_image

        def recording(f, nodes, gammas):
            images.append((f, image_of(f, nodes, gammas)))
            return images[-1][1]

        monkeypatch.setattr(hilbert_op, "_coefficient_image", recording)
        operator_norm_probe(OperatorConfig(alpha, mu, n), omega, omega)
        assert [f.truncation for f, _ in images] == [n, 2 * n] * len(probe_functions(omega, 2 * n))
        for f, image in images:
            want = quadrature_image(f, mu, alpha, f.truncation)
            assert image.coefficients == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("measure", ["lebesgue", "density_1_log-1"])
    def test_signed_polynomial_matches_an_mpmath_hankel_sum(self, measure):
        [(_, f)], n_out = random_signed_polynomials(1, 64, 20250), 16
        a = [mpmath.mpf(float(x)) for x in f.coefficients]
        with mpmath.workdps(20):
            if measure == "lebesgue":
                moments = [mpmath.mpf(1) / (k + 1) for k in range(n_out + 65)]
            else:
                moments = [log_density_moment(k) for k in range(n_out + 65)]
            want = [float(mpmath.fsum(a[k] * moments[n + k] for k in range(65))) for n in range(n_out + 1)]
            scale = [float(mpmath.fsum(abs(a[k]) * moments[n + k] for k in range(65))) for n in range(n_out + 1)]
        image = apply_coefficient(f, OperatorConfig(0.0, builtin_measures()[measure], n_out)).coefficients
        assert np.all(np.abs(image - want) <= 1e-10 * np.array(scale))


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

    def test_bloch_to_gamma_forms_share_verdict(self):
        mu = builtin_measures()["density_2"]
        result = criterion_bloch_to_gamma(mu, alpha=1.0, gamma=1.0, n_max=2**16, depth=20)
        assert result.verdict == result.details["moment_form"]["verdict"] == VERDICT_BOUNDED
        assert result.details["forms_agree"]

    def test_beta_spaces_rejects_unit_beta(self):
        with pytest.raises(DomainError):
            criterion_beta_spaces(lebesgue(), alpha=0.5, beta=1.0, gamma=1.0)

    def test_beta_spaces_large_beta_threshold(self):
        # Threshold sigma = alpha + beta - gamma = 1.5 for these parameters.
        bounded = RadialMeasure(density=power_log_density(2.25))
        result = criterion_beta_spaces(bounded, alpha=0.5, beta=2.0, gamma=1.0, depth=20)
        assert result.verdict == VERDICT_BOUNDED
        assert "reweighted_form" in result.details

        unbounded = RadialMeasure(density=power_log_density(0.75))
        result = criterion_beta_spaces(unbounded, alpha=0.5, beta=2.0, gamma=1.0, depth=20)
        assert result.verdict == VERDICT_UNBOUNDED

    def test_beta_spaces_gate_passes_a_heavy_finite_reweighting(self):
        # dmu/(1-t)^(beta-1) = (1-t)^-0.99 dt has mass 100; sigma = 0.01 lies below the threshold 1.5.
        mu = RadialMeasure(density=power_log_density(0.01))
        result = criterion_beta_spaces(mu, alpha=0.5, beta=2.0, gamma=1.0)
        assert result.verdict == VERDICT_UNBOUNDED
        assert result.details["forms_agree"]

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
        report = operator_norm_probe(cfg, omega, nu)
        assert report.classification == PROBE_STABLE
        assert report.growth <= 1.1

    def test_growing_on_critical_lebesgue(self):
        omega = nu = builtin_weights()["power_0.5"]
        cfg = OperatorConfig(alpha=0.0, measure=lebesgue(), truncation=2**9)
        report = operator_norm_probe(cfg, omega, nu)
        assert report.classification == PROBE_GROWING

    # One plain node set per probe call, and each padded function evaluated once on it,
    # however many test functions there are: no grid study per image.
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_one_node_set_per_call(self, monkeypatch, count):
        omega = nu = builtin_weights()["power_0.5"]
        mu = builtin_measures()["density_-0.5"]
        studies, node_sets, evaluated = [], [], []
        moment_nodes, call = RadialMeasure._moment_nodes, TaylorSeries.__call__

        def counting_nodes(self, n_max, phi, rel_tol):
            studies.append((n_max, phi))
            node_sets.append(moment_nodes(self, n_max, phi, rel_tol))
            return node_sets[-1]

        def counting_call(self, z):
            if any(z is t for t, _, _ in node_sets):
                evaluated.append(self)
            return call(self, z)

        monkeypatch.setattr(RadialMeasure, "_moment_nodes", counting_nodes)
        monkeypatch.setattr(TaylorSeries, "__call__", counting_call)
        monkeypatch.setattr(hilbert_op, "probe_functions", lambda w, n: probe_functions(w, n)[:count])
        operator_norm_probe(OperatorConfig(0.0, mu, 2**8), omega, nu)
        assert studies == [(2**10, None)]
        assert len(evaluated) == 2 * count
        assert len({id(f) for f in evaluated}) == 2 * count
        assert sorted(f.truncation for f in evaluated) == sorted([2**8, 2**9] * count)

    def test_report_structure(self):
        omega = nu = power_weight(1.0)
        cfg = OperatorConfig(alpha=0.0, measure=point_mass(0.5), truncation=2**6)
        report = operator_norm_probe(cfg, omega, nu)
        payload = json.loads(json.dumps(report.to_dict()))
        assert [case["label"] for case in payload["cases"]] == [name for name, _ in probe_functions(omega, 2**7)]
        assert payload["truncation"] == 2**6
