"""Bloch layer: norm estimators against closed forms, divergence flags."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.bloch import (
    METHOD_COEFFICIENT_SUM,
    METHOD_DIRECT,
    METHOD_DYADIC_BLOCK,
    METHOD_MONOTONE,
    bloch_norm,
    coefficient_sum_form,
    growth_envelope_ratio,
    monotone_form,
    norm_coefficient_sum,
    norm_direct,
    norm_dyadic_blocks,
    norm_monotone,
    weight_profile,
)
from hilbloch.catalog import builtin_weights, monotone_family, random_signed_polynomials, series_catalog
from hilbloch.errors import PreconditionError
from hilbloch.series import TaylorSeries
from hilbloch.trend import UNBOUNDED_MIN_SLOPE
from hilbloch.weights import power_weight

# sup over r of (1-r^2) * 2r, attained at r = 1/sqrt(3).
Z2_NORM = 4.0 / (3.0 * math.sqrt(3.0))

NORM_WEIGHTS = ("power_0.5", "power_1", "power_2", "power_log_1_1")


class TestNormDirect:
    def test_constant(self):
        est = norm_direct(TaylorSeries([3.0]), power_weight(1.0))
        assert est.value == pytest.approx(3.0)
        assert not est.divergent

    def test_affine(self):
        est = norm_direct(TaylorSeries([1.0, 1.0]), power_weight(1.0))
        assert est.value == pytest.approx(2.0, rel=1e-10)

    def test_quadratic_closed_form(self):
        est = norm_direct(TaylorSeries([0.0, 0.0, 1.0]), power_weight(1.0))
        assert est.value == pytest.approx(Z2_NORM, rel=1e-9)

    def test_linear_term_under_sqrt_weight(self):
        # sup of sqrt(1-r^2) is at r = 0.
        est = norm_direct(TaylorSeries([0.0, 1.0]), power_weight(0.5))
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_bounded_function_has_no_divergence_flag(self):
        f = series_catalog(2**10)["geometric"]
        est = norm_direct(f, power_weight(1.0))
        assert not est.divergent
        # f = 1/(1-z/2): norm 1 + sup (1-r^2)/2 / (1-r/2)^2 = 1 + 2/3.
        assert est.value == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_divergent_series_is_flagged(self):
        f = series_catalog(2**12)["ones"]
        for name in ("power_0.5", "power_1", "power_log_1_1"):
            est = norm_direct(f, builtin_weights()[name])
            assert est.divergent, name

    def test_signed_coefficients_need_angular_sampling(self):
        # f(z) = 1/(1+z/2): the modulus peaks away from the positive axis.
        coeffs = (-0.5) ** np.arange(0, 64)
        est = norm_direct(TaylorSeries(coeffs), power_weight(1.0))
        plus = norm_direct(TaylorSeries(np.abs(coeffs)), power_weight(1.0))
        assert est.value == pytest.approx(plus.value, rel=1e-8)

    def test_circle_scan_resolves_high_degree(self):
        # nu(r) max|f'| from an FFT with 8 samples per degree on the rungs is
        # a lower bound; a fixed 256-angle scan fell about 23 % below it.
        (_, f), = random_signed_polynomials(1, 2**13, 0)
        w = builtin_weights()["power_0.5"]
        est = norm_direct(f, w)
        a = f.coefficients
        slopes = np.arange(1, len(a)) * a[1:]
        lower = abs(a[1])
        for gap in 2.0 ** -np.arange(1, 13):
            scaled = slopes * np.exp(np.arange(len(slopes)) * math.log1p(-gap))
            peak = np.max(np.abs(np.fft.fft(scaled, 8 * len(slopes))))
            lower = max(lower, w.value_from_gap(gap) * peak)
        assert est.resolution["angles"] == 2**16
        assert est.value - abs(a[0]) >= lower * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "seed, degree, weight, old",
        [
            (3, 31, "power_0.5", 16.286597146731175),
            (3, 31, "power_1", 4.9546380299988835),
            (3, 31, "power_log_1_1", 15.164580401750529),
            (5, 20, "power_1", 4.015344097521288),
        ],
    )
    def test_low_degree_keeps_256_angles(self, seed, degree, weight, old):
        # `old` is the value of the earlier (radii x 256 angles) Horner scan.
        (_, f), = random_signed_polynomials(1, degree, seed)
        est = norm_direct(f, builtin_weights()[weight])
        assert est.resolution["angles"] == 256
        assert est.value == pytest.approx(old, rel=1e-12)

    @pytest.mark.parametrize(
        "degree, seed, depth, weight, old, angles",
        [
            (4096, 7, 14, "power_0.5", 2897.3896330058283, 32768),
            (4096, 7, 14, "power_1", 67.52644442332198, 32768),
            (4096, 7, 14, "power_2", 1.155863051892081, 32768),
            (4096, 7, 14, "power_log_1_1", 556.279723824757, 32768),
            (4096, 7, 15, "power_0.5", 2897.3896330058283, 32768),
            (4096, 7, 15, "power_1", 67.52644442332198, 32768),
            (4096, 7, 15, "power_2", 1.155863051892081, 32768),
            (4096, 7, 15, "power_log_1_1", 556.279723824757, 32768),
            (8192, 0, 14, "power_0.5", 6384.460905372146, 65536),
            (8192, 0, 14, "power_1", 105.16727656267477, 65536),
            (8192, 0, 14, "power_2", 1.405457400618899, 65536),
            (8192, 0, 14, "power_log_1_1", 938.0825289273794, 65536),
            (8192, 0, 15, "power_0.5", 6384.460905372146, 65536),
            (8192, 0, 15, "power_1", 105.16727656267477, 65536),
            (8192, 0, 15, "power_2", 1.405457400618899, 65536),
            (8192, 0, 15, "power_log_1_1", 938.0825289273794, 65536),
        ],
    )
    def test_signed_values_are_pinned(self, degree, seed, depth, weight, old, angles):
        # `old` is the value of the full complex FFT on every rung; real
        # coefficients now take a real-input FFT with the same maximum.
        (_, f), = random_signed_polynomials(1, degree, seed)
        est = norm_direct(f, builtin_weights()[weight], radial_depth=depth)
        assert est.resolution["angles"] == angles
        assert est.value == pytest.approx(old, rel=1e-12)

    @pytest.mark.parametrize(
        "weight, old",
        [
            ("power_0.5", 463.35369793436803),
            ("power_1", 40.24674354721872),
            ("power_2", 3.7681281046707173),
            ("power_log_1_1", 222.431556484216),
        ],
    )
    def test_complex_values_are_pinned(self, weight, old):
        rng = np.random.default_rng(20261019)
        f = TaylorSeries(rng.standard_normal(301) + 1j * rng.standard_normal(301))
        est = norm_direct(f, builtin_weights()[weight])
        assert est.resolution["angles"] == 4096
        assert est.value == pytest.approx(old, rel=1e-12)

    def test_estimate_serializes(self):
        est = norm_direct(TaylorSeries([1.0, 2.0]), power_weight(1.0))
        payload = json.loads(json.dumps(est.to_dict()))
        assert payload["method"] == METHOD_DIRECT
        assert payload["divergent"] is False


class TestCoefficientSum:
    def test_monomial_oracle(self):
        # S picks nu(1-1/n) * n at the monomial degree and beyond.
        est = norm_coefficient_sum(TaylorSeries([0.0, 1.0]), power_weight(1.0))
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.method == METHOD_COEFFICIENT_SUM

    def test_constant_is_head_term(self):
        est = norm_coefficient_sum(TaylorSeries([2.5]), power_weight(1.0))
        assert est.value == pytest.approx(2.5)

    def test_divergent_flag_for_ones(self):
        f = series_catalog(2**12)["ones"]
        est = norm_coefficient_sum(f, power_weight(1.0))
        assert est.divergent

    def test_negative_coefficients_rejected(self):
        with pytest.raises(PreconditionError):
            norm_coefficient_sum(TaylorSeries([1.0, -1.0]), power_weight(1.0))

    def test_comparable_to_direct_norm_on_catalog(self):
        # Two-sided comparability within a universal band.
        for fname, f in series_catalog(2**10).items():
            if not f.has_nonnegative_coefficients:
                continue
            w = builtin_weights()["power_1"]
            lhs = norm_direct(f, w, radial_depth=12)
            rhs = norm_coefficient_sum(f, w)
            if lhs.divergent or rhs.divergent:
                assert lhs.divergent == rhs.divergent, fname
                continue
            ratio = lhs.value / rhs.value
            assert 1.0 / 50.0 <= ratio <= 50.0, fname


class TestMonotone:
    def test_requires_nonincreasing(self):
        with pytest.raises(PreconditionError):
            norm_monotone(TaylorSeries([0.0, 1.0]), power_weight(1.0))

    def test_ones_diverges(self):
        f = series_catalog(2**12)["ones"]
        est = norm_monotone(f, power_weight(1.0))
        assert est.divergent
        assert est.method == METHOD_MONOTONE

    def test_fast_decay_is_finite(self):
        f = monotone_family(2**12)["inverse_square_shift"]
        est = norm_monotone(f, power_weight(1.0))
        assert not est.divergent
        assert est.value > 0.0

    def test_verdicts_match_coefficient_sum(self):
        for wname in ("power_0.5", "power_1", "power_2", "power_log_1_1"):
            w = builtin_weights()[wname]
            for fname, f in monotone_family(2**12).items():
                a = norm_monotone(f, w)
                b = norm_coefficient_sum(f, w)
                assert a.divergent == b.divergent, f"{wname}|{fname}"


class TestWeightProfile:
    @pytest.mark.parametrize("form", [monotone_form, coefficient_sum_form])
    def test_a_profile_of_another_truncation_is_refused(self, form):
        f = monotone_family(2**8)["harmonic_shift"]
        with pytest.raises(PreconditionError, match="truncated at 256"):
            form(f, weight_profile(power_weight(1.0), 2**9))

    def test_one_profile_serves_both_forms_and_every_series(self):
        w = builtin_weights()["power_log_1_1"]
        profile = weight_profile(w, 2**10)
        for f in monotone_family(2**10).values():
            assert monotone_form(f, profile) == norm_monotone(f, w)
            assert coefficient_sum_form(f, profile) == norm_coefficient_sum(f, w)


class TestDyadicBlocks:
    def test_constant(self):
        est = norm_dyadic_blocks(TaylorSeries([2.0]), power_weight(1.0))
        assert est.value == pytest.approx(2.0)
        assert est.method == METHOD_DYADIC_BLOCK

    def test_quadratic_band(self):
        est = norm_dyadic_blocks(TaylorSeries([0.0, 0.0, 1.0]), power_weight(1.0))
        assert Z2_NORM / 8.0 <= est.value <= 8.0 * Z2_NORM

    def test_handles_signed_coefficients(self):
        rng = np.random.default_rng(20260814)
        f = TaylorSeries(rng.standard_normal(257))
        est = norm_dyadic_blocks(f, power_weight(1.0))
        direct = norm_direct(f, power_weight(1.0))
        assert est.value > 0.0
        assert 1.0 / 50.0 <= direct.value / est.value <= 50.0

    def test_divergence_flag_matches_direct(self):
        f = series_catalog(2**12)["ones"]
        est = norm_dyadic_blocks(f, power_weight(1.0))
        assert est.divergent

    @pytest.mark.parametrize(
        "truncation, depth",
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (2**13 - 1, 12), (2**13, 13), (2**13 + 1, 13)],
    )
    def test_resolution_is_the_covering_depth(self, truncation, depth):
        # Blocks 0..depth cover exponents up to 2^(depth+1) - 1, the fewest that reach the truncation.
        est = norm_dyadic_blocks(TaylorSeries(np.ones(truncation + 1)), power_weight(1.0))
        assert est.resolution == {"depth": depth, "blocks": depth + 1}


class TestDivergenceFollowsSlope:
    """Every estimator flags divergence exactly when the fitted log-log slope reaches the unbounded threshold."""

    @pytest.mark.parametrize("weight", NORM_WEIGHTS)
    @pytest.mark.parametrize(
        "estimator, family",
        [
            (norm_direct, series_catalog),
            (norm_coefficient_sum, series_catalog),
            (norm_dyadic_blocks, series_catalog),
            (norm_monotone, monotone_family),
        ],
        ids=["direct", "coefficient_sum", "dyadic_block", "monotone"],
    )
    def test_flag_is_the_trend_verdict(self, estimator, family, weight):
        w = builtin_weights()[weight]
        for fname, f in family(2**10).items():
            est = estimator(f, w)
            assert est.divergent == (est.slope >= UNBOUNDED_MIN_SLOPE), fname

    @pytest.mark.parametrize("weight", NORM_WEIGHTS)
    @pytest.mark.parametrize("estimator", [norm_direct, norm_coefficient_sum, norm_dyadic_blocks])
    def test_single_spike_reads_by_slope(self, estimator, weight):
        # f = z + z^1024: one far coefficient is a late jump, not growth; the
        # coefficient-sum ladders fall at log-log slopes between -10.8 and -2.7.
        coeffs = np.zeros(1025)
        coeffs[[1, 1024]] = 1.0
        est = estimator(TaylorSeries(coeffs), builtin_weights()[weight])
        assert est.divergent == (est.slope >= UNBOUNDED_MIN_SLOPE)


class TestDispatchAndEnvelope:
    def test_bloch_norm_dispatch(self):
        f = TaylorSeries([1.0, 1.0])
        w = power_weight(1.0)
        for method in (METHOD_DIRECT, METHOD_COEFFICIENT_SUM, METHOD_DYADIC_BLOCK):
            est = bloch_norm(f, w, method=method)
            assert est.method == method

    def test_unknown_method_rejected(self):
        with pytest.raises(PreconditionError):
            bloch_norm(TaylorSeries([1.0]), power_weight(1.0), method="psychic")

    def test_growth_envelope_for_constant(self):
        ratio = growth_envelope_ratio(TaylorSeries([1.0]), power_weight(1.0))
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_growth_envelope_is_uniform_over_catalog(self):
        w = power_weight(1.0)
        for fname, f in series_catalog(2**8).items():
            ratio = growth_envelope_ratio(f, w, radial_depth=10)
            assert 0.0 < ratio <= 4.0, fname

    @given(st.floats(min_value=0.1, max_value=5.0))
    def test_norm_is_homogeneous(self, c):
        f = TaylorSeries([0.5, 1.0, 0.25])
        w = power_weight(1.0)
        base = norm_direct(f, w).value
        scaled = norm_direct(TaylorSeries(c * f.coefficients), w).value
        assert scaled == pytest.approx(c * base, rel=1e-9)
