"""Trend layer: ladders, slope fits, verdict thresholds, result container."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.errors import NumericsError
from hilbloch.trend import (
    BOUNDED_MAX_SLOPE,
    UNBOUNDED_MIN_SLOPE,
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNBOUNDED,
    CriterionResult,
    TrendSummary,
    index_ladder,
    radius_ladder,
    summarize_ladder,
    trend_slopes,
    verdict_from_trend,
)


class TestLadders:
    def test_radius_ladder_shape(self):
        ladder = radius_ladder(10)
        assert len(ladder) == 10
        assert np.all(np.diff(ladder) > 0)
        assert ladder[0] == 0.5 and ladder[-1] == 1.0 - 2.0**-10

    def test_index_ladder_structure(self):
        ladder = index_ladder(2**8)
        assert list(ladder[:16]) == list(range(1, 17))
        assert ladder[-1] == 2**8
        assert np.all(np.diff(ladder) > 0)

    def test_index_ladder_small_cap(self):
        assert index_ladder(8)[-1] <= 8


class TestTrendSlopes:
    def test_power_law_slope_recovered(self):
        xs = 2.0 ** np.arange(1, 21)
        for p in (-0.5, 0.0, 0.7, 2.0):
            summary = trend_slopes(xs, xs**p)
            assert summary.slope == pytest.approx(p, abs=0.01)

    def test_logarithmic_growth_detected(self):
        # q = log x has doubling slope ~ 1 in log-log-log coordinates,
        # well above the unbounded threshold.
        xs = 2.0 ** np.arange(2, 40)
        summary = trend_slopes(xs, np.log(xs))
        assert summary.log_slope > UNBOUNDED_MIN_SLOPE

    def test_plateau_with_transient_is_flat(self):
        # A 1/sqrt(x) transient must not leak into the fitted window.
        xs = 2.0 ** np.arange(0, 24)
        qs = 5.0 * (1.0 - 1.0 / np.sqrt(xs))
        summary = trend_slopes(xs, qs)
        assert abs(summary.log_slope) < BOUNDED_MAX_SLOPE

    def test_window_is_deep_half_in_log_scale(self):
        # x = 2^0..2^20: only rungs with x >= sqrt(2^20) = 2^10 are fitted.
        xs = 2.0 ** np.arange(0, 21)
        summary = trend_slopes(xs, xs)
        assert summary.window == 11

    def test_two_points_suffice(self):
        summary = trend_slopes([10.0, 100.0], [1.0, 10.0])
        assert summary.slope == pytest.approx(1.0)

    def test_window_without_spread_reads_no_trend(self):
        # Two rungs at the same x carry no slope: the same reading as one rung.
        assert trend_slopes([2.0, 2.0], [1.0, 3.0]) == TrendSummary(0.0, 0.0, 2)

    @pytest.mark.parametrize("rungs", [2, 3, 5, 24, 1001])
    def test_constant_ladder_has_exactly_zero_slope(self, rungs):
        # 7.3 over 24 rungs has a log whose mean is off by an ulp.
        summary = trend_slopes(2.0 ** np.arange(1, rungs + 1), np.full(rungs, 7.3))
        assert (summary.slope, summary.log_slope) == (0.0, 0.0)

    @given(
        rungs=st.integers(min_value=2, max_value=4096),
        start=st.floats(min_value=1.01, max_value=100.0),
        span=st.floats(min_value=1.0, max_value=40.0),
        profile=st.sampled_from(["power", "log", "noisy"]),
        p=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_slopes_match_polyfit_on_the_window(self, rungs, start, span, profile, p, seed):
        # np.polyfit is the reference only: the package fits in closed form.
        xs = start * np.exp(np.linspace(0.0, span, rungs))
        if profile == "power":
            qs = xs**p
        elif profile == "log":
            qs = np.log(xs) ** p
        else:
            qs = xs**p * np.exp(np.random.default_rng(seed).normal(0.0, 0.5, rungs))
        summary = trend_slopes(xs, qs)
        window = xs >= np.sqrt(xs[-1])
        if np.count_nonzero(window) < 2:
            window[-2:] = True
        lx, lq = np.log(xs[window]), np.log(qs[window])
        assert summary.window == np.count_nonzero(window)
        for got, regressor in ((summary.slope, lx), (summary.log_slope, np.log(lx))):
            expected = np.polyfit(regressor, lq, 1)[0]
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


class TestVerdicts:
    def test_threshold_bands(self):
        mk = lambda s: TrendSummary(slope=s, log_slope=s, window=(0, 1))
        assert verdict_from_trend(mk(0.0)) == VERDICT_BOUNDED
        assert verdict_from_trend(mk(BOUNDED_MAX_SLOPE - 1e-6)) == VERDICT_BOUNDED
        assert verdict_from_trend(mk(0.10)) == VERDICT_INCONCLUSIVE
        assert verdict_from_trend(mk(UNBOUNDED_MIN_SLOPE + 1e-6)) == VERDICT_UNBOUNDED
        assert verdict_from_trend(mk(-2.0)) == VERDICT_BOUNDED

    @given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.05, max_value=20.0))
    def test_decaying_ladders_are_bounded(self, p, c):
        xs = 2.0 ** np.arange(0, 22)
        result = summarize_ladder(xs, c / (1.0 + xs) ** p, quantity="q")
        assert result.verdict == VERDICT_BOUNDED

    @given(st.floats(min_value=0.3, max_value=2.0))
    def test_growing_ladders_are_unbounded(self, p):
        xs = 2.0 ** np.arange(0, 22)
        result = summarize_ladder(xs, xs**p, quantity="q")
        assert result.verdict == VERDICT_UNBOUNDED


class TestSummarizeLadder:
    def test_sup_and_argmax(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        qs = np.array([1.0, 7.0, 3.0, 2.0])
        result = summarize_ladder(xs, qs, quantity="peak")
        assert result.sup_value == 7.0
        assert result.attained_at == 2.0
        assert result.quantity == "peak"

    def test_infinite_entry_forces_unbounded(self):
        xs = np.array([1.0, 2.0, 4.0])
        qs = np.array([1.0, math.inf, 0.5])
        result = summarize_ladder(xs, qs, quantity="q")
        assert result.verdict == VERDICT_UNBOUNDED
        assert math.isinf(result.sup_value)

    def test_negative_infinite_entry_forces_unbounded(self):
        result = summarize_ladder(np.array([1.0, 2.0, 4.0]), np.array([1.0, -math.inf, 0.5]), quantity="q")
        assert result.verdict == VERDICT_UNBOUNDED

    def test_nan_entry_is_no_verdict(self):
        with pytest.raises(NumericsError, match="NaN"):
            summarize_ladder(np.array([1.0, 2.0, 4.0]), np.array([1.0, math.nan, 0.5]), quantity="q")

    def test_details_round_trip_json(self):
        xs = 2.0 ** np.arange(0, 8)
        result = summarize_ladder(xs, 1.0 / xs, quantity="q", details={"note": "x"})
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["quantity"] == "q"
        assert payload["details"]["note"] == "x"
        assert payload["verdict"] == VERDICT_BOUNDED

    def test_result_fields_are_floats(self):
        xs = 2.0 ** np.arange(0, 8)
        result = summarize_ladder(xs, np.sqrt(xs), quantity="q")
        assert isinstance(result, CriterionResult)
        assert isinstance(result.sup_value, float)
        assert isinstance(result.slope, float)
