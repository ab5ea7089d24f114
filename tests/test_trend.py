"""Trend layer: ladders, slope fits, verdict thresholds, result container."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hilbloch.catalog import monotone_family
from hilbloch.errors import NumericsError
from hilbloch import trend
from hilbloch.bloch import weight_profile
from hilbloch.catalog import resolve_weight
from hilbloch.trend import (
    BOUNDED_MAX_SLOPE,
    UNBOUNDED_MIN_SLOPE,
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNBOUNDED,
    CriterionResult,
    PreparedLadder,
    TrendSummary,
    index_ladder,
    radius_ladder,
    summarize_ladder,
    trend_slopes,
    verdict_from_trend,
)
from hilbloch.weights import power_weight


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


def gathered_trend_slopes(xs, qs) -> TrendSummary:
    """The window cut by integer gathers, as trend_slopes did before it cut by mask: the bitwise reference."""
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if np.any(np.isinf(qs) & (qs > 0)):
        return TrendSummary(np.inf, np.inf, 0)
    mask = np.isfinite(qs) & (qs > 0) & (xs > 1.0)
    idx = np.nonzero(mask)[0]
    if len(idx) < 2:
        return TrendSummary(0.0, 0.0, len(idx))
    deep = idx[xs[idx] >= np.sqrt(np.max(xs[idx]))]
    window = deep if len(deep) >= 2 else idx[-2:]
    lx = np.log(xs[window])
    lq = np.log(qs[window])
    lq_centred = lq - lq.mean()
    return TrendSummary(_gathered_slope(lx, lq_centred), _gathered_slope(np.log(lx), lq_centred), len(window))


def _gathered_slope(x: np.ndarray, y_centred: np.ndarray) -> float:
    if np.ptp(x) == 0.0 or np.ptp(y_centred) == 0.0:
        return 0.0
    x_centred = x - x.mean()
    return float(np.sum(x_centred * y_centred) / np.sum(x_centred * x_centred))


# Rungs below, at and above x = 1, with samples that the window must drop.
_RUNG_X = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e12),
    st.sampled_from([1.0, 2.0, 4.0, 1024.0]),
)
_RUNG_Q = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.5, max_value=2.0),
    st.sampled_from([0.0, -0.0, -1.0, 7.3, math.inf, -math.inf, math.nan]),
)


class TestMaskedWindow:
    @settings(max_examples=400)
    @given(
        rungs=st.lists(st.tuples(_RUNG_X, _RUNG_Q), max_size=200),
        order=st.sampled_from(["drawn", "sorted", "reversed"]),
        flat=st.sampled_from([None, 7.3, 0.1]),
        finite=st.booleans(),
    )
    def test_matches_the_gathered_window_bitwise(self, rungs, order, flat, finite):
        xs = np.array([x for x, _ in rungs], dtype=float)
        qs = np.array([q for _, q in rungs], dtype=float)
        if finite:
            qs[np.isinf(qs) & (qs > 0)] = 3.0
        if flat is not None:
            qs[np.isfinite(qs) & (qs > 0)] = flat
        if order != "drawn":
            keep = np.argsort(xs, kind="stable")
            xs, qs = xs[keep], qs[keep]
            if order == "reversed":
                xs, qs = xs[::-1], qs[::-1]
        assert trend_slopes(xs, qs) == gathered_trend_slopes(xs, qs)

    @given(
        rungs=st.integers(min_value=2, max_value=3000),
        span=st.floats(min_value=0.5, max_value=30.0),
        p=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
        bad=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0), _RUNG_X, _RUNG_Q), max_size=20),
        shuffle=st.booleans(),
    )
    def test_noisy_ladders_with_dropped_rungs_match_bitwise(self, rungs, span, p, seed, bad, shuffle):
        rng = np.random.default_rng(seed)
        xs = 0.5 * np.exp(np.linspace(0.0, span, rungs))
        qs = xs**p * np.exp(rng.normal(0.0, 0.3, rungs))
        for where, x, q in bad:
            i = min(int(where * rungs), rungs - 1)
            xs[i], qs[i] = x, q
        if shuffle:
            keep = rng.permutation(rungs)
            xs, qs = xs[keep], qs[keep]
        assert trend_slopes(xs, qs) == gathered_trend_slopes(xs, qs)

    @pytest.mark.parametrize(
        "xs, qs",
        [
            ([2.0, 1e6], [1.0, 5.0]),  # only the deepest rung reaches sqrt(x_max): two-point fallback
            ([3.0, 0.5, 1e6, 2.0], [1.0, 9.0, 5.0, -1.0]),  # unsorted, the fallback past a dropped rung
            ([2.0, 4.0, 8.0, 16.0], [7.3, 7.3, 7.3, 7.3]),  # flat q
            ([16.0, 16.0, 16.0], [1.0, 2.0, 3.0]),  # flat x
            ([2.0, 4.0], [0.0, 1.0]),  # one usable rung
            ([], []),
        ],
    )
    def test_edge_ladders_match_bitwise(self, xs, qs):
        assert trend_slopes(xs, qs) == gathered_trend_slopes(xs, qs)

    @pytest.mark.parametrize("name", sorted(monotone_family(4)))
    def test_monotone_index_ladders_match_bitwise(self, name):
        # T3.3 at resolution scale 2: q_n over n = 1..2^16 for both of its forms.
        a = monotone_family(2**16)[name].coefficients[1:]
        ns = np.arange(1, 2**16 + 1, dtype=float)
        nu = power_weight(1.0).value_from_gap(1.0 / ns)
        for qs in (ns**2 * nu * a, nu * np.cumsum(a * ns)):
            assert trend_slopes(ns, qs) == gathered_trend_slopes(ns, qs)


def _summary(xs, qs):
    """summarize_ladder's result, or the type and message of what it raises (NaN samples, empty ladders)."""
    try:
        return summarize_ladder(xs, qs, quantity="q")
    except Exception as exc:
        return type(exc), str(exc)


def assert_prepared_matches(xs, qs):
    """A prepared ladder gives == slopes, sup, attained rung and verdict to the plain array."""
    prepared = PreparedLadder(xs)
    assert trend_slopes(prepared, qs) == trend_slopes(xs, qs)
    assert _summary(prepared, qs) == _summary(xs, qs)


class TestPreparedLadder:
    @settings(max_examples=400)
    @given(
        rungs=st.lists(st.tuples(_RUNG_X, _RUNG_Q), max_size=200),
        order=st.sampled_from(["drawn", "sorted", "reversed"]),
        flat=st.sampled_from([None, 7.3, 0.1]),
        usable=st.sampled_from(["drawn", "finite", "everywhere"]),
    )
    def test_drawn_ladders_match_the_plain_path(self, rungs, order, flat, usable):
        xs = np.array([x for x, _ in rungs], dtype=float)
        qs = np.array([q for _, q in rungs], dtype=float)
        if usable != "drawn":
            qs[np.isinf(qs) & (qs > 0)] = 3.0
        if usable == "everywhere":
            # Usable on every rung x > 1, so the prepared window applies.
            qs[(xs > 1.0) & ~(np.isfinite(qs) & (qs > 0))] = 0.5
        if flat is not None:
            qs[np.isfinite(qs) & (qs > 0)] = flat
        if order != "drawn":
            keep = np.argsort(xs, kind="stable")
            xs, qs = xs[keep], qs[keep]
            if order == "reversed":
                xs, qs = xs[::-1], qs[::-1]
        assert_prepared_matches(xs, qs)

    @given(
        rungs=st.integers(min_value=2, max_value=3000),
        span=st.floats(min_value=0.5, max_value=30.0),
        p=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
        bad=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0), _RUNG_X, _RUNG_Q), max_size=20),
        shuffle=st.booleans(),
    )
    def test_noisy_ladders_match_the_plain_path(self, rungs, span, p, seed, bad, shuffle):
        rng = np.random.default_rng(seed)
        xs = 0.5 * np.exp(np.linspace(0.0, span, rungs))
        qs = xs**p * np.exp(rng.normal(0.0, 0.3, rungs))
        assert_prepared_matches(xs, qs)
        for where, x, q in bad:
            i = min(int(where * rungs), rungs - 1)
            xs[i], qs[i] = x, q
        if shuffle:
            keep = rng.permutation(rungs)
            xs, qs = xs[keep], qs[keep]
        assert_prepared_matches(xs, qs)

    @pytest.mark.parametrize(
        "xs, qs",
        [
            ([2.0, 1e6], [1.0, 5.0]),  # two-point fallback in the prepared window
            ([3.0, 0.5, 1e6, 2.0], [1.0, 9.0, 5.0, 4.0]),  # unsorted, a rung x <= 1 outside the window
            ([2.0, 4.0, 8.0, 16.0], [7.3, 7.3, 7.3, 7.3]),  # flat q
            ([16.0, 16.0, 16.0], [1.0, 2.0, 3.0]),  # flat x
            ([0.5, 1.0, 4.0], [1.0, 2.0, 3.0]),  # one rung x > 1: nothing to prepare
            ([0.5, 2.0, 4.0], [math.inf, 2.0, 3.0]),  # +inf on a rung x <= 1
            ([0.5, 2.0, 4.0], [-math.inf, 2.0, 3.0]),  # -inf on a rung x <= 1
            ([], []),
        ],
    )
    def test_edge_ladders_match_the_plain_path(self, xs, qs):
        assert_prepared_matches(xs, qs)

    @pytest.mark.parametrize("weight", ["power_0.5", "power_1", "power_2", "power_log_1_1"])
    def test_monotone_index_ladders_match_the_plain_path(self, weight, monkeypatch):
        # T3.3 at resolution scale 2: both coefficient forms of the 6 monotone
        # functions over n = 1..2^16.  Only geometric's monotone form, whose
        # a_n underflow to zero past n = 1074, refits its x side.
        profile = weight_profile(resolve_weight(weight), 2**16)
        calls = []
        x_side = trend._x_side
        monkeypatch.setattr(trend, "_x_side", lambda *args: calls.append(1) or x_side(*args))
        refitted = set()
        for name, f in monotone_family(2**16).items():
            a = f.coefficients[1:]
            for form, qs in (("monotone", profile.ns**2 * profile.nu * a), ("sum", profile.nu * np.cumsum(a * profile.ns))):
                before = len(calls)
                assert trend_slopes(profile.ladder, qs) == trend_slopes(profile.ns, qs)
                assert summarize_ladder(profile.ladder, qs, "q") == summarize_ladder(profile.ns, qs, "q")
                if len(calls) > before + 2:
                    refitted.add((name, form))
        assert refitted == {("geometric", "monotone")}


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
