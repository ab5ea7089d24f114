"""Weight layer: constructors, gauge integrals, extremal series, tail ratios."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch import weights
from hilbloch.catalog import builtin_weights
from hilbloch.errors import ConstructionError, DomainError, NumericsError
from hilbloch.trend import radius_ladder
from hilbloch.weights import (
    NORMALITY_CEILING,
    build_extremal,
    dyadic_sum_ratio,
    growth_gauge,
    growth_gauge_from_gaps,
    laplace_tail_ratio,
    laplace_tail_sweep,
    log_power_weight,
    normality_check,
    power_log_weight,
    power_weight,
    table_weight,
    weight_from_json,
    weight_ratio_bound,
    weight_to_json,
)

ATANH_HALF = 0.5493061443340548

# Gauge integral of 1/(1-s^2)^gamma over [0, t] in closed form.
POWER_GAUGES = {
    0.5: mpmath.asin,
    1.0: mpmath.atanh,
    2.0: lambda t: t / (2 * (1 - t**2)) + mpmath.atanh(t) / 2,
}
ORACLE_DEPTHS = [1, 4, 10, 20, 30, 40]
# Builtin weights nu as functions of x = 1 - r^2.
LAPLACE_WEIGHTS = {
    "power_0.5": mpmath.sqrt,
    "power_1": lambda x: x,
    "power_log_1_1": lambda x: x * (1 - mpmath.log(x)),
}


def power_gauge_oracle(gamma: float, depth: int) -> float:
    """The power-weight gauge at t = 1 - 2^-depth, to 30 digits."""
    with mpmath.workdps(30):
        return float(POWER_GAUGES[gamma](1 - mpmath.mpf(2) ** -depth))


def laplace_oracle(name: str, delta: float) -> float:
    """nu(1-delta) * integral over [e, inf) of e^{-delta t}/(t nu(1-1/t)) dt, to 30 digits."""

    def nu(gap):
        return LAPLACE_WEIGHTS[name](gap * (2 - gap))

    with mpmath.workdps(30):
        d = mpmath.mpf(delta)
        integral = mpmath.quad(lambda t: mpmath.exp(-d * t) / (t * nu(1 / t)), [mpmath.e, 1 / d, 8 / d, mpmath.inf])
        return float(nu(d) * integral)


class TestConstructors:
    def test_power_weight_values(self):
        w = power_weight(1.0)
        r = np.array([0.0, 0.5, 0.9])
        assert np.allclose(w.value(r), 1.0 - r**2)

    def test_all_weights_are_normalized_at_origin(self):
        for name, w in builtin_weights().items():
            assert w.value(0.0) == pytest.approx(1.0), name

    def test_value_from_gap_matches_value(self):
        for w in builtin_weights().values():
            r = np.linspace(0.0, 0.96875, 9)
            assert np.allclose(w.value_from_gap(1.0 - r), w.value(r), rtol=1e-12)

    def test_power_exponent_defaults(self):
        assert power_weight(2.0).a == 2.0
        assert power_weight(2.0).b == 2.0

    def test_power_log_exponent_defaults(self):
        w = power_log_weight(1.0, 1.0)
        assert (w.a, w.b) == (0.5, 1.0)
        steep = power_log_weight(2.0, -1.0)
        assert (steep.a, steep.b) == (1.5, 2.5)

    def test_log_power_exponent_defaults(self):
        assert (log_power_weight(1.0).a, log_power_weight(1.0).b) == (1.0, 1.5)
        assert (log_power_weight(-2.0).a, log_power_weight(-2.0).b) == (0.5, 1.0)

    def test_table_weight_interpolates(self):
        w = table_weight([[0.0, 1.0], [0.5, 0.5], [0.9, 0.1]], a=0.5, b=2.0)
        assert w.value(0.25) == pytest.approx(0.75)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConstructionError):
            table_weight([[0.0, 1.0], [0.5, 0.0]], a=1.0, b=1.0)

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf])
    def test_non_finite_table_sample_rejected(self, bad):
        with pytest.raises(ConstructionError, match="finite"):
            table_weight([[0.0, 1.0], [0.5, bad]], a=1.0, b=1.0)
        with pytest.raises(ConstructionError, match="finite"):
            weight_from_json({"kind": "table", "samples": [[0.0, 1.0], [bad, 0.5]], "a": 1.0, "b": 1.0})

    def test_exponent_order_enforced(self):
        with pytest.raises(ConstructionError):
            power_weight(1.0, a=2.0, b=1.0)

    @pytest.mark.parametrize(
        "w, label, descriptor",
        [
            (power_weight(0.5), "power(0.5)", [("kind", "power"), ("a", 0.5), ("b", 0.5), ("gamma", 0.5)]),
            (
                power_log_weight(1.0, 1.0),
                "power_log(t=1,delta=1)",
                [("kind", "power_log"), ("a", 0.5), ("b", 1.0), ("t", 1.0), ("delta", 1.0)],
            ),
            (log_power_weight(-2), "log_power(-2)", [("kind", "log_power"), ("a", 0.5), ("b", 1.0), ("beta", -2.0)]),
            (
                table_weight([[0, 2], [0.5, 1], [0.9, 0.2]], a=0.5, b=2),
                "table[3]",
                [("kind", "table"), ("a", 0.5), ("b", 2.0), ("samples", [[0.0, 1.0], [0.5, 0.5], [0.9, 0.1]])],
            ),
        ],
    )
    def test_label_repr_and_descriptor(self, w, label, descriptor):
        assert w.label == label
        assert repr(w) == f"NormalWeight<{label}, a={w.a:g}, b={w.b:g}>"
        assert list(weight_to_json(w).items()) == descriptor

    def test_descriptor_is_a_copy(self):
        w = table_weight([[0.0, 1.0], [0.5, 0.5]], a=1.0, b=1.0)
        doc = weight_to_json(w)
        doc["samples"][1][1] = 9.0
        doc["a"] = 7.0
        assert weight_to_json(w) == {"kind": "table", "a": 1.0, "b": 1.0, "samples": [[0.0, 1.0], [0.5, 0.5]]}

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([["x", 1.0], [0.5, 0.5]], "samples must be numeric (r, nu) pairs: could not convert string to float: 'x'"),
            ([0.0, 0.5, 0.9], "samples must be a sequence of (r, nu) pairs"),
            ([[0.0, 1.0]], "table weight needs at least two (r, nu) samples"),
            ([[0.0, 1.0], [0.5, math.inf]], "table samples must be finite"),
            ([[0.1, 1.0], [0.5, 0.5]], "table samples must start at r = 0"),
            ([[0.0, 1.0], [0.5, 0.5], [0.5, 0.25]], "table radii must increase strictly within [0, 1)"),
            ([[0.0, 1.0], [1.0, 0.5]], "table radii must increase strictly within [0, 1)"),
            ([[0.0, 1.0], [0.5, -0.5]], "table weight values must be positive"),
        ],
    )
    def test_table_validation_messages(self, samples, message):
        with pytest.raises(ConstructionError) as info:
            table_weight(samples, a=1.0, b=1.0)
        assert str(info.value) == message

    def test_table_evaluation_stays_within_samples(self):
        w = table_weight([[0.0, 1.0], [0.5, 0.5]], a=1.0, b=1.0)
        with pytest.raises(DomainError) as info:
            w.value(0.75)
        assert str(info.value) == "table weight sampled only up to r = 0.5"


class TestJson:
    def test_round_trip_all_builtins(self):
        for w in builtin_weights().values():
            again = weight_from_json(weight_to_json(w))
            r = np.linspace(0.0, 0.99, 12)
            assert np.allclose(again.value(r), w.value(r), rtol=1e-12)
            assert (again.a, again.b) == (w.a, w.b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstructionError):
            weight_from_json({"kind": "exotic"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConstructionError):
            weight_from_json({"kind": "power", "gamma": 1.0, "spurious": 2})

    def test_explicit_exponents_survive(self):
        w = weight_from_json({"kind": "power", "gamma": 1.0, "a": 0.75, "b": 1.5})
        assert (w.a, w.b) == (0.75, 1.5)


class TestNormality:
    def test_builtin_weights_pass(self):
        for name, w in builtin_weights().items():
            report = normality_check(w)
            assert report.passed, name
            assert report.c_decreasing >= 1.0 and report.c_increasing >= 1.0

    def test_wrong_exponents_fail(self):
        # With b = 0.1 the ratio nu/(1-r^2)^b would have to be almost
        # increasing, but it still decays to zero: the constant explodes.
        report = normality_check(power_weight(1.0, a=0.1, b=0.1))
        assert not report.passed
        assert report.c_increasing > NORMALITY_CEILING


class TestGrowthGauge:
    def test_power_one_is_atanh(self):
        assert growth_gauge(power_weight(1.0), 0.5) == pytest.approx(ATANH_HALF, rel=1e-10)

    def test_power_half_is_arcsine(self):
        w = power_weight(0.5)
        assert growth_gauge(w, 0.5) == pytest.approx(math.asin(0.5), rel=1e-9)
        assert growth_gauge(w, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-6)

    def test_power_two_closed_form(self):
        # d/dt [t/(2(1-t^2)) + ln((1+t)/(1-t))/4] = 1/(1-t^2)^2.
        t = 0.5
        oracle = t / (2.0 * (1.0 - t * t)) + 0.25 * math.log((1.0 + t) / (1.0 - t))
        assert growth_gauge(power_weight(2.0), t) == pytest.approx(oracle, rel=1e-10)

    def test_divergent_gauge_is_infinite(self):
        assert math.isinf(growth_gauge(power_weight(1.0), 1.0))
        assert math.isinf(growth_gauge(power_weight(2.0), 1.0))
        assert math.isinf(growth_gauge(log_power_weight(-1.0), 1.0))
        assert math.isinf(growth_gauge(power_log_weight(1.0, 1.0), 1.0))

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95])
    def test_power_gauge_to_one_matches_beta_function(self, beta):
        # Integral of (1-t^2)^-beta over [0, 1) is B(1/2, 1-beta)/2 (substitute u = t^2).
        with mpmath.workdps(30):
            oracle = float(mpmath.beta(mpmath.mpf(1) / 2, 1 - mpmath.mpf(beta)) / 2)
        assert growth_gauge(power_weight(beta), 1.0) == pytest.approx(oracle, rel=1e-9)

    # 1/nu = 1 / ((1-t^2) log^p(e/(1-t^2))) converges with a (u + c)^-p tail in
    # u = -log(1-t), whose block ratios drift by O(1/u); the geometric remainder at
    # their extrapolated limit sums it to 2.4e-4 relative for p = 1.5, 8.4e-4 for p = 1.25.
    @pytest.mark.parametrize("p, value, rel", [(1.5, 1.4834396, 3e-4), (1.25, 2.5067734, 1e-3)])
    def test_slow_log_gauge_is_finite(self, p, value, rel):
        def integrand(u):
            x = mpmath.exp(-u) * (2 - mpmath.exp(-u))  # 1 - t^2
            return mpmath.exp(-u) / (x * (1 - mpmath.log(x)) ** p)

        with mpmath.workdps(30):
            oracle = float(mpmath.quad(integrand, [0, 1, 10, 100, 1000, mpmath.inf]))
        assert oracle == pytest.approx(value, rel=1e-7)
        got = growth_gauge(log_power_weight(-p), 1.0)
        assert math.isfinite(got)
        assert got == pytest.approx(oracle, rel=rel)

    def test_batch_matches_scalar(self):
        w = power_log_weight(1.0, 1.0)
        ts = np.array([0.1, 0.5, 0.875, 0.984375])
        batch = growth_gauge_from_gaps(w, 1.0 - ts)
        singles = [growth_gauge(w, float(t)) for t in ts]
        assert np.allclose(batch, singles, rtol=1e-8)

    @pytest.mark.parametrize("gamma", sorted(POWER_GAUGES))
    @pytest.mark.parametrize("depth", ORACLE_DEPTHS)
    def test_power_gauge_at_one_gap_matches_mpmath(self, gamma, depth):
        got = growth_gauge_from_gaps(power_weight(gamma), [2.0**-depth])
        assert got[0] == pytest.approx(power_gauge_oracle(gamma, depth), rel=1e-12)

    @pytest.mark.parametrize("gamma", sorted(POWER_GAUGES))
    def test_power_gauge_ladder_matches_mpmath(self, gamma):
        got = growth_gauge_from_gaps(power_weight(gamma), [2.0**-m for m in ORACLE_DEPTHS])
        assert got == pytest.approx([power_gauge_oracle(gamma, m) for m in ORACLE_DEPTHS], rel=1e-12)

    def test_unconverged_sweep_raises(self, monkeypatch):
        # No tolerance is met: every doubling moves the totals by rounding, so the sweep runs out of panels.
        monkeypatch.setattr(weights, "GAUGE_REL_TOL", 0.0)
        with pytest.raises(NumericsError, match="not converged"):
            growth_gauge_from_gaps(power_weight(1.0), [2.0**-40])

    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_gauge_is_increasing(self, t):
        w = power_weight(1.0)
        assert growth_gauge(w, t) < growth_gauge(w, t + 0.05)


def bisected_gaps(w, levels):
    """The level gaps of build_extremal from all 128 bisection steps, with no early stop."""
    targets = 2.0 ** -np.arange(1, levels + 1, dtype=float)
    y_lo = -1.0
    while w.value_from_gap(2.0**y_lo) >= targets[-1]:
        y_lo -= 1.0
    y_lo = np.full(levels, y_lo)
    y_hi = np.zeros(levels)
    for _ in range(128):
        mid = 0.5 * (y_lo + y_hi)
        below = w.value_from_gap(2.0**mid) < targets
        y_lo = np.where(below, mid, y_lo)
        y_hi = np.where(below, y_hi, mid)
    return 2.0 ** (0.5 * (y_lo + y_hi))


class TestExtremalSeries:
    # Every buildable builtin weight: log_power_-2 does not decrease on the dyadic grid,
    # and power_0.5's level-40 exponent leaves int64.
    @pytest.mark.parametrize(
        "name, levels",
        [
            (name, levels)
            for levels in (10, 20, 40)
            for name in sorted(builtin_weights())
            if name != "log_power_-2" and (name, levels) != ("power_0.5", 40)
        ],
    )
    def test_bisection_stops_at_its_fixed_point(self, monkeypatch, name, levels):
        w = builtin_weights()[name]
        steps = []
        value_from_gap = weights.NormalWeight.value_from_gap

        def counting(self, gap):
            if np.size(gap) == levels:
                steps.append(1)
            return value_from_gap(self, gap)

        monkeypatch.setattr(weights.NormalWeight, "value_from_gap", counting)
        g = build_extremal(w, levels)
        assert len(steps) < 64
        monkeypatch.undo()
        gaps = bisected_gaps(w, levels)
        assert np.array_equal(g.radii, 1.0 - gaps)
        assert np.array_equal(g.exponents, np.floor(1.0 / gaps).astype(np.int64))

    def test_levels_track_weight_decay(self):
        for name in ("power_1", "power_2", "power_log_1_1"):
            w = builtin_weights()[name]
            g = build_extremal(w, levels=8)
            nu_at_radii = np.asarray(w.value(g.radii), dtype=float)
            targets = 2.0 ** -np.arange(1.0, 9.0)
            assert np.allclose(nu_at_radii, targets, rtol=1e-6), name

    # Gaps solving nu(1 - g) = 2^-s for nu = (1-r^2)^gamma: g(2 - g) = 2^(-s/gamma).  The
    # exponent is floor(1/g); a root solved in doubles may cross an integer within 1e-13.
    @pytest.mark.parametrize("gamma, levels", [(0.5, 26), (1.0, 52), (2.0, 62)])
    def test_exponents_match_mpmath_roots(self, gamma, levels):
        g = build_extremal(power_weight(gamma), levels=levels)
        with mpmath.workdps(30):
            inverse_gaps = [
                float(1 / (1 - mpmath.sqrt(1 - mpmath.mpf(2) ** (-s / mpmath.mpf(gamma)))))
                for s in range(1, levels + 1)
            ]
        for n, inverse_gap in zip(g.exponents.tolist(), inverse_gaps):
            assert inverse_gap * (1.0 - 1e-13) < n + 1 and n <= inverse_gap * (1.0 + 1e-13)

    def test_exponent_beyond_int64_raises(self):
        # nu = (1-r^2)^0.5 reaches 2^-40 at a gap near 2^-81, where floor(1/gap) leaves int64.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError, match=r"level s=40: .*int64 limit"):
                build_extremal(power_weight(0.5), 40)

    # The deepest level gaps lie below 2^-53, where 1 - gap rounds to 1.0.  Each deep profile
    # sample is nu(1 - g) * (1 + sum_s 2^s (1 - g)^n_s) at its grid gap g, in 50-digit mpmath.
    @pytest.mark.parametrize("gamma, levels", [(1.0, 56), (0.5, 28)])
    def test_deep_profile_matches_mpmath(self, gamma, levels):
        w = power_weight(gamma)
        g = build_extremal(w, levels)
        assert 1.0 - g.radii[-1] < 2.0**-53
        grid = np.exp(np.linspace(0.0, math.log(bisected_gaps(w, levels)[-1]), 4 * levels + 1))
        deep = np.flatnonzero(grid < 2.0**-53)
        assert deep.size >= 8
        with mpmath.workdps(50):
            for k in deep.tolist():
                gap = mpmath.mpf(grid[k])
                series = 1 + sum(mpmath.mpf(2) ** s * (1 - gap) ** n for s, n in enumerate(g.exponents.tolist(), 1))
                want = float((gap * (2 - gap)) ** gamma * series)
                assert g.profile[k] == pytest.approx(want, rel=1e-13)
        assert g.upper_bound == np.max(g.profile) < 2.0

    def test_unreachable_level_raises(self):
        # nu = (1-r^2)^0.01 stays above 2^-11 at every positive double gap.
        with pytest.raises(ConstructionError, match="no radius found"):
            build_extremal(power_weight(0.01), levels=11)

    def test_coefficients_are_dyadic(self):
        g = build_extremal(power_weight(1.0), levels=8)
        pairs = g.coefficient_pairs()
        indices = [n for n, _ in pairs]
        assert pairs[0] == (0, 1.0)
        assert indices == sorted(set(indices))
        assert [c for _, c in pairs] == [2.0**s for s in range(0, 9)]

    def test_profile_band_is_tight(self):
        # nu(r) * g(r) stays within a fixed two-sided band over the grid.
        for name in ("power_0.5", "power_1", "power_2"):
            g = build_extremal(builtin_weights()[name], levels=10)
            assert 0.0 < g.lower_bound <= g.upper_bound
            assert g.upper_bound / g.lower_bound < 32.0, name
            assert np.all(g.profile >= g.lower_bound - 1e-12)
            assert np.all(g.profile <= g.upper_bound + 1e-12)

    def test_antiderivative_dominates_gauge(self):
        # F = 1 + integral of g grows like the gauge of 1/nu plus a constant.
        w = power_weight(1.0)
        g = build_extremal(w, levels=12)
        coeffs = g.antiderivative_coefficients()
        assert coeffs[0] == pytest.approx(1.0)
        rs = 1.0 - 2.0 ** -np.arange(2.0, 11.0)
        F = np.polynomial.polynomial.polyval(rs, coeffs)
        envelope = growth_gauge_from_gaps(w, 1.0 - rs) + 1.0
        ratio = F / envelope
        assert np.max(ratio) / np.min(ratio) < 16.0

    def test_value_from_gap_matches_coefficients(self):
        g = build_extremal(power_weight(1.0), levels=6)
        z = 0.75
        direct = sum(c * z**n for n, c in g.coefficient_pairs())
        assert g.value_from_gap(1.0 - z) == pytest.approx(direct, rel=1e-12)


class TestRatioBound:
    def test_builtins_stay_under_cap(self):
        for name, w in builtin_weights().items():
            bound = weight_ratio_bound(w)
            assert 0.0 < bound <= 4.0, name

    def test_exact_power_weight_is_below_one(self):
        # For nu = (1-r^2)^c the two-power envelope is never undershot.
        assert weight_ratio_bound(power_weight(1.0)) <= 1.0 + 1e-9


class TestLaplaceTail:
    def test_small_delta_required(self):
        with pytest.raises(DomainError):
            laplace_tail_ratio(power_weight(1.0), 0.5)

    def test_sweep_is_bounded_and_flat(self):
        for name in ("power_0.5", "power_1", "power_log_1_1"):
            w = builtin_weights()[name]
            report = laplace_tail_sweep(w, [1e-2, 1e-3, 1e-4, 1e-5])
            assert report.spread < 100.0, name
            assert report.slope <= 0.05, name
            assert np.all(np.asarray(report.values) > 0.0)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("name", sorted(LAPLACE_WEIGHTS))
    def test_ratio_matches_mpmath(self, name, delta):
        got = laplace_tail_ratio(builtin_weights()[name], delta)
        assert got == pytest.approx(laplace_oracle(name, delta), rel=1e-12)

    def test_trend_settles_and_does_not_grow(self):
        # The sweep approaches its plateau from below, then stays flat: the
        # deep rungs must be non-increasing and the overall trend level.
        report = laplace_tail_sweep(power_weight(1.0), [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        vals = np.asarray(report.values)
        assert np.all(np.diff(vals[2:]) <= 1e-9 * vals[2:-1])
        assert abs(report.slope) < 0.05

    @pytest.mark.parametrize("rungs", [2, 3, 24])
    def test_constant_sweep_has_exactly_zero_slope(self, monkeypatch, rungs):
        # The mean of log 7.3 over 3 or 24 rungs is off by an ulp, so the centred values are not all zero.
        monkeypatch.setattr(weights, "laplace_tail_ratio", lambda w, delta: 7.3)
        report = laplace_tail_sweep(power_weight(1.0), list(np.geomspace(1e-2, 1e-6, rungs)))
        assert report.slope == 0.0


def scalar_dyadic_sum_ratio(w, r, j_max=60):
    """dyadic_sum_ratio as it was before it took arrays, one weight read per term, kept verbatim as the reference."""
    if not 0.5 <= r < 1.0:
        raise DomainError("the dyadic sum ratio is defined for 1/2 <= r < 1")
    log_r = math.log(r)
    total = 0.0
    for j in range(1, j_max + 1):
        term = math.exp((2.0**j) * log_r) / float(w.value_from_gap(2.0**-j))
        total += term
        if term < 1e-18 * total:
            break
    return float(w.value(r)) * total


class TestDyadicSumRatio:
    def test_radius_domain(self):
        w = power_weight(1.0)
        with pytest.raises(DomainError):
            dyadic_sum_ratio(w, 0.25)
        with pytest.raises(DomainError):
            dyadic_sum_ratio(w, 1.0)

    @pytest.mark.parametrize("r", [-0.5, math.nan, [0.75, 1.0], [0.5, 0.49], [0.75, math.nan]])
    def test_any_radius_outside_the_domain_raises(self, r):
        with pytest.raises(DomainError):
            dyadic_sum_ratio(power_weight(1.0), r)

    @pytest.mark.parametrize("name", sorted(builtin_weights()))
    def test_ladder_matches_the_scalar_loop(self, name):
        w = builtin_weights()[name]
        radii = radius_ladder(48)
        want = np.array([scalar_dyadic_sum_ratio(w, r, j_max=78) for r in radii])
        got = dyadic_sum_ratio(w, radii, j_max=78)
        assert isinstance(got, np.ndarray) and got.shape == radii.shape
        assert np.array_equal(got, want)

    def test_scalar_radius_returns_a_float(self):
        w = power_weight(1.0)
        for r in (0.75, np.float64(0.75), np.array(0.75)):
            got = dyadic_sum_ratio(w, r, j_max=40)
            assert type(got) is float
            assert got == scalar_dyadic_sum_ratio(w, 0.75, j_max=40)

    def test_one_weight_read_per_ladder(self, monkeypatch):
        reads = []
        value_from_gap = weights.NormalWeight.value_from_gap
        monkeypatch.setattr(
            weights.NormalWeight, "value_from_gap", lambda self, gap: reads.append(1) or value_from_gap(self, gap)
        )
        dyadic_sum_ratio(power_weight(1.0), radius_ladder(40), j_max=70)
        assert len(reads) <= 2

    # A table sampled to 1 - 2^-table_depth under a depth-20 ladder with j_max = 50: the sums
    # stop at j = 26, so a table short of that raises DomainError, and one reaching it, though
    # not 1 - 2^-50, gives the per-term loop's ratios.
    @pytest.mark.parametrize("table_depth, raises", [(20, True), (25, True), (26, False), (27, False), (29, False)])
    def test_table_weight_is_read_only_as_deep_as_the_sums_run(self, table_depth, raises):
        gaps = 2.0 ** -np.arange(1.0, table_depth + 1.0)
        samples = [[0.0, 1.0], *([1.0 - g, g * (2.0 - g)] for g in gaps)]
        w = table_weight(samples, 1.0, 1.0)
        radii = radius_ladder(20)
        if raises:
            with pytest.raises(DomainError, match="table weight sampled only up to"):
                dyadic_sum_ratio(w, radii, j_max=50)
            with pytest.raises(DomainError, match="table weight sampled only up to"):
                scalar_dyadic_sum_ratio(w, radii[-1], j_max=50)
        else:
            want = [scalar_dyadic_sum_ratio(w, r, j_max=50) for r in radii]
            assert np.array_equal(dyadic_sum_ratio(w, radii, j_max=50), want)

    def test_ratio_is_bounded_along_ladder(self):
        for name, w in builtin_weights().items():
            radii = 1.0 - 2.0 ** -np.arange(1.0, 17.0)
            ratios = [dyadic_sum_ratio(w, float(r)) for r in radii]
            assert max(ratios) < 8.0, name
            assert min(ratios) > 0.0, name
