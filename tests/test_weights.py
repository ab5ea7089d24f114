"""Weight layer: constructors, gauge integrals, extremal series, tail ratios."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.catalog import builtin_weights
from hilbloch.errors import ConstructionError, DomainError, NumericsError
from hilbloch.weights import (
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
            ([[0.0, 1.0]], "table weight needs matching 1-d sample arrays"),
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
        assert report.c_increasing > report.ceiling


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

    def test_unconverged_sweep_raises(self):
        # No tolerance is met: every doubling moves the totals by rounding, so the sweep runs out of panels.
        with pytest.raises(NumericsError, match="not converged"):
            growth_gauge_from_gaps(power_weight(1.0), [2.0**-40], rel_tol=0.0)

    @given(st.floats(min_value=0.05, max_value=0.9))
    def test_gauge_is_increasing(self, t):
        w = power_weight(1.0)
        assert growth_gauge(w, t) < growth_gauge(w, t + 0.05)


class TestExtremalSeries:
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

    def test_value_matches_coefficients(self):
        g = build_extremal(power_weight(1.0), levels=6)
        z = 0.75
        direct = sum(c * z**n for n, c in g.coefficient_pairs())
        assert g.value(z) == pytest.approx(direct, rel=1e-12)


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


class TestDyadicSumRatio:
    def test_radius_domain(self):
        w = power_weight(1.0)
        with pytest.raises(DomainError):
            dyadic_sum_ratio(w, 0.25)
        with pytest.raises(DomainError):
            dyadic_sum_ratio(w, 1.0)

    def test_ratio_is_bounded_along_ladder(self):
        for name, w in builtin_weights().items():
            radii = 1.0 - 2.0 ** -np.arange(1.0, 17.0)
            ratios = [dyadic_sum_ratio(w, float(r)) for r in radii]
            assert max(ratios) < 8.0, name
            assert min(ratios) > 0.0, name
