"""Quadrature layer: frozen closed-form values and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.errors import NumericsError
from hilbloch.quadrature import (
    TAIL_CAP,
    _GL_NODES,
    _GL_WEIGHTS,
    integrate_radial,
    integrate_segments,
    integrate_tail,
    panel_points,
)


def linspace_panel_points(edges, panels_per_segment):
    """panel_points as it was before it broadcast over segments, one linspace per segment, kept verbatim."""
    starts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        starts.append(np.linspace(lo, hi, panels_per_segment + 1))
    sub = np.concatenate([s[:-1] for s in starts])
    widths = np.concatenate([np.diff(s) for s in starts])
    mid = sub + 0.5 * widths
    half = 0.5 * widths
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


class TestPanelPoints:
    def test_nodes_stay_inside_segments(self):
        edges = np.array([0.0, 1.0, 3.0])
        nodes, weights = panel_points(edges, panels_per_segment=2)
        assert nodes.shape == weights.shape
        assert np.all(nodes > 0.0) and np.all(nodes < 3.0)
        # Weights of a Gauss rule over [0, 3] sum to the interval length.
        assert math.isclose(weights.sum(), 3.0, rel_tol=1e-13)

    @pytest.mark.parametrize("panels", [1, 2, 3, 5, 7, 12, 64, 100, 1024])
    @pytest.mark.parametrize(
        "edges",
        [[0.0, 1.0], [0.0, 3.7, 16.0, 40.5], [8.0, 16.0], [226.0, 680.0], [0.0, 0.1, 0.2, 0.3], [1.0, 13.815510557964274]],
    )
    def test_matches_a_linspace_per_segment(self, edges, panels):
        nodes, weights = panel_points(np.array(edges), panels)
        want_nodes, want_weights = linspace_panel_points(np.array(edges), panels)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)

    def test_refinement_adds_nodes(self):
        edges = np.array([0.0, 1.0])
        coarse, _ = panel_points(edges, 1)
        fine, _ = panel_points(edges, 4)
        assert len(fine) == 4 * len(coarse)


class TestIntegrateSegments:
    def test_exponential_over_unit_interval(self):
        val = integrate_segments(lambda x: np.exp(x), np.array([0.0, 1.0]))
        assert math.isclose(val, math.e - 1.0, rel_tol=1e-12)

    def test_degree_31_polynomial_is_exact_on_one_panel(self):
        # 16-point Gauss-Legendre integrates degree <= 31 exactly.
        val = integrate_segments(lambda x: x**31, np.array([0.0, 1.0]))
        assert math.isclose(val, 1.0 / 32.0, rel_tol=1e-13)

    def test_segment_edges_partition_the_integral(self):
        fn = lambda x: np.cos(3.0 * x)
        whole = integrate_segments(fn, np.array([0.0, 2.0]))
        split = integrate_segments(fn, np.array([0.0, 0.3, 1.1, 2.0]))
        assert math.isclose(whole, split, rel_tol=1e-12)
        assert math.isclose(whole, math.sin(6.0) / 3.0, rel_tol=1e-12)

    @given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-4.0, max_value=4.0))
    def test_linear_functions_integrate_exactly(self, a, b):
        val = integrate_segments(lambda x: a * x + b, np.array([0.0, 2.0]))
        assert math.isclose(val, 2.0 * a + 2.0 * b, rel_tol=1e-12, abs_tol=1e-12)


class TestIntegrateTail:
    def test_exponential_tail(self):
        val = integrate_tail(lambda u: np.exp(-u), 1.0)
        assert math.isclose(val, math.exp(-1.0), rel_tol=1e-10)

    def test_exponential_tail_from_offset(self):
        val = integrate_tail(lambda u: np.exp(-u), 3.0)
        assert math.isclose(val, math.exp(-3.0), rel_tol=1e-10)

    def test_gaussian_tail(self):
        val = integrate_tail(lambda u: np.exp(-(u**2)), 1.0)
        oracle = math.sqrt(math.pi) / 2.0 * math.erfc(1.0)
        assert math.isclose(val, oracle, rel_tol=1e-9)

    def test_power_tail_with_extrapolation(self):
        # Geometric-remainder extrapolation is exact for power-law decay.
        val = integrate_tail(lambda u: u**-3.0, 2.0, extrapolate=True)
        assert math.isclose(val, 1.0 / 8.0, rel_tol=1e-6)

    def test_cap_prevents_underflow_domain(self):
        # The integrand is only evaluated where exp(-u) is representable.
        assert TAIL_CAP <= 700.0
        seen = []

        def fn(u):
            seen.append(np.max(u))
            return np.exp(-u)

        integrate_tail(fn, 1.0)
        assert max(seen) <= 2.0 * TAIL_CAP


class TestIntegrateRadial:
    def test_monomial_moments(self):
        for n in (0, 1, 7, 40):
            val = integrate_radial(lambda t, omt: t**n)
            assert math.isclose(val, 1.0 / (n + 1.0), rel_tol=1e-11)

    def test_inverse_square_root_endpoint_singularity(self):
        val = integrate_radial(lambda t, omt: 1.0 / np.sqrt(omt))
        assert math.isclose(val, 2.0, rel_tol=1e-9)

    def test_logarithmic_singularity(self):
        val = integrate_radial(lambda t, omt: -np.log(omt))
        assert math.isclose(val, 1.0, rel_tol=1e-9)

    def test_subinterval_bounds(self):
        val = integrate_radial(lambda t, omt: np.ones_like(t), lower=0.25, upper=0.75)
        assert math.isclose(val, 0.5, rel_tol=1e-12)

    @given(st.floats(min_value=-0.9, max_value=3.0))
    def test_beta_endpoint_powers(self, c):
        # Integral of (1-t)^c over [0, 1] equals 1/(c+1) for c > -1.
        val = integrate_radial(lambda t, omt: omt**c)
        assert math.isclose(val, 1.0 / (c + 1.0), rel_tol=1e-8)

    def test_divergent_integrand_raises(self):
        # Non-integrable endpoint mass must surface, never truncate silently.
        with pytest.raises(NumericsError):
            integrate_radial(lambda t, omt: 1.0 / omt)
