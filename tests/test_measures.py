"""Measure layer: moments against closed forms, tails, Carleson quantities."""

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.catalog import builtin_measures
from hilbloch.errors import ConstructionError, DomainError
from hilbloch.measures import (
    _moment_block,
    carleson_sup,
    lebesgue,
    measure_from_json,
    measure_to_json,
    moments_to_csv,
    point_mass,
    power_log_density,
    power_reweight,
    radial_measure,
    reweight_agreement,
)
from hilbloch.series import TaylorSeries
from hilbloch.trend import VERDICT_BOUNDED, VERDICT_UNBOUNDED, index_ladder


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# Builtin measures (1-t)^s dt, whose moments are mu_n = B(n+1, s+1).
BETA_DENSITIES = {"lebesgue": 0.0, "density_1": 1.0, "density_2": 2.0, "density_-0.5": -0.5}
# Indices on both sides of every power of two up to 2^18: each block edge of
# contiguous_moments is a multiple of its power-of-two block.
EDGE_INDICES = sorted({0, 1} | {2**k + d for k in range(1, 19) for d in (-1, 0, 1)} - {2**18 + 1})


def reference_moments(mu, n_max, phi=None, breakpoints=()):
    """Plain per-index loop over the weighted node set that contiguous_moments sums."""
    t, w = mu._moment_nodes(n_max, phi, 1e-10, breakpoints)
    out = np.empty(n_max + 1)
    acc = w.copy()
    for n in range(n_max + 1):
        out[n] = acc.sum()
        acc *= t
    return out


@pytest.fixture(scope="module")
def beta_tables():
    measures = builtin_measures()
    return {name: measures[name].contiguous_moments(2**18) for name in BETA_DENSITIES}


class TestMoments:
    def test_lebesgue_moments(self):
        mu = lebesgue()
        for n in (0, 1, 5, 31, 200):
            assert mu.moment(n) == pytest.approx(1.0 / (n + 1.0), rel=1e-11)

    def test_linear_density_moments(self):
        mu = builtin_measures()["density_1"]
        for n in (0, 3, 17):
            oracle = 1.0 / ((n + 1.0) * (n + 2.0))
            assert mu.moment(n) == pytest.approx(oracle, rel=1e-10)

    def test_beta_moments_with_endpoint_singularity(self):
        mu = builtin_measures()["density_-0.5"]
        for n in (0, 2, 16):
            oracle = math.exp(log_beta(n + 1.0, 0.5))
            assert mu.moment(n) == pytest.approx(oracle, rel=1e-9)

    def test_logarithmic_moments(self):
        # density log(e/(1-t)): moment_n = 1/(n+1) + H_{n+1}/(n+1).
        mu = radial_measure(density=power_log_density(0.0, 1.0))
        for n in (0, 4, 12):
            oracle = (1.0 + harmonic(n + 1)) / (n + 1.0)
            assert mu.moment(n) == pytest.approx(oracle, rel=1e-9)

    def test_atom_moments(self):
        mu = point_mass(0.5, weight=2.0)
        assert mu.moment(0) == pytest.approx(2.0)
        assert mu.moment(10) == pytest.approx(2.0 * 0.5**10, rel=1e-13)

    def test_mixture_is_additive(self):
        mixed = radial_measure(atoms=[(0.5, 1.0)], density=power_log_density(0.0))
        for n in (0, 3, 9):
            assert mixed.moment(n) == pytest.approx(0.5**n + 1.0 / (n + 1.0), rel=1e-10)

    def test_weighted_moments_apply_phi_to_atoms(self):
        mixed = radial_measure(atoms=[(0.5, 1.0)], density=power_log_density(0.0))
        vals = mixed.moments_at([0, 2], phi=lambda t, omt: omt)
        oracle = lambda n: 0.5 * 0.5**n + 1.0 / ((n + 1.0) * (n + 2.0))
        assert vals[0] == pytest.approx(oracle(0), rel=1e-10)
        assert vals[1] == pytest.approx(oracle(2), rel=1e-10)

    def test_contiguous_matches_pointwise(self):
        mu = builtin_measures()["density_1_log-1"]
        block = mu.contiguous_moments(24)
        singles = mu.moments_at(np.arange(25))
        assert np.allclose(block, singles, rtol=1e-9)

    def test_moments_decrease(self):
        for name, mu in builtin_measures().items():
            ms = mu.contiguous_moments(64)
            assert np.all(np.diff(ms) <= 1e-12 * ms[:-1]), name


class TestBlockedMoments:
    @pytest.mark.parametrize("name", sorted(BETA_DENSITIES))
    def test_power_density_moments_match_beta_function(self, beta_tables, name):
        s = BETA_DENSITIES[name]
        with mpmath.workdps(30):
            oracle = [float(mpmath.beta(n + 1, s + 1)) for n in EDGE_INDICES]
        assert beta_tables[name][EDGE_INDICES] == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(BETA_DENSITIES))
    def test_positive_measure_has_positive_decreasing_moments(self, beta_tables, name):
        table = beta_tables[name]
        assert np.all(table > 0.0)
        assert np.all(np.diff(table) < 0.0)

    # n_max + 1 in {4095, 4096, 4097} ends on a block one short, exactly full
    # or one over for every power-of-two block from 2 to 1024.
    @pytest.mark.parametrize("n_max", [0, 1, 2, 31, 32, 33, 1000, 4094, 4095, 4096])
    @pytest.mark.parametrize("case", ["atoms", "atoms_and_density", "phi_with_breakpoints", "zero"])
    def test_matches_per_index_loop(self, case, n_max):
        atoms = [(0.0, 0.5), (0.3, 1.0), (0.9, 2.0), (0.99, 0.25), (0.999, 1.0)]
        phi, breakpoints = None, ()
        if case == "atoms":
            mu = radial_measure(atoms=atoms)
        elif case == "atoms_and_density":
            mu = radial_measure(atoms=atoms, density=power_log_density(0.5))
        elif case == "phi_with_breakpoints":
            # The |f(t)| weighting of apply_sublinear, with a kink at the root of f.
            mu = radial_measure(atoms=atoms, density=power_log_density(-0.5, 1.0))
            phi, breakpoints = (lambda t, omt: np.abs(1.0 - 3.0 * t)), (1.0 / 3.0,)
        else:
            mu = radial_measure()
        got = mu.contiguous_moments(n_max, phi=phi, breakpoints=breakpoints)
        ref = reference_moments(mu, n_max, phi, breakpoints)
        assert got.shape == (n_max + 1,)
        if case == "zero":
            assert np.array_equal(got, np.zeros(n_max + 1))
        else:
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("ns", [[0], [5], [0, 1, 7, 64, 1000], list(range(40)), [4096, 0, 17]])
    @pytest.mark.parametrize("case", ["atoms", "atoms_and_density", "phi_with_breakpoints"])
    def test_moments_at_reads_the_same_node_set(self, case, ns):
        atoms = [(0.0, 0.5), (0.3, 1.0), (0.9, 2.0), (0.99, 0.25), (0.999, 1.0)]
        phi, breakpoints = None, ()
        if case == "atoms":
            mu = radial_measure(atoms=atoms)
        elif case == "atoms_and_density":
            mu = radial_measure(atoms=atoms, density=power_log_density(0.5))
        else:
            mu = radial_measure(atoms=atoms, density=power_log_density(-0.5, 1.0))
            phi, breakpoints = (lambda t, omt: np.abs(1.0 - 3.0 * t)), (1.0 / 3.0,)
        got = mu.moments_at(ns, phi=phi, breakpoints=breakpoints)
        ref = reference_moments(mu, max(ns), phi, breakpoints)[ns]
        assert got == pytest.approx(ref, rel=1e-12)

    # Grids the search tries for the harmonic series at 2^14: the tail loop
    # steps U until the probe sums settle, then the level loop refines.
    @pytest.mark.parametrize("name, grids", [("lebesgue", 5), ("density_1", 3), ("density_-0.5", 6)])
    @pytest.mark.parametrize("atoms", [(), ((0.5, 1.0), (0.9, 0.25))])
    @pytest.mark.parametrize("method", ["contiguous_moments", "moments_at"])
    def test_phi_is_evaluated_once_per_grid(self, method, atoms, name, grids):
        n = 2**14
        f = TaylorSeries(np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)]))
        seen = []

        def phi(t, omt):
            seen.append((len(t), float(t[-1])))
            return f(t)

        mu = radial_measure(atoms=atoms, density=builtin_measures()[name].density)
        if method == "contiguous_moments":
            mu.contiguous_moments(n, phi)
        else:
            mu.moments_at(index_ladder(n), phi)
        assert len(seen) == grids + bool(atoms)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("nodes", [1, 5, 1024, 3328, 2**17, 2**18])
    @pytest.mark.parametrize("n_max", [0, 1, 100, 2**14, 2**18])
    def test_block_is_a_capped_power_of_two(self, nodes, n_max):
        block = _moment_block(n_max, nodes)
        assert block & (block - 1) == 0
        assert block * nodes <= max(2**17, nodes)
        assert block <= 2 * math.isqrt(n_max + 1) + 1

    def test_negative_n_max_rejected(self):
        with pytest.raises(DomainError):
            lebesgue().contiguous_moments(-1)


class TestIntegralAndTail:
    def test_kinked_integrand_with_breakpoint(self):
        val = lebesgue().integral(lambda t, omt: np.abs(2.0 * t - 1.0), breakpoints=(0.5,))
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_atom_only_integral(self):
        mu = radial_measure(atoms=[(0.25, 1.0), (0.75, 2.0)])
        val = mu.integral(lambda t, omt: t)
        assert val == pytest.approx(0.25 + 1.5)

    @pytest.mark.parametrize("upper", [1.5, -1.0, 0.0, math.nan])
    @pytest.mark.parametrize("build", [lebesgue, lambda: point_mass(0.5)], ids=["density", "atoms"])
    def test_upper_limit_outside_unit_interval_rejected(self, build, upper):
        with pytest.raises(DomainError, match="upper limit"):
            build().integral(lambda t, omt: t, upper=upper)

    def test_lebesgue_tail(self):
        mu = lebesgue()
        for t in (0.0, 0.3, 0.9):
            assert mu.tail(t) == pytest.approx(1.0 - t, rel=1e-10)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_tail_ladder_needs_a_rung(self, depth):
        with pytest.raises(DomainError):
            lebesgue().tail_ladder(depth)
        with pytest.raises(DomainError):
            carleson_sup(lebesgue(), depth=depth)

    def test_power_density_tail(self):
        mu = builtin_measures()["density_2"]
        assert mu.tail(0.5) == pytest.approx(0.5**3 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("s", [-15 / 16, -0.5, 0.0, 1.0, 2.5])
    def test_power_density_tails_match_mpmath(self, s):
        # Tail of (1-t)^s dt at t = 1 - g is the integral of v^s over [0, g]; with
        # v = w^k, k(s+1) >= 1, the mpmath integrand k w^(k(s+1)-1) is smooth.
        mu = radial_measure(density=power_log_density(s))
        k = math.ceil(1.0 / (s + 1.0))

        def oracle(g: float) -> float:
            with mpmath.workdps(30):
                return float(mpmath.quad(lambda w: k * w ** (k * (s + 1) - 1), [0, mpmath.mpf(g) ** (1.0 / k)]))

        assert mu.mass == pytest.approx(oracle(1.0), rel=1e-9)
        for m in range(1, 13):
            assert mu.tail(1.0 - 2.0**-m) == pytest.approx(oracle(2.0**-m), rel=1e-12), m

    def test_atom_tail_counts_left_closed(self):
        mu = point_mass(0.5)
        assert mu.tail(0.4) == pytest.approx(1.0)
        assert mu.tail(0.5) == pytest.approx(1.0)
        assert mu.tail(0.6) == pytest.approx(0.0, abs=1e-12)

    def test_tails_decrease_from_total_mass(self):
        for name, mu in builtin_measures().items():
            ts = np.linspace(0.0, 0.99, 12)
            tails = np.array([mu.tail(float(t)) for t in ts])
            assert np.all(np.diff(tails) <= 1e-10), name
            assert tails[0] == pytest.approx(mu.mass, rel=1e-9), name


class TestJsonAndCsv:
    def test_round_trip_builtins(self):
        for name, mu in builtin_measures().items():
            again = measure_from_json(measure_to_json(mu))
            ns = [0, 1, 7]
            assert np.allclose(again.moments_at(ns), mu.moments_at(ns), rtol=1e-9), name

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConstructionError):
            measure_from_json({"atoms": [], "bogus": 1})

    def test_unknown_density_kind_rejected(self):
        with pytest.raises(ConstructionError):
            measure_from_json({"density": {"kind": "spline", "s": 0.0, "gamma": 0.0}})

    def test_empty_descriptor_builds_zero_measure(self):
        mu = measure_from_json({})
        assert mu.mass == 0.0
        assert mu.moment(0) == 0.0

    def test_moments_csv_layout(self):
        text = moments_to_csv(lebesgue(), 3)
        lines = text.strip().splitlines()
        assert lines[0] == "n,mu_n"
        assert len(lines) == 5
        n, value = lines[2].split(",")
        assert (int(n), float(value)) == (1, pytest.approx(0.5, rel=1e-10))

    def test_moments_csv_stream(self):
        buf = io.StringIO()
        moments_to_csv(lebesgue(), 2, stream=buf)
        assert buf.getvalue().startswith("n,mu_n")


class TestCarleson:
    def test_lebesgue_is_exactly_one_carleson(self):
        result = carleson_sup(lebesgue(), s=1.0)
        assert result.verdict == VERDICT_BOUNDED
        assert result.sup_value == pytest.approx(1.0, rel=1e-6)

    def test_lebesgue_fails_larger_exponent(self):
        result = carleson_sup(lebesgue(), s=1.5)
        assert result.verdict == VERDICT_UNBOUNDED

    def test_log_factor_breaks_criticality(self):
        result = carleson_sup(lebesgue(), gamma_log=1.0, s=1.0)
        assert result.verdict == VERDICT_UNBOUNDED

    def test_log_factor_helps_subcritical(self):
        result = carleson_sup(lebesgue(), gamma_log=-1.0, s=1.0)
        assert result.verdict == VERDICT_BOUNDED

    def test_atom_ladder_matches_density_rate(self):
        # Atoms (1-2^-s, 2^-s) mimic Lebesgue mass at dyadic scales.
        mu = builtin_measures()["atom_ladder_16"]
        result = carleson_sup(mu, s=1.0, depth=14)
        assert result.verdict == VERDICT_BOUNDED

    @given(st.floats(min_value=0.2, max_value=2.5))
    def test_power_density_threshold(self, s_density):
        # (1-t)^c dt is s-Carleson exactly when s <= c+1.
        mu = radial_measure(density=power_log_density(s_density))
        result = carleson_sup(mu, s=s_density + 0.6, depth=20)
        assert result.verdict == VERDICT_BOUNDED
        result = carleson_sup(mu, s=s_density + 1.5, depth=20)
        assert result.verdict == VERDICT_UNBOUNDED


class TestReweight:
    def test_atoms_reweight_exactly(self):
        mu = point_mass(0.5, weight=3.0)
        out = power_reweight(mu, 2.0)
        assert out.moment(0) == pytest.approx(3.0 / 0.25, rel=1e-12)

    def test_density_shifts_exponent(self):
        mu = builtin_measures()["density_2"]
        out = power_reweight(mu, 1.0)
        for n in (0, 5):
            oracle = 1.0 / ((n + 1.0) * (n + 2.0))
            assert out.moment(n) == pytest.approx(oracle, rel=1e-10)

    def test_equivalence_on_bounded_case(self):
        report = reweight_agreement(lebesgue(), beta=0.5, gamma=0.5, depth=20)
        assert report.agree
        assert report.original.verdict == VERDICT_BOUNDED
        assert report.transformed.verdict == VERDICT_BOUNDED

    def test_equivalence_on_unbounded_case(self):
        report = reweight_agreement(lebesgue(), beta=1.5, gamma=0.5, depth=20)
        assert report.agree
        assert report.original.verdict == VERDICT_UNBOUNDED
