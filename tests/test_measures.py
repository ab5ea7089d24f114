"""Measure layer: moments against closed forms, tails, Carleson quantities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hilbloch.catalog import atom_ladder, builtin_measures, resolve_weight
from hilbloch.errors import ConstructionError, DomainError, NumericsError
from hilbloch.measures import (
    Density,
    RadialMeasure,
    _moment_block,
    carleson_sup,
    lebesgue,
    measure_from_json,
    measure_to_json,
    moments_to_csv,
    point_mass,
    power_log_density,
    power_reweight,
    reweight_agreement,
)
from hilbloch.quadrature import TAIL_CAP, panel_points
from hilbloch.series import TaylorSeries
from hilbloch.trend import VERDICT_BOUNDED, VERDICT_UNBOUNDED, index_ladder
from hilbloch.weights import growth_gauge_from_gaps


def harmonic(n: int) -> float:
    return sum(1.0 / k for k in range(1, n + 1))


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# Builtin measures (1-t)^s dt, whose moments are mu_n = B(n+1, s+1).
BETA_DENSITIES = {"lebesgue": 0.0, "density_1": 1.0, "density_2": 2.0, "density_-0.5": -0.5}
# Indices on both sides of every power of two up to 2^18: each block edge of
# contiguous_moments is a multiple of its power-of-two block.
EDGE_INDICES = sorted({0, 1} | {2**k + d for k in range(1, 19) for d in (-1, 0, 1)} - {2**18 + 1})
# About 300 indices spread linearly and geometrically over a table to 2^18.
SPREAD_INDICES = np.unique(np.concatenate([np.linspace(0, 2**18, 150), np.geomspace(1, 2**18, 160)]).astype(int))
# A table of MIXED_ATOMS plus (1-t)^0.5 dt (640 nodes once padded) at these
# n_max ends one short of, exactly at or one past its first chunk of
# R * B = 64 * 64 = 4096 indices.
CHUNK_EDGES = [4094, 4095, 4096]
MIXED_ATOMS = [(0.0, 0.5), (0.3, 1.0), (0.9, 2.0), (0.99, 0.25), (0.999, 1.0)]
DENSITY_MEASURES = sorted(name for name, mu in builtin_measures().items() if mu.density is not None)
# Density grid nodes at n = 2^10, 2^18 and 2^26: 16 Gauss nodes on each of the
# 2 * ceil(U / 2) level-1 panels.  Level 2 has twice as many.
LEVEL_ONE_NODES = {
    "density_-0.5": {10: 1952, 18: 1664, 26: 2112},
    "density_1": {10: 576, 18: 768, 26: 960},
    "density_1_log-1": {10: 576, 18: 768, 26: 960},
    "density_2": {10: 384, 18: 512, 26: 640},
    "lebesgue": {10: 864, 18: 1120, 26: 1408},
}


def reference_moments(mu, n_max, phi=None):
    """Plain per-index loop over the (phi-weighted) node set (t, w, log t) that contiguous_moments and moments_at sum.

    Each node stands for w * exp(n log t); the loop steps by exp(log t) in
    extended precision, so its n roundings stay far below the tolerances.
    """
    _, w, log_t = mu._moment_nodes(n_max, phi, 1e-10)
    out = np.empty(n_max + 1)
    acc = w.astype(np.longdouble)
    step = np.exp(log_t.astype(np.longdouble))
    for n in range(n_max + 1):
        out[n] = acc.sum()
        acc *= step
    return out


@pytest.fixture(scope="module")
def beta_tables():
    measures = builtin_measures()
    return {name: measures[name].contiguous_moments(2**18) for name in BETA_DENSITIES}


class TestMoments:
    def test_lebesgue_moments(self):
        mu = lebesgue()
        for n in (0, 1, 5, 31, 200):
            assert mu.moments_at([n])[0] == pytest.approx(1.0 / (n + 1.0), rel=1e-11)

    def test_linear_density_moments(self):
        mu = builtin_measures()["density_1"]
        for n in (0, 3, 17):
            oracle = 1.0 / ((n + 1.0) * (n + 2.0))
            assert mu.moments_at([n])[0] == pytest.approx(oracle, rel=1e-10)

    def test_beta_moments_with_endpoint_singularity(self):
        mu = builtin_measures()["density_-0.5"]
        for n in (0, 2, 16):
            oracle = math.exp(log_beta(n + 1.0, 0.5))
            assert mu.moments_at([n])[0] == pytest.approx(oracle, rel=1e-9)

    def test_logarithmic_moments(self):
        # density log(e/(1-t)): moment_n = 1/(n+1) + H_{n+1}/(n+1).
        mu = RadialMeasure(density=power_log_density(0.0, 1.0))
        for n in (0, 4, 12):
            oracle = (1.0 + harmonic(n + 1)) / (n + 1.0)
            assert mu.moments_at([n])[0] == pytest.approx(oracle, rel=1e-9)

    def test_atom_moments(self):
        mu = RadialMeasure(atoms=[(0.5, 2.0)])
        assert mu.moments_at([0])[0] == pytest.approx(2.0)
        assert mu.moments_at([10])[0] == pytest.approx(2.0 * 0.5**10, rel=1e-13)

    def test_mixture_is_additive(self):
        mixed = RadialMeasure(atoms=[(0.5, 1.0)], density=power_log_density(0.0))
        for n in (0, 3, 9):
            assert mixed.moments_at([n])[0] == pytest.approx(0.5**n + 1.0 / (n + 1.0), rel=1e-10)

    def test_weighted_moments_apply_phi_to_atoms(self):
        mixed = RadialMeasure(atoms=[(0.5, 1.0)], density=power_log_density(0.0))
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
        assert beta_tables[name][EDGE_INDICES] == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", sorted(BETA_DENSITIES))
    def test_positive_measure_has_positive_decreasing_moments(self, beta_tables, name):
        table = beta_tables[name]
        assert np.all(table > 0.0)
        assert np.all(np.diff(table) < 0.0)

    # n_max + 1 in {4095, 4096, 4097} ends on a block one short, exactly full
    # or one over for every power-of-two block from 2 to 1024, and so does
    # {1023, 1024, 1025} up to 32; CHUNK_EDGES end the atoms-and-density table
    # one short of, exactly at or one past a chunk.
    @pytest.mark.parametrize("n_max", [0, 1, 2, 31, 32, 33, 1000, 1022, 1023, 1024, *CHUNK_EDGES])
    @pytest.mark.parametrize("case", ["atoms", "atoms_and_density", "phi_weighted", "zero"])
    def test_matches_per_index_loop(self, case, n_max):
        atoms = MIXED_ATOMS
        phi = None
        if case == "atoms":
            mu = RadialMeasure(atoms=atoms)
        elif case == "atoms_and_density":
            mu = RadialMeasure(atoms=atoms, density=power_log_density(0.5))
        elif case == "phi_weighted":
            # A signed weight, as apply_quadrature's f(t), read through the one phi-weighted path.
            mu = RadialMeasure(atoms=atoms, density=power_log_density(-0.5, 1.0))
            phi = lambda t, omt: 1.0 - 3.0 * t  # noqa: E731
        else:
            mu = RadialMeasure()
        got = mu.contiguous_moments(n_max) if phi is None else mu.moments_at(range(n_max + 1), phi=phi)
        ref = reference_moments(mu, n_max, phi)
        assert got.shape == (n_max + 1,)
        if case == "zero":
            assert np.array_equal(got, np.zeros(n_max + 1))
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_max", CHUNK_EDGES)
    def test_chunk_edges_end_at_one_chunk(self, n_max):
        mu = RadialMeasure(atoms=MIXED_ATOMS, density=power_log_density(0.5))
        block, rows = _moment_block(n_max, len(mu._moment_nodes(n_max, None, 1e-10)[0]))
        assert n_max + 1 - rows * block == CHUNK_EDGES.index(n_max) - 1

    def test_lebesgue_table_matches_reciprocals(self, beta_tables):
        n = np.arange(2**18 + 1, dtype=float)
        assert beta_tables["lebesgue"] == pytest.approx(1.0 / (n + 1.0), rel=1e-12, abs=0.0)

    # scipy.special.betaln is no oracle here: it is off by about 1e-9 near n = 2.2e5.
    @pytest.mark.parametrize("name", ["density_1", "density_2", "density_-0.5"])
    def test_beta_tables_match_mpmath_at_spread_indices(self, beta_tables, name):
        s = BETA_DENSITIES[name]
        with mpmath.workdps(30):
            oracle = [float(mpmath.beta(int(n) + 1, s + 1)) for n in SPREAD_INDICES]
        assert beta_tables[name][SPREAD_INDICES] == pytest.approx(oracle, rel=1e-13, abs=0.0)

    # Powers exp(n log t), with log t read through the gap 1 - t, keep every rung of a
    # ladder accurate far past the 2^18 tables: the rounding of t would cost n * 1e-16.
    @pytest.mark.parametrize("k", [14, 18, 22, 26, 30])
    @pytest.mark.parametrize("name", sorted(BETA_DENSITIES))
    def test_ladder_moments_match_mpmath(self, name, k):
        ns = index_ladder(2**k)
        with mpmath.workdps(30):
            oracle = [float(mpmath.beta(int(n) + 1, BETA_DENSITIES[name] + 1)) for n in ns]
        assert builtin_measures()[name].moments_at(ns) == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_atom_at_zero_reads_only_at_index_zero(self):
        # log 0 = -inf: every power but the zeroth is exactly 0, with no NaN and no warning.
        mu = RadialMeasure(atoms=[(0.0, 2.0), (0.5, 1.0)])
        oracle = 0.5 ** np.arange(4097.0)
        oracle[0] += 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = mu.contiguous_moments(4096)
            ladder = mu.moments_at([0, 1, 7, 2**20])
            weighted = mu.moments_at([0, 3], phi=lambda t, omt: omt)
        # exp(n log t) carries about |n log t| roundings: 0.5^1000 is e^-693.
        assert table == pytest.approx(oracle, rel=1e-13, abs=1e-300)
        assert ladder == pytest.approx([3.0, 0.5, 0.5**7, 0.0], rel=1e-15, abs=0.0)
        assert weighted == pytest.approx([2.5, 0.5**4], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ns", [[0], [5], [0, 1, 7, 64, 1000], list(range(40)), [4096, 0, 17]])
    @pytest.mark.parametrize("case", ["atoms", "atoms_and_density", "log_phi"])
    def test_moments_at_reads_the_same_node_set(self, case, ns):
        atoms = MIXED_ATOMS
        phi = None
        if case == "atoms":
            mu = RadialMeasure(atoms=atoms)
        elif case == "atoms_and_density":
            mu = RadialMeasure(atoms=atoms, density=power_log_density(0.5))
        else:
            mu = RadialMeasure(atoms=atoms, density=power_log_density(-0.5, 1.0))
            phi = lambda t, omt: 1.0 - np.log(omt)  # noqa: E731
        got = mu.moments_at(ns, phi=phi)
        ref = reference_moments(mu, max(ns), phi)[ns]
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    # Grids the search tries for the harmonic series at 2^14: the tail loop
    # steps U until the probe sums settle, then the level loop refines.
    @pytest.mark.parametrize("name, grids", [("lebesgue", 5), ("density_1", 3), ("density_-0.5", 6)])
    @pytest.mark.parametrize("atoms", [(), ((0.5, 1.0), (0.9, 0.25))])
    def test_phi_is_evaluated_once_per_grid(self, atoms, name, grids):
        n = 2**14
        f = TaylorSeries(np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)]))
        seen = []

        def phi(t, omt):
            seen.append((len(t), float(t[-1])))
            return f(t)

        mu = RadialMeasure(atoms=atoms, density=builtin_measures()[name].density)
        mu.moments_at(index_ladder(n), phi)
        assert len(seen) == grids + bool(atoms)
        assert len(set(seen)) == len(seen)

    # Without phi the tolerance has no l1 floor, so density_1 takes one grid more than above.
    @pytest.mark.parametrize("name, grids", [("lebesgue", 5), ("density_1", 4), ("density_-0.5", 6)])
    @pytest.mark.parametrize("atoms", [(), ((0.5, 1.0), (0.9, 0.25))])
    def test_density_is_evaluated_once_per_grid(self, monkeypatch, atoms, name, grids):
        seen, density_eval = [], Density.eval

        def counting_eval(self, t, omt):
            seen.append((len(t), float(t[-1])))
            return density_eval(self, t, omt)

        monkeypatch.setattr(Density, "eval", counting_eval)
        mu = RadialMeasure(atoms=atoms, density=builtin_measures()[name].density)
        mu.contiguous_moments(2**14)
        assert len(seen) == grids
        assert len(set(seen)) == len(seen)

    # Density nodes deep in the tail, where t = -expm1(-u) rounds to 1.0, fold into one node.
    @pytest.mark.parametrize("n_max", [2**8, 2**14, 2**18])
    @pytest.mark.parametrize("name", DENSITY_MEASURES)
    @pytest.mark.parametrize("case", ["density", "atoms_and_phi"])
    def test_nodes_at_one_fold_into_one_node(self, case, name, n_max):
        phi, atoms = None, ()
        if case == "atoms_and_phi":
            phi, atoms = (lambda t, omt: 1.0 + omt), MIXED_ATOMS
        mu = RadialMeasure(atoms=atoms, density=builtin_measures()[name].density)
        t, w, log_t = mu._moment_nodes(n_max, phi, 1e-10)
        grid_t, grid_w, grid_log_t = mu._density_grid(n_max, phi, 1e-10)
        at_one = grid_t == 1.0
        kept = len(atoms) + int(np.count_nonzero(~at_one))
        assert np.count_nonzero(t == 1.0) == int(at_one.any())
        assert len(t) == len(log_t) == kept + int(at_one.any())
        assert np.array_equal(t[len(atoms) : kept], grid_t[~at_one])
        assert np.array_equal(w[len(atoms) : kept], grid_w[~at_one])
        assert np.array_equal(log_t[len(atoms) : kept], grid_log_t[~at_one])
        if at_one.any():
            assert (t[-1], w[-1]) == (1.0, math.fsum(grid_w[at_one]))
            # Its log t is a mean of theirs, so its power is the sum of theirs to first order in
            # n log t; a log t of 0 would be off by n times their mean log t, 3.7e-9 at n = 2^26.
            folded = grid_log_t[at_one]
            assert folded.min() <= log_t[-1] <= folded.max() < 0.0
            power = w[-1] * math.exp(2**26 * log_t[-1])
            assert power == pytest.approx(math.fsum(grid_w[at_one] * np.exp(2**26 * folded)), rel=1e-15, abs=0.0)

    # The level study compares level 0 (panels about 2 wide in u) with level 1
    # and returns level 1 for every builtin density: half the nodes of level 2,
    # where a study that starts at level 1 would stop at the earliest.
    @pytest.mark.parametrize("k", [10, 18, 26])
    @pytest.mark.parametrize("name", DENSITY_MEASURES)
    def test_density_grid_settles_at_level_one(self, monkeypatch, name, k):
        built = []

        def recording(edges, panels):
            built.append((float(edges[-1]), panels))
            return panel_points(edges, panels)

        monkeypatch.setattr("hilbloch.measures.panel_points", recording)
        t, _, _ = builtin_measures()[name]._density_grid(2**k, None, 1e-10)
        U = built[-1][0]
        coarsest = math.ceil(U / 2.0)
        assert sorted(panels for u, panels in built if u == U) == [coarsest, 2 * coarsest]
        assert len(t) == 16 * 2 * coarsest == LEVEL_ONE_NODES[name][k]

    def test_lebesgue_folds_its_tail_at_two_to_the_18(self):
        # 515 of the 1120 density nodes round to t = 1 at 2^18.
        t, _, _ = lebesgue()._moment_nodes(2**18, None, 1e-10)
        assert len(t) == 1120 - 515 + 1

    @pytest.mark.parametrize("nodes", [1, 5, 1024, 3328, 2**17, 2**18])
    @pytest.mark.parametrize("n_max", [0, 1, 100, 2**14, 2**18])
    def test_block_is_a_capped_power_of_two(self, nodes, n_max):
        block, rows = _moment_block(n_max, nodes)
        assert block & (block - 1) == 0
        assert rows & (rows - 1) == 0
        assert nodes * (block + rows) <= max(2**17, 2 * nodes)
        assert block <= 2 * math.isqrt(n_max + 1) + 1
        if rows > 1:
            assert rows * block < 2 * (n_max + 1)

    def test_negative_n_max_rejected(self):
        with pytest.raises(DomainError):
            lebesgue().contiguous_moments(-1)

    def test_unsettled_tail_search_stops_before_the_tail_cap(self):
        # The |1 - 3t| weighting keeps this grid search from settling.  It must raise
        # before it builds a grid past TAIL_CAP, where 1 - t underflows to zero.
        mu = RadialMeasure(atoms=[(0.5, 1.0)], density=power_log_density(-0.5, 1.0))
        smallest = []

        def phi(t, omt):
            smallest.append(float(np.min(omt)))
            return np.abs(1.0 - 3.0 * t)

        with pytest.raises(NumericsError, match="did not stabilize in the tail"):
            mu.moments_at([0, 1, 16], phi=phi)
        assert min(smallest) >= math.exp(-TAIL_CAP)

    @pytest.mark.parametrize("name", DENSITY_MEASURES)
    def test_moments_do_not_depend_on_earlier_calls(self, name):
        # One object read before and after a history of calls, and a second
        # object read only after the same history: all three reads agree bitwise.
        ns = [0, 1, 10, 1000]

        def read(mu):
            return mu.moments_at(ns), mu.contiguous_moments(64)

        def history(mu):
            mu.contiguous_moments(2**18)
            mu.moments_at(index_ladder(2**12), phi=lambda t, omt: omt)

        mu, other = builtin_measures()[name], builtin_measures()[name]
        before = read(mu)
        history(mu)
        history(other)
        for reads in (read(mu), read(other)):
            assert np.array_equal(reads[0], before[0])
            assert np.array_equal(reads[1], before[1])


class TestFiniteMass:
    """A density (1-t)^s log^gamma(e/(1-t)) dt is finite exactly when s > -1, or s = -1 with gamma < -1."""

    @pytest.mark.parametrize("s, gamma", [(-0.99, 0.0), (-0.95, 5.0), (-1.0, -1.5)])
    def test_heavy_finite_densities_build(self, s, gamma):
        assert RadialMeasure(density=power_log_density(s, gamma)).density == power_log_density(s, gamma)

    @pytest.mark.parametrize(
        "s, gamma", [(-1.01, 0.0), (-1.0, -1.0), (-1.0, 0.0), (-3.0, -5.0), (math.nan, 0.0), (0.0, math.inf)]
    )
    def test_infinite_densities_raise(self, s, gamma):
        with pytest.raises(ConstructionError, match="density mass diverges"):
            RadialMeasure(density=power_log_density(s, gamma))

    @pytest.mark.parametrize("m", [0, 1, 8, 20, 40])
    def test_heavy_power_density_tail_matches_closed_form(self, m):
        # Tail of (1-t)^-0.99 dt at t = 1 - g is g^0.01 / 0.01; the whole mass is 100.
        g = 2.0**-m
        mu = RadialMeasure(density=power_log_density(-0.99))
        assert mu.tail(1.0 - g) == pytest.approx(g**0.01 / 0.01, rel=1e-12)


class TestIntegralAndTail:
    def test_atom_only_integral(self):
        mu = RadialMeasure(atoms=[(0.25, 1.0), (0.75, 2.0)])
        val = mu.integral(lambda t, omt: t)
        assert val == pytest.approx(0.25 + 1.5)

    def test_no_atom_up_to_upper_gives_float_zero(self):
        val = point_mass(0.5).integral(lambda t, omt: t, upper=0.25)
        assert val == 0.0 and type(val) is float

    @pytest.mark.parametrize("upper", [1.0, 0.75, 0.5, 0.25])
    def test_atoms_go_to_fn_in_one_call(self, upper):
        mu = RadialMeasure(atoms=MIXED_ATOMS)
        calls = []

        def fn(t, omt):
            calls.append((t.copy(), omt.copy()))
            return 2.0 * t + omt**2

        val = mu.integral(fn, upper=upper)
        kept = [(t, wgt) for t, wgt in mu.atoms if t <= upper]
        assert len(calls) == 1
        ts, omts = calls[0]
        assert ts.tolist() == [t for t, _ in kept]
        assert omts.tolist() == [1.0 - t for t, _ in kept]
        assert val == pytest.approx(sum(wgt * (2.0 * t + (1.0 - t) ** 2) for t, wgt in kept), rel=1e-15)

    @pytest.mark.parametrize("weight", ["power_1", "power_2"])
    def test_gauge_over_atom_ladder_matches_per_atom_sum(self, weight):
        # The well-definedness integrand of P4.1: one gauge sweep over all 44
        # atoms against one sweep per atom, as the integral once summed it.
        w = resolve_weight(weight)
        mu = atom_ladder(44)
        gauge = lambda t, omt: growth_gauge_from_gaps(w, omt) + 1.0  # noqa: E731
        per_atom = sum(wgt * float(gauge(np.asarray([t]), np.asarray([1.0 - t]))[0]) for t, wgt in mu.atoms)
        assert mu.integral(gauge) == pytest.approx(per_atom, rel=1e-13)

    def test_atoms_and_density_sum_both_parts(self):
        mu = RadialMeasure(atoms=[(0.2, 0.5), (0.6, 1.5)], density=power_log_density(1.0))
        sizes = []

        def fn(t, omt):
            sizes.append(len(t))
            return t**2

        # Atoms 0.5 * 0.04 + 1.5 * 0.36; density integral of t^2 (1-t) dt = 1/12.
        assert mu.integral(fn) == pytest.approx(0.02 + 0.54 + 1.0 / 12.0, rel=1e-12)
        assert sizes[0] == 2 and len(sizes) > 1

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

    # 1 - 2^-53 is the last rung below 1.0; at depth 54 the top rung would round to 1.0.
    def test_tail_ladder_reaches_depth_53(self):
        gaps, tails = lebesgue().tail_ladder(53)
        assert gaps[-1] == 2.0**-53
        assert np.array_equal(tails[:50], lebesgue().tail_ladder(50)[1])
        assert tails == pytest.approx(gaps, rel=1e-10)

    def test_tail_ladder_refuses_depth_past_53(self):
        with pytest.raises(DomainError, match=r"depth must lie in \[1, 53\], got 54"):
            lebesgue().tail_ladder(54)

    def test_power_density_tail(self):
        mu = builtin_measures()["density_2"]
        assert mu.tail(0.5) == pytest.approx(0.5**3 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("s", [-15 / 16, -0.5, 0.0, 1.0, 2.5])
    def test_power_density_tails_match_mpmath(self, s):
        # Tail of (1-t)^s dt at t = 1 - g is the integral of v^s over [0, g]; with
        # v = w^k, k(s+1) >= 1, the mpmath integrand k w^(k(s+1)-1) is smooth.
        mu = RadialMeasure(density=power_log_density(s))
        k = math.ceil(1.0 / (s + 1.0))

        def oracle(g: float) -> float:
            with mpmath.workdps(30):
                return float(mpmath.quad(lambda w: k * w ** (k * (s + 1) - 1), [0, mpmath.mpf(g) ** (1.0 / k)]))

        assert mu.tail(0.0) == pytest.approx(oracle(1.0), rel=1e-9)
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
            assert tails[0] == pytest.approx(mu.moments_at([0])[0], rel=1e-9), name


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
        assert mu.tail(0.0) == 0.0
        assert mu.moments_at([0])[0] == 0.0

    def test_moments_csv_layout(self):
        text = moments_to_csv(lebesgue(), 3)
        lines = text.strip().splitlines()
        assert lines[0] == "n,mu_n"
        assert len(lines) == 5
        n, value = lines[2].split(",")
        assert (int(n), float(value)) == (1, pytest.approx(0.5, rel=1e-10))


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
        mu = RadialMeasure(density=power_log_density(s_density))
        result = carleson_sup(mu, s=s_density + 0.6, depth=20)
        assert result.verdict == VERDICT_BOUNDED
        result = carleson_sup(mu, s=s_density + 1.5, depth=20)
        assert result.verdict == VERDICT_UNBOUNDED


class TestReweight:
    def test_atoms_reweight_exactly(self):
        mu = RadialMeasure(atoms=[(0.5, 3.0)])
        out = power_reweight(mu, 2.0)
        assert out.moments_at([0])[0] == pytest.approx(3.0 / 0.25, rel=1e-12)

    def test_density_shifts_exponent(self):
        mu = builtin_measures()["density_2"]
        out = power_reweight(mu, 1.0)
        for n in (0, 5):
            oracle = 1.0 / ((n + 1.0) * (n + 2.0))
            assert out.moments_at([n])[0] == pytest.approx(oracle, rel=1e-10)

    def test_equivalence_on_bounded_case(self):
        report = reweight_agreement(lebesgue(), beta=0.5, gamma=0.5, depth=20)
        assert report.agree
        assert report.original.verdict == VERDICT_BOUNDED
        assert report.transformed.verdict == VERDICT_BOUNDED

    def test_equivalence_on_unbounded_case(self):
        report = reweight_agreement(lebesgue(), beta=1.5, gamma=0.5, depth=20)
        assert report.agree
        assert report.original.verdict == VERDICT_UNBOUNDED
