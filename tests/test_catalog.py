"""Catalog layer: builtin object sets, probe families, name/JSON resolvers."""

import functools
import math

import numpy as np
import pytest

from hilbloch.catalog import (
    DEFAULT_SERIES_TRUNCATION,
    atom_ladder,
    builtin_measures,
    builtin_weights,
    catalog_builtin,
    extremal_antiderivative,
    monomial,
    monotone_family,
    probe_functions,
    random_signed_polynomials,
    resolve_measure,
    resolve_series,
    resolve_weight,
    series_catalog,
)
from hilbloch.errors import ConstructionError, DomainError
from hilbloch.measures import RadialMeasure, measure_from_json
from hilbloch.series import TaylorSeries, series_from_json
from hilbloch.weights import NormalWeight, build_extremal, power_weight, weight_from_json


def _level_loop_antiderivative(build, truncation: int) -> np.ndarray:
    """Reference: rebuild the series one level deeper until an exponent overshoots the truncation."""
    levels = 1
    best = build(levels)
    while best.exponents[-1] + 1 <= truncation and levels < 60:
        levels += 1
        try:
            nxt = build(levels)
        except ConstructionError:
            break
        best = nxt
        if nxt.exponents[-1] + 1 > truncation:
            break
    return TaylorSeries(best.antiderivative_coefficients()).pad(truncation).coefficients


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConstructionError as exc:
        return str(exc)


class TestBuiltins:
    def test_weight_roster(self):
        names = set(builtin_weights())
        assert names == {
            "power_0.5",
            "power_1",
            "power_2",
            "power_log_1_1",
            "log_power_-2",
            "log_power_-1",
            "log_power_0",
            "log_power_1",
        }
        assert all(isinstance(w, NormalWeight) for w in builtin_weights().values())

    def test_measure_roster(self):
        names = set(builtin_measures())
        assert names == {
            "lebesgue",
            "atom_half",
            "density_1",
            "density_2",
            "density_-0.5",
            "density_1_log-1",
            "atom_ladder_16",
        }
        assert all(isinstance(m, RadialMeasure) for m in builtin_measures().values())

    def test_atom_ladder_geometry(self):
        mu = atom_ladder(8)
        assert len(mu.atoms) == 8
        positions = [t for t, _ in mu.atoms]
        weights = [w for _, w in mu.atoms]
        assert positions == [1.0 - 2.0**-s for s in range(1, 9)]
        assert weights == [2.0**-s for s in range(1, 9)]
        assert mu.mass == pytest.approx(1.0 - 2.0**-8)

    def test_series_catalog_roster_and_truncation(self):
        cat = series_catalog(2**6)
        assert len(cat) == 10
        for name, f in cat.items():
            assert isinstance(f, TaylorSeries), name
            assert f.truncation <= 2**6, name

    def test_monotone_family_is_nonincreasing(self):
        for name, f in monotone_family(2**8).items():
            coeffs = f.coefficients
            assert np.all(np.diff(coeffs) <= 1e-15), name
            assert np.all(coeffs >= 0.0), name

    def test_monomial(self):
        f = monomial(5)
        assert f.truncation == 5
        assert f(2.0) == pytest.approx(32.0)

    def test_catalog_builtin_overview(self):
        doc = catalog_builtin()
        assert set(doc) >= {"weights", "measures", "series"}


class TestGeneratedFamilies:
    def test_extremal_antiderivative_shape(self):
        f = extremal_antiderivative(power_weight(1.0), truncation=256)
        assert f.truncation <= 256
        assert f.coefficients[0] == pytest.approx(1.0)
        assert f.has_nonnegative_coefficients

    def test_extremal_antiderivative_matches_level_loop(self):
        weights = {**builtin_weights(), "power_0.3": power_weight(0.3)}
        for name, w in weights.items():
            build = functools.lru_cache(maxsize=None)(functools.partial(build_extremal, w))
            for k in range(1, 18):
                want = _outcome(_level_loop_antiderivative, build, 2**k)
                got = _outcome(lambda: extremal_antiderivative(w, 2**k).coefficients)
                if isinstance(want, str):
                    assert got == want, (name, k)
                else:
                    assert np.array_equal(got, want), (name, k)

    @pytest.mark.parametrize("truncation", [2, 2**10, 2**17])
    def test_extremal_antiderivative_builds_once(self, monkeypatch, truncation):
        import hilbloch.catalog as catalog

        calls = []

        def counted(w, levels):
            calls.append(levels)
            return build_extremal(w, levels)

        monkeypatch.setattr(catalog, "build_extremal", counted)
        catalog.extremal_antiderivative(power_weight(1.0), truncation)
        assert len(calls) == 1

    def test_probe_functions_roster(self):
        funcs = probe_functions(power_weight(1.0), truncation=64)
        labels = [name for name, _ in funcs]
        assert labels == ["constant", "monomial_1", "inverse_square", "gauge_extremal"]
        assert all(f.truncation <= 64 for _, f in funcs)

    def test_random_polynomials_are_deterministic(self):
        a = random_signed_polynomials(3, degree=16, seed=7)
        b = random_signed_polynomials(3, degree=16, seed=7)
        assert [name for name, _ in a] == [name for name, _ in b]
        for (_, fa), (_, fb) in zip(a, b):
            assert np.array_equal(fa.coefficients, fb.coefficients)

    def test_random_polynomials_vary_with_seed(self):
        a = random_signed_polynomials(1, degree=16, seed=7)[0][1]
        b = random_signed_polynomials(1, degree=16, seed=8)[0][1]
        assert not np.array_equal(a.coefficients, b.coefficients)


class TestResolvers:
    def test_weight_passthrough_and_name(self):
        w = power_weight(1.0)
        assert resolve_weight(w) is w
        assert resolve_weight("power_1").value(0.5) == pytest.approx(0.75)

    def test_weight_descriptor(self):
        w = resolve_weight({"kind": "power", "gamma": 2.0})
        assert w.value(0.5) == pytest.approx(0.75**2)

    def test_unknown_weight_lists_choices(self):
        with pytest.raises(DomainError, match="power_1"):
            resolve_weight("power_99")

    def test_measure_passthrough_name_descriptor(self):
        mu = builtin_measures()["atom_half"]
        assert resolve_measure(mu) is mu
        assert resolve_measure("lebesgue").moment(1) == pytest.approx(0.5, rel=1e-10)
        again = resolve_measure({"atoms": [[0.5, 1.0]]})
        assert again.moment(2) == pytest.approx(0.25)

    def test_unknown_measure_rejected(self):
        with pytest.raises(DomainError, match="lebesgue"):
            resolve_measure("nope")

    def test_series_name_uses_truncation(self):
        f = resolve_series("ones", truncation=32)
        assert f.truncation == 32

    def test_series_inline_coefficients(self):
        f = resolve_series([1.0, 2.0, 3.0])
        assert np.allclose(f.coefficients, [1.0, 2.0, 3.0])

    def test_unknown_series_rejected(self):
        with pytest.raises(DomainError, match="geometric"):
            resolve_series("unknown_name")

    def test_default_series_truncation_constant(self):
        assert resolve_series("harmonic").truncation == DEFAULT_SERIES_TRUNCATION


class TestMalformedDescriptors:
    @pytest.mark.parametrize(
        "build, doc",
        [
            (weight_from_json, {"kind": "power", "gamma": "1"}),
            (weight_from_json, {"kind": "power"}),
            (weight_from_json, {"kind": "power_log", "t": 1.0}),
            (weight_from_json, {"kind": "power", "gamma": 1.0, "a": "x"}),
            (weight_from_json, {"kind": "power", "gamma": math.nan}),
            (weight_from_json, {"kind": ["power"]}),
            (weight_from_json, {"kind": "table", "samples": [["a", 1.0]], "a": 1.0, "b": 1.0}),
            (measure_from_json, {"density": 3}),
            (measure_from_json, {"density": {"kind": "power_log", "s": "1"}}),
            (measure_from_json, {"atoms": [[0.5]]}),
            (measure_from_json, {"atoms": "0.5"}),
            (measure_from_json, {"atoms": [[0.5, math.inf]]}),
            (measure_from_json, {"label": 3}),
            (series_from_json, [1.0, "a"]),
            (series_from_json, [[1.0, 2.0], [3.0]]),
            (series_from_json, [1.0, math.nan]),
        ],
    )
    def test_raises_construction_error(self, build, doc):
        with pytest.raises(ConstructionError):
            build(doc)

    @pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0])
    def test_atom_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(ConstructionError):
            RadialMeasure(atoms=[(0.5, weight)])
