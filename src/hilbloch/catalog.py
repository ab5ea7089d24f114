"""Built-in named weights, measures, and series shared by suites, probes, demos.

Each named family is a table of factories, so a lookup by name (the
``resolve_*`` functions, the norm suites' rows) builds only that entry; the
whole-family views (``builtin_weights``, ``series_catalog``, ...) build every
entry.  Everything here is deterministic except the signed-polynomial
generator, which takes an explicit seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .measures import RadialMeasure, lebesgue, measure_from_json, point_mass, power_log_density
from .series import TaylorSeries, series_from_json
from .weights import (
    NormalWeight,
    build_extremal,
    log_power_weight,
    power_log_weight,
    power_weight,
    weight_from_json,
)

DEFAULT_SERIES_TRUNCATION = 2**10


# Name -> factory tables, here and for series below: a lookup builds only the named entry.
_WEIGHT_FACTORIES = {
    "power_0.5": lambda: power_weight(0.5),
    "power_1": lambda: power_weight(1.0),
    "power_2": lambda: power_weight(2.0),
    "power_log_1_1": lambda: power_log_weight(1.0, 1.0),
    "log_power_-2": lambda: log_power_weight(-2.0),
    "log_power_-1": lambda: log_power_weight(-1.0),
    "log_power_0": lambda: log_power_weight(0.0),
    "log_power_1": lambda: log_power_weight(1.0),
}


def builtin_weights() -> dict[str, NormalWeight]:
    """Named normal weights spanning the power, power-log, and log-power kinds."""
    return {name: make() for name, make in _WEIGHT_FACTORIES.items()}


def atom_ladder(levels: int = 16) -> RadialMeasure:
    """Atoms 2^{-s} at radii 1-2^{-s}; tails are exactly 2^{1-m} at depth m."""
    atoms = [(1.0 - 2.0**-s, 2.0**-s) for s in range(1, levels + 1)]
    return RadialMeasure(atoms=atoms, label=f"atom ladder ({levels} levels)")


_MEASURE_FACTORIES = {
    "lebesgue": lebesgue,
    "atom_half": lambda: point_mass(0.5),
    "density_1": lambda: RadialMeasure(density=power_log_density(1.0)),
    "density_2": lambda: RadialMeasure(density=power_log_density(2.0)),
    "density_-0.5": lambda: RadialMeasure(density=power_log_density(-0.5)),
    "density_1_log-1": lambda: RadialMeasure(density=power_log_density(1.0, -1.0)),
    "atom_ladder_16": lambda: atom_ladder(16),
}


def builtin_measures() -> dict[str, RadialMeasure]:
    """Named measures: point mass, densities with closed-form tails, atom ladders."""
    return {name: make() for name, make in _MEASURE_FACTORIES.items()}


# -- series ---------------------------------------------------------------------


def monomial(m: int) -> TaylorSeries:
    coeffs = np.zeros(m + 1)
    coeffs[m] = 1.0
    return TaylorSeries(coeffs)


def _on_indices(term):
    """A factory of the series with coefficients term(n) at n = 0..truncation, n as floats."""
    return lambda truncation: TaylorSeries(term(np.arange(truncation + 1, dtype=float)))


def _zero_then(term):
    """A factory of the series with coefficient 0 at n = 0 and term(k) at k = 1..truncation, k as floats."""
    return lambda truncation: TaylorSeries(np.concatenate([[0.0], term(np.arange(1, truncation + 1, dtype=float))]))


# Series factories take the truncation; the fixed polynomials ignore it.
_SERIES_FACTORIES = {
    "constant": lambda truncation: TaylorSeries([1.0]),
    "affine": lambda truncation: TaylorSeries([1.0, 1.0]),
    "monomial_8": lambda truncation: monomial(8),
    "monomial_64": lambda truncation: monomial(64),
    "geometric": _on_indices(lambda n: 2.0**-n),
    "ones": lambda truncation: TaylorSeries(np.ones(truncation + 1)),
    "harmonic": _zero_then(lambda k: 1.0 / k),
    "inverse_square": _zero_then(lambda k: 1.0 / k**2),
    "inverse_sqrt": _zero_then(lambda k: k**-0.5),
    "log_damped": _zero_then(lambda k: 1.0 / (k * np.log(k + 1.0) ** 2)),
}

_MONOTONE_FACTORIES = {
    "ones": _SERIES_FACTORIES["ones"],
    "geometric": _SERIES_FACTORIES["geometric"],
    "harmonic_shift": _on_indices(lambda n: 1.0 / (n + 1.0)),
    "inverse_square_shift": _on_indices(lambda n: 1.0 / (n + 1.0) ** 2),
    "inverse_sqrt_shift": _on_indices(lambda n: (n + 1.0) ** -0.5),
    "log_damped_shift": _on_indices(lambda n: 1.0 / ((n + 1.0) * np.log(n + 2.0) ** 2)),
}


def series_catalog(n_max: int = DEFAULT_SERIES_TRUNCATION) -> dict[str, TaylorSeries]:
    """Nonnegative-coefficient inputs with graded decay rates."""
    return {name: make(n_max) for name, make in _SERIES_FACTORIES.items()}


def monotone_family(n_max: int = DEFAULT_SERIES_TRUNCATION) -> dict[str, TaylorSeries]:
    """Inputs with non-increasing coefficient sequences (monotone-criterion domain)."""
    return {name: make(n_max) for name, make in _MONOTONE_FACTORIES.items()}


def extremal_antiderivative(w: NormalWeight, truncation: int) -> TaylorSeries:
    """Antiderivative-plus-one of the lacunary extremal series, cut at truncation.

    Level s sits at the exponent floor(1/gap) where nu(1 - gap) = 2^-s.  The
    first level whose gap falls to 1/truncation, level L = ceil(-log2
    nu(1 - 1/truncation)), is the first that pad cuts off, so the series is
    built through level L - 1 (at least one level): every level it holds is
    kept, and deeper truncations see the same function with more blocks.
    """
    levels = max(1, math.ceil(-math.log2(w.value_from_gap(1.0 / truncation))) - 1)
    return TaylorSeries(build_extremal(w, levels).antiderivative_coefficients()).pad(truncation)


def probe_functions(omega: NormalWeight, truncation: int) -> list[tuple[str, TaylorSeries]]:
    """Probe inputs with finite source norms; includes the extremal witness."""
    return [
        ("constant", TaylorSeries([1.0])),
        ("monomial_1", monomial(1)),
        ("inverse_square", _SERIES_FACTORIES["inverse_square"](truncation)),
        ("gauge_extremal", extremal_antiderivative(omega, truncation)),
    ]


def random_signed_polynomials(count: int, degree: int, seed: int) -> list[tuple[str, TaylorSeries]]:
    """Signed-coefficient polynomials for property checks, drawn from numpy's generator at seed."""
    rng = np.random.default_rng(seed)
    return [
        (f"signed_{degree}_{i}", TaylorSeries(rng.uniform(-1.0, 1.0, degree + 1)))
        for i in range(count)
    ]


# -- spec resolution --------------------------------------------------------------


def _build_named(factories: dict, kind: str, name: str, *args):
    """factories[name](*args), or a DomainError naming the known names."""
    if name not in factories:
        raise DomainError(f"unknown {kind} name {name!r}; known: {sorted(factories)}")
    return factories[name](*args)


def resolve_weight(spec) -> NormalWeight:
    """Catalog name or JSON descriptor to a weight."""
    if isinstance(spec, str):
        return _build_named(_WEIGHT_FACTORIES, "weight", spec)
    return weight_from_json(spec)


def resolve_measure(spec) -> RadialMeasure:
    """Catalog name or JSON descriptor to a measure; a measure itself passes through."""
    if isinstance(spec, RadialMeasure):
        return spec
    if isinstance(spec, str):
        return _build_named(_MEASURE_FACTORIES, "measure", spec)
    return measure_from_json(spec)


def resolve_series(spec, truncation: int = DEFAULT_SERIES_TRUNCATION) -> TaylorSeries:
    """Catalog name or JSON coefficient array to a series at truncation.

    A JSON array is cut or zero-padded to truncation + 1 coefficients; a
    catalog name builds its entry at truncation, and its fixed polynomials
    keep their own length.
    """
    if truncation < 0:
        raise DomainError(f"truncation must be nonnegative, got {truncation}")
    if isinstance(spec, str):
        return _build_named(_SERIES_FACTORIES, "series", spec, truncation)
    return series_from_json(spec).pad(truncation)
