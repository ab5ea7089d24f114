"""Built-in named weights, measures, and series shared by suites, probes, demos.

Everything here is deterministic except the signed-polynomial generator,
which takes an explicit seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, DomainError
from .measures import (
    RadialMeasure,
    lebesgue,
    measure_from_json,
    point_mass,
    power_log_density,
    radial_measure,
)
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


# Name -> factory tables: a lookup builds only the named entry.
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
    return radial_measure(atoms=atoms, label=f"atom ladder ({levels} levels)")


_MEASURE_FACTORIES = {
    "lebesgue": lebesgue,
    "atom_half": lambda: point_mass(0.5),
    "density_1": lambda: radial_measure(density=power_log_density(1.0)),
    "density_2": lambda: radial_measure(density=power_log_density(2.0)),
    "density_-0.5": lambda: radial_measure(density=power_log_density(-0.5)),
    "density_1_log-1": lambda: radial_measure(density=power_log_density(1.0, -1.0)),
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


def _with_zero(values: np.ndarray) -> TaylorSeries:
    return TaylorSeries(np.concatenate([[0.0], values]))


def series_catalog(n_max: int = DEFAULT_SERIES_TRUNCATION) -> dict[str, TaylorSeries]:
    """Nonnegative-coefficient inputs with graded decay rates."""
    k = np.arange(1, n_max + 1, dtype=float)
    return {
        "constant": TaylorSeries([1.0]),
        "affine": TaylorSeries([1.0, 1.0]),
        "monomial_8": monomial(8),
        "monomial_64": monomial(64),
        "geometric": TaylorSeries(2.0 ** -np.arange(n_max + 1, dtype=float)),
        "ones": TaylorSeries(np.ones(n_max + 1)),
        "harmonic": _with_zero(1.0 / k),
        "inverse_square": _with_zero(1.0 / k**2),
        "inverse_sqrt": _with_zero(k**-0.5),
        "log_damped": _with_zero(1.0 / (k * np.log(k + 1.0) ** 2)),
    }


def monotone_family(n_max: int = DEFAULT_SERIES_TRUNCATION) -> dict[str, TaylorSeries]:
    """Inputs with non-increasing coefficient sequences (monotone-criterion domain)."""
    n = np.arange(n_max + 1, dtype=float)
    return {
        "ones": TaylorSeries(np.ones(n_max + 1)),
        "geometric": TaylorSeries(2.0**-n),
        "harmonic_shift": TaylorSeries(1.0 / (n + 1.0)),
        "inverse_square_shift": TaylorSeries(1.0 / (n + 1.0) ** 2),
        "inverse_sqrt_shift": TaylorSeries((n + 1.0) ** -0.5),
        "log_damped_shift": TaylorSeries(1.0 / ((n + 1.0) * np.log(n + 2.0) ** 2)),
    }


def extremal_antiderivative(w: NormalWeight, truncation: int) -> TaylorSeries:
    """Antiderivative-plus-one of the lacunary extremal series, cut at truncation.

    Levels are added until the next lacunary exponent would overshoot the
    truncation, so deeper truncations see the same function with more blocks.
    """
    levels = 1
    best = build_extremal(w, levels)
    while best.exponents[-1] + 1 <= truncation and levels < 60:
        levels += 1
        try:
            nxt = build_extremal(w, levels)
        except ConstructionError:
            break
        best = nxt
        if nxt.exponents[-1] + 1 > truncation:
            break
    return TaylorSeries(best.antiderivative_coefficients()).pad(truncation)


def probe_functions(omega: NormalWeight, truncation: int) -> list[tuple[str, TaylorSeries]]:
    """Probe inputs with finite source norms; includes the extremal witness."""
    k = np.arange(1, truncation + 1, dtype=float)
    return [
        ("constant", TaylorSeries([1.0])),
        ("monomial_1", monomial(1)),
        ("inverse_square", _with_zero(1.0 / k**2)),
        ("gauge_extremal", extremal_antiderivative(omega, truncation)),
    ]


def random_signed_polynomials(count: int, degree: int, seed: int) -> list[tuple[str, TaylorSeries]]:
    """Signed-coefficient polynomials for property checks, drawn from numpy's generator at seed."""
    rng = np.random.default_rng(seed)
    return [
        (f"signed_{degree}_{i}", TaylorSeries(rng.uniform(-1.0, 1.0, degree + 1)))
        for i in range(count)
    ]


def catalog_builtin() -> dict[str, dict]:
    """All named collections in one mapping (weights, measures, series)."""
    return {
        "weights": builtin_weights(),
        "measures": builtin_measures(),
        "series": series_catalog(),
    }


# -- spec resolution --------------------------------------------------------------


def _build_named(factories: dict, kind: str, name: str):
    if name not in factories:
        raise DomainError(f"unknown {kind} name {name!r}; known: {sorted(factories)}")
    return factories[name]()


def resolve_weight(spec) -> NormalWeight:
    """Catalog name or JSON descriptor to a weight."""
    if isinstance(spec, NormalWeight):
        return spec
    if isinstance(spec, str):
        return _build_named(_WEIGHT_FACTORIES, "weight", spec)
    return weight_from_json(spec)


def resolve_measure(spec) -> RadialMeasure:
    """Catalog name or JSON descriptor to a measure."""
    if isinstance(spec, RadialMeasure):
        return spec
    if isinstance(spec, str):
        return _build_named(_MEASURE_FACTORIES, "measure", spec)
    return measure_from_json(spec)


def resolve_series(spec, truncation: int = DEFAULT_SERIES_TRUNCATION) -> TaylorSeries:
    """Catalog name or JSON coefficient array to a series, cut at truncation."""
    if isinstance(spec, TaylorSeries):
        return spec
    if isinstance(spec, str):
        table = series_catalog(truncation)
        if spec not in table:
            raise DomainError(f"unknown series name {spec!r}; known: {sorted(table)}")
        return table[spec]
    return series_from_json(spec)
