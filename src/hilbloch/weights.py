"""Normal radial weights on [0, 1) and the estimates attached to them.

A weight here is a positive function nu on [0, 1), normalized to nu(0) = 1,
together with declared exponents 0 < a <= b such that nu(s)/(1-s^2)^a is
almost decreasing and nu(s)/(1-s^2)^b is almost increasing.  Evaluation is
routed through the gap 1-r so the deep end of the interval keeps full
precision.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, NumericsError, require_number
from .quadrature import integrate_radial, integrate_segments, integrate_tail
from .trend import _regressor, _slope

# Dyadic grid depth and ceiling used when validating normality.
NORMALITY_GRID_DEPTH = 20
NORMALITY_CEILING = 1e3


def _dyadic_gaps(depth: int) -> np.ndarray:
    return 2.0 ** -np.arange(0, depth + 1)


class NormalWeight:
    """A normal weight with declared almost-monotonicity exponents a <= b.

    Each constructor below supplies its weight's formula as a function of the
    gap 1 - r, its label, and the kind and parameters of its JSON descriptor.
    """

    def __init__(self, label: str, from_gap: Callable, a: float, b: float, kind: str, params: dict):
        if not (0.0 < a <= b):
            raise ConstructionError(f"exponents must satisfy 0 < a <= b, got a={a}, b={b}")
        self.label = label
        self.a = float(a)
        self.b = float(b)
        self._from_gap = from_gap
        self._descriptor = {"kind": kind, "a": self.a, "b": self.b, **params}

    def value_from_gap(self, gap):
        """nu at r = 1 - gap, evaluated directly from the gap for deep radii."""
        gap = np.asarray(gap, dtype=float)
        if ((gap <= 0) | (gap > 1)).any():
            raise DomainError("gap must lie in (0, 1]")
        out = self._from_gap(gap)
        return out if out.shape else float(out)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if ((r < 0) | (r >= 1)).any():
            raise DomainError("radius must lie in [0, 1)")
        return self.value_from_gap(1.0 - r)

    def __repr__(self) -> str:
        return f"NormalWeight<{self.label}, a={self.a:g}, b={self.b:g}>"


# -- constructors -------------------------------------------------------


def power_weight(gamma: float, a: float | None = None, b: float | None = None) -> NormalWeight:
    """nu(r) = (1-r^2)^gamma with gamma > 0."""
    if gamma <= 0:
        raise ConstructionError(f"power weight needs gamma > 0, got {gamma}")
    gamma = float(gamma)
    a, b = (gamma if v is None else v for v in (a, b))

    def from_gap(gap):
        x = gap * (2.0 - gap)  # 1 - r^2
        return x**gamma

    return NormalWeight(f"power({gamma:g})", from_gap, a, b, "power", {"gamma": gamma})


def power_log_weight(t: float, delta: float, a: float | None = None, b: float | None = None) -> NormalWeight:
    """nu(r) = (1-r^2)^t * log^delta(e/(1-r^2)) with t > 0."""
    if t <= 0:
        raise ConstructionError(f"power_log weight needs t > 0, got {t}")
    if a is None:
        a = t / 2.0 if t <= 1.0 else t - 0.5
    if b is None:
        b = t if delta >= 0 else t + 0.5
    t, delta = float(t), float(delta)

    def from_gap(gap):
        x = gap * (2.0 - gap)  # 1 - r^2
        return x**t * (1.0 - np.log(x)) ** delta

    return NormalWeight(f"power_log(t={t:g},delta={delta:g})", from_gap, a, b, "power_log", {"t": t, "delta": delta})


def log_power_weight(beta: float, a: float | None = None, b: float | None = None) -> NormalWeight:
    """nu(r) = (1-r^2) * log^{-beta}(e/(1-r^2)); beta = 0 is the classic Bloch weight."""
    if a is None:
        a = 1.0 if beta >= 0 else 0.5
    if b is None:
        b = 1.0 if beta <= 0 else 1.5
    beta = float(beta)

    def from_gap(gap):
        x = gap * (2.0 - gap)  # 1 - r^2
        return x * (1.0 - np.log(x)) ** (-beta)

    return NormalWeight(f"log_power({beta:g})", from_gap, a, b, "log_power", {"beta": beta})


def table_weight(samples: Sequence[Sequence[float]], a: float, b: float) -> NormalWeight:
    """Piecewise-linear weight through (r, nu) samples; rescaled so nu(0) = 1."""
    try:
        arr = np.asarray(samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"samples must be numeric (r, nu) pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConstructionError("samples must be a sequence of (r, nu) pairs")
    rs, vs = arr[:, 0], arr[:, 1]
    if len(rs) < 2:
        raise ConstructionError("table weight needs at least two (r, nu) samples")
    if not (np.all(np.isfinite(rs)) and np.all(np.isfinite(vs))):
        raise ConstructionError("table samples must be finite")
    if rs[0] != 0.0:
        raise ConstructionError("table samples must start at r = 0")
    if np.any(np.diff(rs) <= 0) or rs[-1] >= 1.0:
        raise ConstructionError("table radii must increase strictly within [0, 1)")
    if np.any(vs <= 0):
        raise ConstructionError("table weight values must be positive")
    vs = vs / vs[0]

    def from_gap(gap):
        r = 1.0 - gap
        if np.any(r > rs[-1] + 1e-15):
            raise DomainError(f"table weight sampled only up to r = {rs[-1]}")
        return np.interp(r, rs, vs)

    samples = [[float(r), float(v)] for r, v in zip(rs, vs)]
    return NormalWeight(f"table[{len(rs)}]", from_gap, a, b, "table", {"samples": samples})


# -- JSON interface -----------------------------------------------------

# Required keys per kind; "a" and "b" are optional for every kind but "table".
_JSON_PARAMS = {
    "power": ("gamma",),
    "power_log": ("t", "delta"),
    "log_power": ("beta",),
    "table": ("samples",),
}


def weight_from_json(doc: dict) -> NormalWeight:
    """Build a weight from its JSON descriptor; malformed descriptors raise ConstructionError."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConstructionError("weight descriptor must be an object with a 'kind' key")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _JSON_PARAMS:
        raise ConstructionError(f"unknown weight kind {kind!r}")
    params = _JSON_PARAMS[kind]
    extra = set(doc) - {"kind", "a", "b", *params}
    if extra:
        raise ConstructionError(f"unknown keys in weight descriptor: {sorted(extra)}")
    missing = [key for key in params if key not in doc]
    if missing:
        raise ConstructionError(f"{kind} weight descriptor lacks the key {missing[0]!r}")
    a, b = (None if doc.get(key) is None else require_number(doc[key], key) for key in ("a", "b"))
    if kind == "table":
        if a is None or b is None:
            raise ConstructionError("table weights need explicit a and b")
        return table_weight(doc["samples"], a, b)
    factory = {"power": power_weight, "power_log": power_log_weight, "log_power": log_power_weight}[kind]
    return factory(*(require_number(doc[key], key) for key in params), a, b)


def weight_to_json(w: NormalWeight) -> dict:
    return copy.deepcopy(w._descriptor)


# -- normality ----------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    c_decreasing: float
    c_increasing: float
    ceiling: float
    grid_depth: int
    passed: bool


def normality_check(w: NormalWeight) -> NormalityReport:
    """Measure almost-monotonicity constants of nu/(1-r^2)^a and nu/(1-r^2)^b on a dyadic grid.

    The decreasing constant is the largest later-to-earlier ratio of
    nu/(1-r^2)^a, the increasing constant the largest earlier-to-later ratio
    of nu/(1-r^2)^b; both must stay below NORMALITY_CEILING for the declared
    exponents to be consistent with the samples on gaps 2^0..2^-NORMALITY_GRID_DEPTH.
    """
    gaps = _dyadic_gaps(NORMALITY_GRID_DEPTH)
    x = gaps * (2.0 - gaps)
    nu = np.asarray(w.value_from_gap(gaps), dtype=float)
    h_dec = nu / x**w.a
    h_inc = nu / x**w.b
    c_dec = float(np.max(h_dec / np.minimum.accumulate(h_dec)))
    c_inc = float(np.max(np.maximum.accumulate(h_inc) / h_inc))
    passed = c_dec <= NORMALITY_CEILING and c_inc <= NORMALITY_CEILING
    return NormalityReport(c_dec, c_inc, NORMALITY_CEILING, NORMALITY_GRID_DEPTH, passed)


# -- growth gauge: cumulative integral of 1/nu --------------------------


def growth_gauge(w: NormalWeight, t: float) -> float:
    """Integral of 1/nu over [0, t]; t = 1 is allowed and may return inf.

    At t = 1 the integral runs to the endpoint with the geometric tail
    remainder, and a tail the integrator cannot exhaust (NumericsError) reads
    as a divergent gauge.
    """
    if t < 0 or t > 1:
        raise DomainError("gauge argument must lie in [0, 1]")
    if t == 0:
        return 0.0

    def inv_nu(tt, omt):
        return 1.0 / np.asarray(w.value_from_gap(omt), dtype=float)

    if t < 1.0:
        return integrate_radial(inv_nu, 0.0, t)
    try:
        return integrate_radial(inv_nu, 0.0, 1.0, extrapolate=True)
    except NumericsError:
        return math.inf


_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def growth_gauge_from_gaps(w: NormalWeight, gaps: Sequence[float], rel_tol: float = 1e-11) -> np.ndarray:
    """Gauge values at radii 1 - gap for many gaps in one cumulative sweep.

    Working from the gaps keeps deep radii exact where t itself would round
    to 1.  Segments between consecutive depths are integrated with nested
    Gauss panels, doubled until the cumulative profile stabilizes; a profile
    still moving at 2^10 panels per segment raises NumericsError.
    """
    gaps = np.asarray(gaps, dtype=float)
    if gaps.size == 0:
        return np.zeros(0)
    if np.any(gaps <= 0) or np.any(gaps > 1):
        raise DomainError("gaps must lie in (0, 1]")
    us = -np.log(gaps)
    order = np.argsort(us)
    edges = np.concatenate([[0.0], us[order]])
    lo, hi = edges[:-1], edges[1:]

    prev_totals = None
    for splits in 2 ** np.arange(11):
        width = (hi - lo) / splits
        sub_lo = lo[:, None] + width[:, None] * np.arange(splits)[None, :]
        half = 0.5 * width[:, None, None]
        u = sub_lo[:, :, None] + half * (1.0 + _GL8_NODES[None, None, :])
        omt = np.exp(-u)
        g = omt / np.asarray(w.value_from_gap(omt), dtype=float)
        increments = ((g * _GL8_WEIGHTS[None, None, :]).sum(axis=2) * half[:, :, 0]).sum(axis=1)
        totals = np.cumsum(increments)
        if prev_totals is not None and np.all(
            np.abs(totals - prev_totals) <= rel_tol * (np.abs(totals) + 1e-300)
        ):
            break
        prev_totals = totals
    else:
        raise NumericsError(f"gauge sweep not converged to rel_tol={rel_tol:g} with {splits} Gauss panels per segment")
    out = np.empty_like(totals)
    out[order] = totals
    return out


# -- extremal lacunary series -------------------------------------------


@dataclass
class ExtremalSeries:
    """Lacunary comparison series 1 + sum_s 2^s z^{n_s} built from a weight.

    The exponents satisfy n_s = floor(1/(1 - r_s)) where nu(r_s) = 2^{-s};
    nu(r) * value(r) stays inside [lower_bound, upper_bound] on the sampled
    grid, which is the two-sided comparison the series exists to provide.
    """

    radii: np.ndarray
    exponents: np.ndarray
    lower_bound: float
    upper_bound: float
    profile: np.ndarray = field(repr=False)

    def value(self, zeta):
        zeta = np.asarray(zeta)
        out = sum(coeff * zeta**n for n, coeff in self.coefficient_pairs())
        return out if out.shape else out[()]

    def coefficient_pairs(self) -> list[tuple[int, float]]:
        """Sparse (exponent, coefficient) view, including the constant term."""
        return [(0, 1.0)] + [(int(n), 2.0**s) for s, n in enumerate(self.exponents, start=1)]

    def antiderivative_coefficients(self) -> np.ndarray:
        """Dense coefficients of 1 + integral from 0: spans degree n_max + 1."""
        coeffs = np.zeros(int(self.exponents[-1]) + 2)
        coeffs[0] = 1.0
        for n, coeff in self.coefficient_pairs():
            coeffs[n + 1] += coeff / (n + 1)
        return coeffs


def build_extremal(w: NormalWeight, levels: int = 10) -> ExtremalSeries:
    """Construct the lacunary comparison series for a strictly decreasing weight.

    Raises ConstructionError when the weight fails to decrease through the
    needed range or a level equation nu(r_s) = 2^{-s} has no root.  All
    levels are solved together, by one bisection on y = log2(gap).
    """
    if levels < 1:
        raise ConstructionError("need at least one level")
    probe = w.value_from_gap(_dyadic_gaps(max(8, levels + 4)))
    if np.any(np.diff(probe) >= 0):
        raise ConstructionError(f"{w.label} is not strictly decreasing on the dyadic grid")
    targets = 2.0 ** -np.arange(1, levels + 1, dtype=float)
    # nu decreases, so the first gap 2^-k with nu below the deepest target brackets every level.
    y_lo = -1.0
    while w.value_from_gap(2.0**y_lo) >= targets[-1]:
        y_lo -= 1.0
        if y_lo < -1074.0:  # 2^-1074 is the smallest positive double
            raise ConstructionError(f"level s={levels}: no radius found with nu = {targets[-1]:g}")
    y_lo = np.full(levels, y_lo)
    y_hi = np.zeros(levels)  # gap = 1, nu = nu(0) = 1 > every target
    for _ in range(128):
        mid = 0.5 * (y_lo + y_hi)
        below = w.value_from_gap(2.0**mid) < targets
        y_lo = np.where(below, mid, y_lo)
        y_hi = np.where(below, y_hi, mid)
    gaps = 2.0 ** (0.5 * (y_lo + y_hi))
    if gaps[-1] <= 2.0**-63:
        raise ConstructionError(f"level s={levels}: exponent floor(1/gap) exceeds the int64 limit 2^63 - 1")
    radii = 1.0 - gaps
    exponents = np.floor(1.0 / gaps).astype(np.int64)
    if np.any(np.diff(exponents) <= 0):
        raise ConstructionError("exponents failed to increase strictly; weight decays too slowly")

    # Sample only the constructed range [0, r_levels]: beyond the deepest
    # solved radius the truncated series saturates and the profile decays.
    grid = 1.0 - np.exp(np.linspace(0.0, math.log(gaps[-1]), 4 * levels + 1))
    series = ExtremalSeries(radii, exponents, 0.0, 0.0, np.zeros_like(grid))
    series.profile = np.asarray(w.value(grid), dtype=float) * np.asarray(series.value(grid), dtype=float)
    series.lower_bound = float(np.min(series.profile))
    series.upper_bound = float(np.max(series.profile))
    return series


# -- pairwise ratio bound ------------------------------------------------


def weight_ratio_bound(w: NormalWeight, grid_depth: int = 16) -> float:
    """sup over radius pairs of [nu(r1)/nu(r2)] / [(x1/x2)^a + (x1/x2)^b], x = 1-r^2.

    Finiteness of this constant is what lets local weight comparisons move
    between radii; the value itself is a quality measure of the declared a, b.
    """
    gaps = _dyadic_gaps(grid_depth)
    x = gaps * (2.0 - gaps)
    nu = np.asarray(w.value_from_gap(gaps), dtype=float)
    ratio_nu = nu[:, None] / nu[None, :]
    ratio_x = x[:, None] / x[None, :]
    bound = ratio_x**w.a + ratio_x**w.b
    return float(np.max(ratio_nu / bound))


# -- exponential-tail integral ratio ------------------------------------


def laplace_tail_ratio(w: NormalWeight, delta: float) -> float:
    """Q(delta) = nu(1-delta) * integral over [e, inf) of e^{-delta t}/(t nu(1-1/t)) dt.

    Valid for 0 < delta < e^{-2}.  Boundedness of Q as delta shrinks is the
    quantitative content of the exponential-tail estimate; the integral is
    split at t = 1/delta and both halves are evaluated on log-transformed
    axes where they are smooth.
    """
    if not 0.0 < delta < math.exp(-2.0):
        raise DomainError(f"delta must lie in (0, e^-2), got {delta}")

    def head(v):  # t = e^v over [e, 1/delta]
        return np.exp(-delta * np.exp(v)) / np.asarray(w.value_from_gap(np.exp(-v)), dtype=float)

    head_val = integrate_segments(head, [1.0, math.log(1.0 / delta)])

    def tail(u):  # t = u/delta over [1/delta, inf)
        return np.exp(-u) / (u * np.asarray(w.value_from_gap(delta / u), dtype=float))

    tail_core = integrate_segments(tail, [1.0, 8.0])
    tail_rest = integrate_tail(tail, 8.0, scale=abs(tail_core) + abs(head_val))
    return float(w.value_from_gap(delta)) * (head_val + tail_core + tail_rest)


@dataclass(frozen=True)
class LaplaceTailReport:
    deltas: np.ndarray
    values: np.ndarray
    spread: float  # max/min over the sweep
    slope: float  # least-squares slope of log Q against log(1/delta)


def laplace_tail_sweep(w: NormalWeight, deltas: Sequence[float]) -> LaplaceTailReport:
    """Evaluate Q over a delta ladder and summarize its spread and trend."""
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    values = np.array([laplace_tail_ratio(w, d) for d in deltas])
    spread = float(np.max(values) / np.min(values))
    log_values = np.log(values)
    log_values -= log_values.mean()
    slope = 0.0 if np.ptp(log_values) == 0.0 else _slope(_regressor(np.log(1.0 / deltas)), log_values)
    return LaplaceTailReport(deltas, values, spread, slope)


# -- lacunary dyadic sum -------------------------------------------------


def dyadic_sum_ratio(w: NormalWeight, r: float, j_max: int = 60) -> float:
    """nu(r) * sum_{j>=1} r^{2^j} / nu(1-2^{-j}), for 1/2 <= r < 1.

    Terms are accumulated until they fall below machine-relative size; the
    ratio staying bounded over deep radii is the summability estimate this
    function exists to probe.
    """
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
