"""Norm estimators for weighted Bloch spaces.

The norm is |f(0)| + sup_r nu(r) max_theta |f'(r e^{i theta})|.  Four
estimators approach it from different directions: a direct grid supremum, a
coefficient prefix-sum bound for nonnegative coefficients, a simplified bound
for monotone coefficients, and a smooth dyadic-block bound.  Each returns a
NormEstimate carrying its resolution and a divergence flag backed by the
shared trend policy plus a 10x growth check across the deepest quarter of the
ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import PreconditionError
from .series import TaylorSeries, block_polynomial, sup_norm
from .trend import VERDICT_UNBOUNDED, radius_ladder, summarize_ladder
from .weights import NormalWeight, growth_gauge_from_gaps

DIVERGENCE_GROWTH_FACTOR = 10.0

METHOD_DIRECT = "direct"
METHOD_COEFFICIENT_SUM = "coefficient_sum"
METHOD_MONOTONE = "monotone"
METHOD_DYADIC_BLOCK = "dyadic_block"


@dataclass
class NormEstimate:
    value: float
    method: str
    resolution: dict = field(default_factory=dict)
    divergent: bool = False
    slope: float | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "resolution": self.resolution,
            "divergent": self.divergent,
            "slope": self.slope,
        }


def _divergence(xs, qs) -> tuple[bool, float]:
    """Trend verdict plus a 10x growth check across the deepest quarter."""
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    summary = summarize_ladder(xs, qs, "ladder")
    flag = summary.verdict == VERDICT_UNBOUNDED
    pos = np.nonzero(qs > 0)[0]
    if len(pos) >= 2:
        deep = pos[-1]
        earlier = pos[xs[pos] <= xs[deep] / 4.0]
        if len(earlier) and qs[deep] > DIVERGENCE_GROWTH_FACTOR * qs[earlier[-1]]:
            flag = True
    return flag, summary.log_slope


def norm_direct(f: TaylorSeries, w: NormalWeight, radial_depth: int = 12) -> NormEstimate:
    """Grid supremum of nu |f'| over dyadic radii, polished by a local 1-d search.

    Nonnegative coefficients need only the positive axis.  Otherwise each
    radius takes one FFT of k a_k r^(k-1) on M equispaced angles, M the larger
    of 256 and the power of two at or above 8 times the degree, so the circle
    maximum is resolved at every degree.  The local search around the best
    rung recovers interior maxima that dyadic rungs straddle.
    """
    df = f.derivative()
    radii = np.concatenate([[0.0], radius_ladder(radial_depth)])
    nonzero = np.nonzero(np.abs(f.coefficients) > 0.0)[0]
    degree = int(nonzero[-1]) if len(nonzero) else 0

    if f.has_nonnegative_coefficients:
        angles = 1
        amplitude = lambda r: np.abs(df(np.asarray(r, dtype=float)))  # noqa: E731
    else:
        angles = max(256, 1 << (8 * degree - 1).bit_length())
        slopes = df.coefficients[: max(degree, 1)]
        exponents = np.arange(len(slopes), dtype=float)

        def amplitude(r):
            r = np.asarray(r, dtype=float)
            flat = [np.abs(np.fft.fft(slopes * rho**exponents, angles)).max() for rho in r.reshape(-1)]
            return np.asarray(flat).reshape(r.shape)

    profile = np.asarray(w.value(radii), dtype=float) * amplitude(radii)
    best = int(np.argmax(profile))
    peak = float(profile[best])

    if len(radii) > 1:
        lo = radii[best - 1] if best > 0 else 0.0
        hi = radii[best + 1] if best + 1 < len(radii) else 1.0 - 2.0 ** -(radial_depth + 1)
        if hi > lo:
            res = minimize_scalar(
                lambda r: -float(w.value(r) * amplitude(np.asarray([r]))[0]),
                bounds=(lo, hi),
                method="bounded",
                options={"xatol": 1e-12},
            )
            peak = max(peak, -float(res.fun))

    # Rungs with 1/(1-r) beyond the (effective) degree see a saturated
    # derivative, not growth; drop them from the trend for deep truncations.
    xs, trend_profile = 1.0 / (1.0 - radii[1:]), profile[1:]
    if degree > 256:
        keep = xs <= degree
        if np.count_nonzero(keep) >= 2:
            xs, trend_profile = xs[keep], trend_profile[keep]
    divergent, slope = _divergence(xs, trend_profile)
    value = float(np.abs(f(0.0))) + peak
    return NormEstimate(value, METHOD_DIRECT, {"radial_depth": radial_depth, "angles": angles}, divergent, slope)


def _require_nonnegative(f: TaylorSeries, who: str) -> np.ndarray:
    if not f.has_nonnegative_coefficients:
        raise PreconditionError(f"{who} needs real nonnegative coefficients")
    return f.coefficients


def norm_coefficient_sum(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """a_0 + sup_n nu(1-1/n) * sum_{k<=n} k a_k for nonnegative coefficients, n up to the truncation."""
    a = _require_nonnegative(f, "the coefficient-sum estimator")
    n_max = max(f.truncation, 1)
    ns = np.arange(1, n_max + 1, dtype=float)
    prefix = np.cumsum(a[1 : n_max + 1] * np.arange(1, n_max + 1))
    nu = np.asarray(w.value_from_gap(1.0 / ns), dtype=float)
    q = nu * prefix
    divergent, slope = _divergence(ns, q)
    return NormEstimate(
        float(a[0] + np.max(q)) if len(q) else float(a[0]),
        METHOD_COEFFICIENT_SUM,
        {"n_max": int(n_max)},
        divergent,
        slope,
    )


def norm_monotone(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """a_0 + sup_n n^2 nu(1-1/n) a_n for nonnegative non-increasing coefficients, n up to the truncation."""
    a = _require_nonnegative(f, "the monotone estimator")
    if np.any(np.diff(a) > 1e-15 * (1.0 + np.abs(a[:-1]))):
        raise PreconditionError("the monotone estimator needs non-increasing coefficients")
    n_max = max(f.truncation, 1)
    ns = np.arange(1, n_max + 1, dtype=float)
    nu = np.asarray(w.value_from_gap(1.0 / ns), dtype=float)
    q = ns**2 * nu * a[1 : n_max + 1]
    divergent, slope = _divergence(ns, q)
    return NormEstimate(
        float(a[0] + np.max(q)) if len(q) else float(a[0]),
        METHOD_MONOTONE,
        {"n_max": int(n_max)},
        divergent,
        slope,
    )


def norm_dyadic_blocks(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """sup_n nu(1-2^{-n}) 2^n |block_n * f|_inf over the covering block range."""
    n_max = f.truncation
    depth = 0
    while 2 ** (depth + 1) - 1 < n_max:
        depth += 1
    terms = []
    for n in range(depth + 1):
        block = block_polynomial(n)
        if block.offset > n_max:
            break
        vals = block.hadamard(f)
        nu = float(w.value_from_gap(2.0**-n)) if n else 1.0
        terms.append(nu * 2.0**n * sup_norm(vals))
    terms_arr = np.asarray(terms)
    divergent, slope = _divergence(2.0 ** np.arange(len(terms_arr)), terms_arr)
    return NormEstimate(
        float(np.max(terms_arr)),
        METHOD_DYADIC_BLOCK,
        {"depth": int(depth), "blocks": len(terms)},
        divergent,
        slope,
    )


_METHODS = {
    METHOD_DIRECT: norm_direct,
    METHOD_COEFFICIENT_SUM: norm_coefficient_sum,
    METHOD_MONOTONE: norm_monotone,
    METHOD_DYADIC_BLOCK: norm_dyadic_blocks,
}


def bloch_norm(f: TaylorSeries, w: NormalWeight, method: str = METHOD_DIRECT) -> NormEstimate:
    """Dispatch to one of the norm estimators by name."""
    try:
        fn = _METHODS[method]
    except KeyError:
        raise PreconditionError(f"unknown norm method {method!r}; choose from {sorted(_METHODS)}") from None
    return fn(f, w)


def growth_envelope_ratio(f: TaylorSeries, w: NormalWeight, radial_depth: int = 12) -> float:
    """sup over dyadic radii of |f(r)| / ((gauge(r) + 1) * norm).

    The pointwise growth of a Bloch-space function is controlled by the gauge
    integral of 1/nu; the returned constant measures how tightly f sits under
    that envelope.
    """
    norm_value = norm_direct(f, w, radial_depth=radial_depth).value
    radii = np.concatenate([[0.0], radius_ladder(radial_depth)])
    gauges = growth_gauge_from_gaps(w, 1.0 - radii)
    values = np.abs(np.asarray(f(radii), dtype=complex))
    return float(np.max(values / ((gauges + 1.0) * norm_value)))
