"""Norm estimators for weighted Bloch spaces.

The norm is |f(0)| + sup_r nu(r) max_theta |f'(r e^{i theta})|.  Four
estimators approach it from different directions: a direct grid supremum, a
coefficient prefix-sum bound for nonnegative coefficients, a simplified bound
for monotone coefficients, and a smooth dyadic-block bound.  Each returns a
NormEstimate carrying its resolution and a divergence flag: the shared trend
verdict on its ladder, so the flag follows from the fitted log-log slope.

The dyadic-block bound takes two steps: the weight-free block peaks of a
series (`block_peaks`), then the weighted supremum (`dyadic_block_form`), so
the peaks of one series serve every weight.  The coefficient forms split the
other way, sharing one weight profile between series.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import PreconditionError
from .series import TaylorSeries, _circle_peak, block_polynomial, sup_norm
from .trend import VERDICT_UNBOUNDED, PreparedLadder, radius_ladder, summarize_ladder
from .weights import NormalWeight

METHOD_DIRECT = "direct"
METHOD_COEFFICIENT_SUM = "coefficient_sum"
METHOD_MONOTONE = "monotone"
METHOD_DYADIC_BLOCK = "dyadic_block"


@dataclass
class NormEstimate:
    value: float
    method: str
    resolution: dict
    divergent: bool
    slope: float

    def to_dict(self) -> dict:
        return asdict(self)


def _estimate(method: str, value: float, xs, qs, resolution: dict) -> NormEstimate:
    """Attach the shared trend verdict on the ladder samples (xs, qs) to a norm value."""
    summary = summarize_ladder(xs, qs, "ladder")
    return NormEstimate(value, method, resolution, summary.verdict == VERDICT_UNBOUNDED, summary.log_slope)


def norm_direct(f: TaylorSeries, w: NormalWeight, radial_depth: int = 12) -> NormEstimate:
    """Grid supremum of nu |f'| over dyadic radii, polished by a local 1-d search.

    Nonnegative coefficients need only the positive axis.  Otherwise each
    radius takes one FFT of k a_k r^(k-1) on M equispaced angles, M the larger
    of 256 and the power of two at or above 8 times the degree, so the circle
    maximum is resolved at every degree.  Real coefficients take a real-input
    FFT, which holds the same maximum by conjugate symmetry; complex ones take
    the full transform.  The local search around the best rung recovers
    interior maxima that dyadic rungs straddle.
    """
    df = f.derivative()
    radii = np.concatenate([[0.0], radius_ladder(radial_depth)])
    degree = f.degree

    if f.has_nonnegative_coefficients:
        angles = 1
        amplitude = lambda r: np.abs(df(np.asarray(r, dtype=float)))  # noqa: E731
    else:
        angles = max(256, 1 << (8 * degree - 1).bit_length())
        slopes = df.coefficients[: max(degree, 1)]
        exponents = np.arange(len(slopes), dtype=float)

        def amplitude(r):
            r = np.asarray(r, dtype=float)
            flat = [_circle_peak(slopes * rho**exponents, angles) for rho in r.reshape(-1)]
            return np.asarray(flat).reshape(r.shape)

    profile = np.asarray(w.value(radii), dtype=float) * amplitude(radii)
    best = int(np.argmax(profile))
    peak = float(profile[best])

    # With f' = 0 the profile is 0 at every radius, so there is nothing to polish.
    if degree and len(radii) > 1:
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
    value = float(np.abs(f.coefficients[0])) + peak
    return _estimate(METHOD_DIRECT, value, xs, trend_profile, {"radial_depth": radial_depth, "angles": angles})


def _require_nonnegative(f: TaylorSeries, who: str) -> np.ndarray:
    if not f.has_nonnegative_coefficients:
        raise PreconditionError(f"{who} needs real nonnegative coefficients")
    return f.coefficients


class WeightProfile(NamedTuple):
    """nu(1 - 1/n) over n = 1..n_max for one weight, with the index ladder prepared for trend fits."""

    ns: np.ndarray
    nu: np.ndarray
    ladder: PreparedLadder


def weight_profile(w: NormalWeight, n_max: int) -> WeightProfile:
    """The weight side of the coefficient forms at truncation n_max, shared by every series of that truncation."""
    ns = np.arange(1, n_max + 1, dtype=float)
    return WeightProfile(ns, np.asarray(w.value_from_gap(1.0 / ns), dtype=float), PreparedLadder(ns))


def _coefficient_form(f: TaylorSeries, profile: WeightProfile, method: str, form) -> NormEstimate:
    """a_0 + max_n q_n with q = form(n, nu(1-1/n), a_n) over n = 1..truncation."""
    a = f.coefficients
    n_max = max(f.truncation, 1)
    if len(profile.ns) != n_max:
        raise PreconditionError(f"a weight profile to {len(profile.ns)} does not fit a series truncated at {n_max}")
    q = form(profile.ns, profile.nu, a[1 : n_max + 1])
    value = float(a[0] + np.max(q)) if len(q) else float(a[0])
    return _estimate(method, value, profile.ladder, q, {"n_max": n_max})


def coefficient_sum_form(f: TaylorSeries, profile: WeightProfile) -> NormEstimate:
    """norm_coefficient_sum on a weight profile built at f's truncation."""
    _require_nonnegative(f, "the coefficient-sum estimator")
    return _coefficient_form(f, profile, METHOD_COEFFICIENT_SUM, lambda ns, nu, a: nu * np.cumsum(a * ns))


def monotone_form(f: TaylorSeries, profile: WeightProfile) -> NormEstimate:
    """norm_monotone on a weight profile built at f's truncation."""
    a = _require_nonnegative(f, "the monotone estimator")
    if np.any(np.diff(a) > 1e-15 * (1.0 + np.abs(a[:-1]))):
        raise PreconditionError("the monotone estimator needs non-increasing coefficients")
    return _coefficient_form(f, profile, METHOD_MONOTONE, lambda ns, nu, a: ns**2 * nu * a)


def norm_coefficient_sum(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """a_0 + sup_n nu(1-1/n) * sum_{k<=n} k a_k for nonnegative coefficients, n up to the truncation."""
    return coefficient_sum_form(f, weight_profile(w, max(f.truncation, 1)))


def norm_monotone(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """a_0 + sup_n n^2 nu(1-1/n) a_n for nonnegative non-increasing coefficients, n up to the truncation."""
    return monotone_form(f, weight_profile(w, max(f.truncation, 1)))


def block_peaks(f: TaylorSeries) -> np.ndarray:
    """|block_n * f|_inf for blocks n <= depth, the fewest covering the truncation; the weight-free step.

    A block whose support [2^(n-1), 2^(n+1)) ([0, 2) for n = 0) holds no
    nonzero coefficient of f has the zero product, so it is not built and
    its peak is 0.  Every block has nonnegative coefficients, so when f has
    them too each product peaks at z = 1, where it is the sum of its
    coefficients; signed and complex series take `sup_norm`.
    """
    depth = max(f.truncation.bit_length() - 1, 0)
    a = f.coefficients
    peak = np.sum if f.has_nonnegative_coefficients else sup_norm
    return np.array(
        [peak(block_polynomial(n).hadamard(f)) if np.any(a[(1 << n) >> 1 : 2 << n]) else 0.0 for n in range(depth + 1)]
    )


def dyadic_block_form(peaks: np.ndarray, w: NormalWeight) -> NormEstimate:
    """sup_n nu(1-2^{-n}) 2^n peaks[n] with its trend verdict: the weighted step of norm_dyadic_blocks."""
    depth = len(peaks) - 1
    qs = np.array([(float(w.value_from_gap(2.0**-n)) if n else 1.0) * 2.0**n * peak for n, peak in enumerate(peaks)])
    xs = 2.0 ** np.arange(depth + 1)
    return _estimate(METHOD_DYADIC_BLOCK, float(np.max(qs)), xs, qs, {"depth": depth, "blocks": depth + 1})


def norm_dyadic_blocks(f: TaylorSeries, w: NormalWeight) -> NormEstimate:
    """sup_n nu(1-2^{-n}) 2^n |block_n * f|_inf over blocks n <= depth, the fewest covering the truncation.

    Two steps: the weight-free `block_peaks(f)`, then `dyadic_block_form`,
    which applies the weight; a caller with several weights runs the first
    step once.
    """
    return dyadic_block_form(block_peaks(f), w)


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
