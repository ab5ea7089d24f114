"""Ladders, growth-trend slopes, and the shared bounded/unbounded verdict policy.

Quantities probed here are suprema over a growth parameter x (either 1/(1-t)
on a radius ladder or an index n).  No finite sample can certify a supremum,
so every criterion reports a trend fitted on the deepest half of its ladder
and maps it to a verdict with frozen thresholds.  Two regressors are fitted:
against log x, which resolves power-rate growth, and against log log x, which
is what separates slowly divergent (logarithmic) quantities from convergent
ones on reachable ladders.  The verdict uses the log-log slope; both slopes
are reported.  Each slope is the centred least-squares slope in closed form,
sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), with log q centred once
for both regressors; a window whose x or q is flat reads slope 0.0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericsError

BOUNDED_MAX_SLOPE = 0.05
UNBOUNDED_MIN_SLOPE = 0.15

VERDICT_BOUNDED = "bounded"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_INCONCLUSIVE = "inconclusive"


def radius_ladder(depth: int = 24) -> np.ndarray:
    """Radii 1 - 2^{-m} for m = 1..depth."""
    return 1.0 - 2.0 ** -np.arange(1, depth + 1, dtype=float)


def index_ladder(n_max: int = 2**20) -> np.ndarray:
    """Indices {1..16} plus powers of two up to n_max."""
    small = np.arange(1, min(16, n_max) + 1)
    if n_max >= 32:
        powers = 2 ** np.arange(5, int(np.floor(np.log2(n_max))) + 1)
        return np.concatenate([small, powers]).astype(np.int64)
    return small.astype(np.int64)


@dataclass
class TrendSummary:
    slope: float
    log_slope: float
    window: int


def trend_slopes(xs, qs) -> TrendSummary:
    """Least-squares growth slopes of q over the deepest half of the ladder.

    The window is the deepest half in log-scale, x >= sqrt(x_max), so dense
    small-x rungs cannot crowd out the asymptotic regime.  Non-positive or
    non-finite entries are excluded before the window is cut; an infinite
    positive quantity short-circuits to an infinite slope.  A deep half of
    fewer than two rungs falls back to the last two usable rungs.
    """
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if np.any(np.isinf(qs) & (qs > 0)):
        return TrendSummary(np.inf, np.inf, 0)
    mask = np.isfinite(qs) & (qs > 0) & (xs > 1.0)
    usable = int(np.count_nonzero(mask))
    if usable < 2:
        return TrendSummary(0.0, 0.0, usable)
    window = mask & (xs >= np.sqrt(np.max(xs, where=mask, initial=-np.inf)))
    if np.count_nonzero(window) < 2:
        window = np.nonzero(mask)[0][-2:]
    lx = np.log(xs[window])
    lq = np.log(qs[window])
    lq -= lq.mean()
    if np.ptp(lq) == 0.0:
        return TrendSummary(0.0, 0.0, len(lq))
    return TrendSummary(_slope(lx, lq), _slope(np.log(lx), lq), len(lq))


def _slope(x: np.ndarray, y_centred: np.ndarray) -> float:
    """Least-squares slope sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), or 0.0 where x is flat.

    A flat y is the caller's to test: centred, it can be off zero by an ulp.
    """
    if np.ptp(x) == 0.0:
        return 0.0
    x_centred = x - x.mean()
    # np.sum of the products, not np.dot: a BLAS dot splits long vectors by thread count.
    products = np.multiply(x_centred, y_centred)
    cross = np.sum(products)
    np.multiply(x_centred, x_centred, out=products)
    return float(cross / np.sum(products))


def verdict_from_trend(trend: TrendSummary) -> str:
    if trend.log_slope >= UNBOUNDED_MIN_SLOPE:
        return VERDICT_UNBOUNDED
    if trend.log_slope <= BOUNDED_MAX_SLOPE:
        return VERDICT_BOUNDED
    return VERDICT_INCONCLUSIVE


@dataclass
class CriterionResult:
    """Outcome of probing sup_x q(x) over a ladder."""

    quantity: str
    sup_value: float
    attained_at: float
    slope: float
    log_slope: float
    verdict: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def summarize_ladder(xs, qs, quantity: str, details: dict | None = None) -> CriterionResult:
    """Build a CriterionResult from ladder samples of a quantity.

    A sample of +-inf reads as unbounded; a NaN sample is no reading at all and
    raises NumericsError.
    """
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if np.isnan(qs).any():
        raise NumericsError(f"ladder of {quantity} has a NaN sample")
    trend = trend_slopes(xs, qs)
    verdict = verdict_from_trend(trend)
    finite = np.isfinite(qs)
    if np.any(finite):
        i = int(np.argmax(np.where(finite, qs, -np.inf)))
        sup_value, attained_at = float(qs[i]), float(xs[i])
    else:
        sup_value, attained_at = np.inf, float(xs[-1])
    if np.any(~finite):
        verdict = VERDICT_UNBOUNDED
        sup_value = np.inf
    return CriterionResult(
        quantity=quantity,
        sup_value=sup_value,
        attained_at=attained_at,
        slope=trend.slope,
        log_slope=trend.log_slope,
        verdict=verdict,
        details=details or {},
    )
