"""Ladders, growth-trend slopes, and the shared bounded/unbounded verdict policy.

Quantities probed here are suprema over a growth parameter x (either 1/(1-t)
on a radius ladder or an index n).  No finite sample can certify a supremum,
so every criterion reports a trend fitted on the deepest half of its ladder
and maps it to a verdict with frozen thresholds.  Two regressors are fitted:
against log x, which resolves power-rate growth, and against log log x, which
is what separates slowly divergent (logarithmic) quantities from convergent
ones on reachable ladders.  The verdict uses the log-log slope; both slopes
are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    positive quantity short-circuits to an infinite slope.
    """
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if np.any(np.isinf(qs) & (qs > 0)):
        return TrendSummary(np.inf, np.inf, 0)
    mask = np.isfinite(qs) & (qs > 0) & (xs > 1.0)
    idx = np.nonzero(mask)[0]
    if len(idx) < 2:
        return TrendSummary(0.0, 0.0, len(idx))
    deep = idx[xs[idx] >= np.sqrt(np.max(xs[idx]))]
    window = deep if len(deep) >= 2 else idx[-2:]
    lx = np.log(xs[window])
    lq = np.log(qs[window])
    slope = float(np.polyfit(lx, lq, 1)[0])
    log_slope = float(np.polyfit(np.log(lx), lq, 1)[0])
    return TrendSummary(slope, log_slope, len(window))


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
        return {
            "quantity": self.quantity,
            "sup_value": self.sup_value,
            "attained_at": self.attained_at,
            "slope": self.slope,
            "log_slope": self.log_slope,
            "verdict": self.verdict,
            "details": self.details,
        }


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
