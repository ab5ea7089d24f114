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
for both regressors; a window whose x or q is flat reads slope 0.0.  A
ladder fitted against many quantities is prepared once (``PreparedLadder``):
its window and x side serve every q that is usable on all its rungs x > 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, NumericsError

BOUNDED_MAX_SLOPE = 0.05
UNBOUNDED_MIN_SLOPE = 0.15

VERDICT_BOUNDED = "bounded"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_INCONCLUSIVE = "inconclusive"


def radius_ladder(depth: int = 24) -> np.ndarray:
    """Radii 1 - 2^{-m} for m = 1..depth."""
    return 1.0 - 2.0 ** -np.arange(1, depth + 1, dtype=float)


def index_ladder(n_max: int = 2**20) -> np.ndarray:
    """Indices {1..16} plus powers of two up to n_max; n_max must stay below 2^63, the int64 range."""
    if n_max >= 2**63:
        raise DomainError(f"n_max must be below 2^63, got {n_max}")
    small = np.arange(1, min(16, n_max) + 1)
    if n_max >= 32:
        powers = 2 ** np.arange(5, int(n_max).bit_length())
        return np.concatenate([small, powers]).astype(np.int64)
    return small.astype(np.int64)


@dataclass
class TrendSummary:
    slope: float
    log_slope: float
    window: int


def _regressor(x: np.ndarray):
    """(x - mean x, its sum of squares), or None where x is flat (its slope reads 0.0)."""
    if np.ptp(x) == 0.0:
        return None
    centred = x - x.mean()
    return centred, np.sum(centred * centred)


def _slope(regressor, y_centred: np.ndarray) -> float:
    """Least-squares slope sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), or 0.0 where x is flat.

    ``regressor`` is ``_regressor(x)``.  A flat y is the caller's to test:
    centred, it can be off zero by an ulp.
    """
    if regressor is None:
        return 0.0
    centred, sum_sq = regressor
    # np.sum of the products, not np.dot: a BLAS dot splits long vectors by thread count.
    return float(np.sum(centred * y_centred) / sum_sq)


def _deep_window(xs: np.ndarray, mask: np.ndarray):
    """The rungs of mask with x >= sqrt(max x over mask), or its last two rungs when fewer reach that."""
    window = mask & (xs >= np.sqrt(np.max(xs, where=mask, initial=-np.inf)))
    if np.count_nonzero(window) < 2:
        window = np.nonzero(mask)[0][-2:]
    return window


def _x_side(xs: np.ndarray, window) -> tuple:
    """The two regressors on a window: log x and log log x."""
    lx = np.log(xs[window])
    return _regressor(lx), _regressor(np.log(lx))


def _fit(x_side, qs: np.ndarray, window) -> TrendSummary:
    lq = np.log(qs[window])
    lq -= lq.mean()
    if np.ptp(lq) == 0.0:
        return TrendSummary(0.0, 0.0, len(lq))
    return TrendSummary(_slope(x_side[0], lq), _slope(x_side[1], lq), len(lq))


class PreparedLadder:
    """A ladder's x side, fitted once for every q that is finite and positive on all rungs x > 1.

    Such a q has the usable mask x > 1, so it shares one window and one pair
    of centred regressors with their sums of squares.  ``trend_slopes`` and
    ``summarize_ladder`` take a prepared ladder in place of its ``xs`` and
    give the same bits as on ``xs``; a q usable on fewer rungs takes the
    plain path.
    """

    def __init__(self, xs):
        self.xs = np.asarray(xs, dtype=float)
        self.rungs = self.xs > 1.0
        # Fewer than two rungs x > 1 leave nothing to prepare: every q takes the plain path.
        self.window = _deep_window(self.xs, self.rungs) if np.count_nonzero(self.rungs) >= 2 else None
        self.x_side = None if self.window is None else _x_side(self.xs, self.window)


def _unpack(xs) -> tuple[np.ndarray, PreparedLadder | None]:
    if isinstance(xs, PreparedLadder):
        return xs.xs, xs
    return np.asarray(xs, dtype=float), None


def trend_slopes(xs, qs) -> TrendSummary:
    """Least-squares growth slopes of q over the deepest half of the ladder.

    The window is the deepest half in log-scale, x >= sqrt(x_max), so dense
    small-x rungs cannot crowd out the asymptotic regime.  Non-positive or
    non-finite entries are excluded before the window is cut; an infinite
    positive quantity short-circuits to an infinite slope.  A deep half of
    fewer than two rungs falls back to the last two usable rungs.  ``xs`` is
    an array or a ``PreparedLadder``.
    """
    xs, prepared = _unpack(xs)
    qs = np.asarray(qs, dtype=float)
    return _trend(xs, prepared, qs, np.isfinite(qs))


def _trend(xs, prepared, qs, finite) -> TrendSummary:
    """trend_slopes given the finiteness scan of qs."""
    if not finite.all() and np.any(qs[~finite] > 0):
        return TrendSummary(np.inf, np.inf, 0)
    # A NaN or -inf on a rung x > 1 fails the test too: min gives NaN or -inf.
    if prepared is not None and prepared.window is not None and np.min(qs, where=prepared.rungs, initial=np.inf) > 0.0:
        return _fit(prepared.x_side, qs, prepared.window)
    mask = finite & (qs > 0) & (xs > 1.0)
    usable = int(np.count_nonzero(mask))
    if usable < 2:
        return TrendSummary(0.0, 0.0, usable)
    window = _deep_window(xs, mask)
    return _fit(_x_side(xs, window), qs, window)


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

    ``xs`` is an array or a ``PreparedLadder``.  A sample of +-inf reads as
    unbounded; a NaN sample is no reading at all and raises NumericsError.
    An empty ladder has no supremum and raises DomainError.
    """
    xs, prepared = _unpack(xs)
    qs = np.asarray(qs, dtype=float)
    if len(xs) == 0:
        raise DomainError(f"ladder of {quantity} has no rungs")
    finite = np.isfinite(qs)
    all_finite = bool(finite.all())
    if not all_finite and np.isnan(qs[~finite]).any():
        raise NumericsError(f"ladder of {quantity} has a NaN sample")
    trend = _trend(xs, prepared, qs, finite)
    verdict = verdict_from_trend(trend)
    if np.any(finite):
        i = int(np.argmax(qs if all_finite else np.where(finite, qs, -np.inf)))
        sup_value, attained_at = float(qs[i]), float(xs[i])
    else:
        sup_value, attained_at = np.inf, float(xs[-1])
    if not all_finite:
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
