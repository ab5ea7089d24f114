"""Averaging operator f -> integral of f(t)/(1-tz)^(alpha+1) dmu(t) on [0, 1).

Two application modes (coefficient series and direct quadrature), the
well-definedness gate on weighted Bloch sources, the Hankel-form action on
coefficient sequences, and the boundedness criteria between weighted and
logarithmic Bloch spaces.  Criteria return CriterionResult; suprema over
unbounded index sets are decided by the shared trend policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .bloch import norm_direct
from .errors import DomainError, NumericsError, PreconditionError, require_number
from .measures import (
    RadialMeasure,
    carleson_sup,
    measure_from_json,
    measure_to_json,
    power_reweight,
)
from .series import TaylorSeries
from .trend import (
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    CriterionResult,
    index_ladder,
    summarize_ladder,
)
from .weights import NormalWeight, growth_gauge, growth_gauge_from_gaps

PROBE_STABLE_MAX = 1.1
PROBE_GROWING_MIN = 1.3

PROBE_STABLE = "stable"
PROBE_GROWING = "growing"
PROBE_INCONCLUSIVE = "inconclusive"


# -- gamma coefficient table ---------------------------------------------------


def _require_alpha(alpha: float) -> float:
    """alpha as a float; anything outside (-1, inf), NaN included, raises DomainError."""
    alpha = float(alpha)
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed -1, got {alpha}")
    return alpha


def gamma_table(n_max: int, alpha: float) -> np.ndarray:
    """Kernel coefficients c_0..c_n with c_n = c_{n-1} (n+alpha)/n, c_0 = 1."""
    alpha = _require_alpha(alpha)
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("table length must be nonnegative")
    c = np.empty(n_max + 1)
    c[0] = 1.0
    if n_max:
        ns = np.arange(1, n_max + 1, dtype=float)
        c[1:] = np.cumprod((ns + alpha) / ns)
    return c


def gamma_coefficient(n: int, alpha: float) -> float:
    n = int(n)
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    return float(gamma_table(n, alpha)[-1])


# -- operator configuration ----------------------------------------------------


@dataclass(frozen=True)
class OperatorConfig:
    """Kernel exponent, measure, output truncation, and quadrature tolerance."""

    alpha: float
    measure: RadialMeasure
    truncation: int
    rel_tol: float = 1e-10

    def __post_init__(self):
        _require_alpha(self.alpha)
        if int(self.truncation) < 1:
            raise DomainError("truncation must be at least 1")
        object.__setattr__(self, "truncation", int(self.truncation))
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must lie in (0, 1)")


_CONFIG_KEYS = {"alpha", "measure", "truncation", "rel_tol"}


def config_from_json(doc: dict) -> OperatorConfig:
    if not isinstance(doc, dict):
        raise DomainError("operator config must be an object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise DomainError(f"unknown keys in operator config: {sorted(extra)}")
    missing = {"alpha", "measure", "truncation"} - set(doc)
    if missing:
        raise DomainError(f"operator config missing keys: {sorted(missing)}")
    return OperatorConfig(
        alpha=require_number(doc["alpha"], "alpha", DomainError),
        measure=measure_from_json(doc["measure"]),
        truncation=int(require_number(doc["truncation"], "truncation", DomainError)),
        rel_tol=require_number(doc.get("rel_tol", 1e-10), "rel_tol", DomainError),
    )


def config_to_json(cfg: OperatorConfig) -> dict:
    return {
        "alpha": cfg.alpha,
        "measure": measure_to_json(cfg.measure),
        "truncation": cfg.truncation,
        "rel_tol": cfg.rel_tol,
    }


# -- well-definedness gate -------------------------------------------------------


@dataclass(frozen=True)
class WellDefinedReport:
    """Value of the source-gauge integral and whether it is finite."""

    integral: float
    finite: bool

    def to_dict(self) -> dict:
        return {"integral": self.integral, "finite": self.finite}


def well_defined_check(mu: RadialMeasure, omega: NormalWeight) -> WellDefinedReport:
    """Evaluate integral of (gauge(t)+1) dmu; finiteness gates every application.

    Divergence is a result, not an error: a non-stabilizing tail yields
    finite=False with an infinite integral field.
    """

    def fn(t, omt):
        return growth_gauge_from_gaps(omega, omt) + 1.0

    try:
        val = mu.integral(fn, rel_tol=1e-9)
    except NumericsError:
        return WellDefinedReport(math.inf, False)
    return WellDefinedReport(val, math.isfinite(val))


# -- application modes ------------------------------------------------------------


def _real_series(f: TaylorSeries, who: str) -> TaylorSeries:
    if np.iscomplexobj(f.coefficients):
        raise DomainError(f"{who} needs real Taylor coefficients")
    return f


def _image(cfg: OperatorConfig, phi, breakpoints: Sequence[float] = ()) -> TaylorSeries:
    """Output series b_n = c_n * integral of t^n phi(t) dmu, n <= truncation."""
    try:
        moments = cfg.measure.contiguous_moments(cfg.truncation, phi=phi, rel_tol=cfg.rel_tol, breakpoints=breakpoints)
    except NumericsError as exc:
        raise NumericsError(
            "weighted moments diverge; the operator is not well defined on this source"
        ) from exc
    return TaylorSeries(gamma_table(cfg.truncation, cfg.alpha) * moments)


def apply_coefficient(f: TaylorSeries, cfg: OperatorConfig) -> TaylorSeries:
    """Output series b_n = c_n * integral of t^n f(t) dmu, n <= truncation."""
    _real_series(f, "coefficient mode")
    return _image(cfg, lambda t, omt: np.asarray(f(t), dtype=float))


def sign_change_points(f: TaylorSeries) -> tuple[float, ...]:
    """Roots of f in (0, 1) where |f| has kinks; resolves roots separated by > 1/2048."""
    _real_series(f, "sign-change scan")
    grid = 2048
    ts = np.linspace(0.0, 1.0, grid + 1)
    vals = np.asarray(f(ts), dtype=float)
    roots: list[float] = []
    for i in range(grid):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(float(ts[i]))
        elif a * b < 0.0:
            roots.append(float(brentq(f, ts[i], ts[i + 1])))
    return tuple(r for r in roots if 0.0 < r < 1.0)


def apply_sublinear(f: TaylorSeries, cfg: OperatorConfig) -> TaylorSeries:
    """Companion with |f(t)| in the integrand; output coefficients are nonnegative."""
    _real_series(f, "sublinear mode")
    return _image(cfg, lambda t, omt: np.abs(np.asarray(f(t), dtype=float)), sign_change_points(f))


def apply_quadrature(f: TaylorSeries, cfg: OperatorConfig, z: complex) -> complex:
    """Direct kernel quadrature at one point; principal power of (1-tz).

    Re(1-tz) >= 1-|z| > 0 on the admissible domain, so the principal branch
    is smooth along the integration path.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("evaluation point must satisfy |z| < 1")
    power = -(cfg.alpha + 1.0)
    floor = 1e-14 * (1.0 + cfg.measure.mass)

    def part(which: str):
        def fn(t, omt):
            kern = np.exp(power * np.log(1.0 - t * z))
            return getattr(np.asarray(f(t)) * kern, which)

        return fn

    real = cfg.measure.integral(part("real"), rel_tol=cfg.rel_tol, abs_floor=floor)
    if z.imag == 0.0 and not np.iscomplexobj(f.coefficients):
        return complex(real, 0.0)
    imag = cfg.measure.integral(part("imag"), rel_tol=cfg.rel_tol, abs_floor=floor)
    return complex(real, imag)


def hankel_apply(a: Sequence[float], mu: RadialMeasure, alpha: float, n_max: int) -> TaylorSeries:
    """Hankel action out_n = c_n * sum_k mu_{n+k} a_k on a coefficient sequence."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("coefficient sequence must be a nonempty 1-d array")
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("output truncation must be nonnegative")
    k_top = a.size - 1
    moments = mu.contiguous_moments(n_max + k_top)
    inner = np.abs(a) * moments[: k_top + 1]
    if a.size >= 64:
        total = float(inner.sum())
        tail = float(inner[-(a.size // 4):].sum())
        if total > 0 and tail > 1e-3 * total:
            raise NumericsError("inner Hankel sums did not stabilize at this truncation")
    out = np.correlate(moments, a, mode="valid")
    return TaylorSeries(gamma_table(n_max, alpha) * out)


# -- criteria ---------------------------------------------------------------------


def _finite_integral(mu: RadialMeasure, fn, what: str) -> float:
    try:
        val = mu.integral(fn, rel_tol=1e-8)
    except NumericsError as exc:
        raise PreconditionError(f"{what} diverges for this measure") from exc
    if not math.isfinite(val):
        raise PreconditionError(f"{what} diverges for this measure")
    return val


def _moment_form(mu: RadialMeasure, phi, scale, quantity: str, details: dict, n_max: int) -> CriterionResult:
    """Trend of q_n = scale(n, m_n) on the index ladder to n_max, m_n the phi-weighted moments of mu."""
    if not n_max >= 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    ns = index_ladder(n_max)
    x = ns.astype(float)
    return summarize_ladder(x, scale(x, mu.moments_at(ns, phi=phi, rel_tol=1e-9)), quantity, details)


def _combined(
    primary: CriterionResult, secondary: CriterionResult | None = None, secondary_name: str = "", compact: bool = False
) -> CriterionResult:
    """Primary result with the companion form attached; disagreement downgrades the verdict.

    compact=True echoes the final verdict under details["compactness"], for the
    regimes where boundedness coincides with compactness.
    """
    verdict = primary.verdict
    details = dict(primary.details)
    if secondary is not None:
        agree = verdict == secondary.verdict
        details[secondary_name] = secondary.to_dict()
        details["primary_verdict"] = verdict
        details["forms_agree"] = agree
        verdict = verdict if agree else VERDICT_INCONCLUSIVE
    if compact:
        details["compactness"] = verdict
    return replace(primary, verdict=verdict, details=details)


def criterion_general(
    mu: RadialMeasure,
    omega: NormalWeight,
    nu: NormalWeight,
    alpha: float,
    n_max: int = 2**20,
) -> CriterionResult:
    """Trend of q_n = n^(alpha+2) nu(1-1/n) * integral of t^n (gauge(t)+1) dmu."""
    alpha = _require_alpha(alpha)
    gate = well_defined_check(mu, omega)
    if not gate.finite:
        raise PreconditionError("source gauge integral diverges; operator undefined on this source space")

    def phi(t, omt):
        return growth_gauge_from_gaps(omega, omt) + 1.0

    scale = lambda x, m: x ** (alpha + 2.0) * m * nu.value_from_gap(1.0 / x)  # noqa: E731
    details = {"alpha": alpha, "n_max": int(n_max), "gauge_integral": gate.integral}
    return _moment_form(mu, phi, scale, "n^(alpha+2) nu(1-1/n) gauge-weighted moment", details, n_max)


def criterion_moment(
    mu: RadialMeasure,
    omega: NormalWeight,
    nu: NormalWeight,
    alpha: float,
    n_max: int = 2**20,
) -> CriterionResult:
    """Trend of q_n = n^(alpha+2) nu(1-1/n) mu_n; needs a bounded source gauge.

    When the gauge stays bounded the plain moments carry the whole criterion
    and boundedness coincides with compactness; the shared verdict is echoed
    under details["compactness"].
    """
    alpha = _require_alpha(alpha)
    if not math.isfinite(growth_gauge(omega, 1.0)):
        raise PreconditionError(
            "source gauge grows without bound; plain moments lose the gauge factor, use criterion_general"
        )
    scale = lambda x, m: x ** (alpha + 2.0) * m * nu.value_from_gap(1.0 / x)  # noqa: E731
    details = {"alpha": alpha, "n_max": int(n_max)}
    moment = _moment_form(mu, None, scale, "n^(alpha+2) nu(1-1/n) mu_n", details, n_max)
    return _combined(moment, compact=True)


def criterion_bloch_to_gamma(
    mu: RadialMeasure,
    alpha: float,
    gamma: float,
    mode: str = "carleson",
    n_max: int = 2**20,
    depth: int = 24,
) -> CriterionResult:
    """Source = unweighted Bloch, target gap power gamma in (0, alpha+2).

    mode selects the reported quantity: "carleson" probes the log-weighted
    tail bound with exponent alpha+2-gamma, "moment" probes
    n^(alpha+2-gamma) * integral of t^n log(e/(1-t)) dmu.  Both are always
    evaluated; disagreement downgrades the verdict to inconclusive.
    """
    alpha = _require_alpha(alpha)
    gamma = require_number(gamma, "gamma", DomainError)
    if gamma <= 0.0:
        raise DomainError("target gap power gamma must be positive")
    if gamma >= alpha + 2.0:
        return CriterionResult(
            quantity="no test needed: target decay gamma >= alpha+2 absorbs the kernel growth",
            sup_value=0.0,
            attained_at=1.0,
            slope=0.0,
            log_slope=0.0,
            verdict=VERDICT_BOUNDED,
            details={"automatic": True, "alpha": alpha, "gamma": gamma},
        )
    if mode not in ("carleson", "moment"):
        raise DomainError(f"unknown mode {mode!r}; expected 'carleson' or 'moment'")
    log_weight = lambda t, omt: 1.0 - np.log(omt)  # noqa: E731
    _finite_integral(mu, log_weight, "integral of log(e/(1-t))")
    carleson = carleson_sup(mu, gamma_log=1.0, s=alpha + 2.0 - gamma, depth=depth)
    scale = lambda x, m: x ** (alpha + 2.0 - gamma) * m  # noqa: E731
    details = {"alpha": alpha, "gamma": gamma, "n_max": int(n_max)}
    moment = _moment_form(mu, log_weight, scale, "n^(alpha+2-gamma) log-weighted moment", details, n_max)
    if mode == "carleson":
        return _combined(carleson, moment, "moment_form")
    return _combined(moment, carleson, "carleson_form")


def criterion_beta_spaces(
    mu: RadialMeasure,
    alpha: float,
    beta: float,
    gamma: float,
    depth: int = 24,
) -> CriterionResult:
    """Power-weighted source (gap power beta > 0, beta != 1) to gap power gamma.

    beta > 1 needs integral of dmu/(1-t)^(beta-1) finite and tests the
    (alpha+1+beta-gamma)-Carleson bound; the equivalent reading, the
    (alpha+2-gamma)-Carleson bound on dmu/(1-t)^(beta-1), is computed and
    compared.  0 < beta < 1 tests the (alpha+2-gamma)-Carleson bound alone
    and boundedness coincides with compactness.
    """
    alpha = _require_alpha(alpha)
    beta = require_number(beta, "beta", DomainError)
    gamma = require_number(gamma, "gamma", DomainError)
    if not 0.0 < gamma < alpha + 2.0:
        raise DomainError("target gap power gamma must lie in (0, alpha+2)")
    if beta <= 0.0 or beta == 1.0:
        raise DomainError("source gap power beta must be positive and != 1")
    if beta > 1.0:
        _finite_integral(mu, lambda t, omt: omt ** (1.0 - beta), "integral of dmu/(1-t)^(beta-1)")
    s = alpha + 1.0 + beta - gamma if beta > 1.0 else alpha + 2.0 - gamma
    primary = carleson_sup(mu, gamma_log=0.0, s=s, depth=depth)
    primary.details.update({"alpha": alpha, "beta": beta, "gamma": gamma})
    if beta < 1.0:
        return _combined(primary, compact=True)
    reweighted = carleson_sup(power_reweight(mu, beta - 1.0), gamma_log=0.0, s=alpha + 2.0 - gamma, depth=depth)
    return _combined(primary, reweighted, "reweighted_form")


def criterion_log_spaces(
    mu: RadialMeasure,
    alpha: float,
    beta: float,
    gamma: float,
    n_max: int = 2**20,
    depth: int = 24,
) -> CriterionResult:
    """Logarithmic source exponent beta to logarithmic target exponent gamma.

    The regime of beta relative to -1 fixes the moment weight and the tail
    factor.  The moment form n^(alpha+1) log^(-gamma)(n+1) * (log-weighted
    moment) and the matching tail-sup form are compared.  For beta < -1
    boundedness coincides with compactness.
    """
    alpha = _require_alpha(alpha)
    beta = require_number(beta, "beta", DomainError)
    gamma = require_number(gamma, "gamma", DomainError)
    if beta > -1.0:
        # Hypothesis taken in the gauge-consistent form: the source gauge grows
        # like log^(beta+1)(e/(1-t)), so that is the factor whose mu-integral
        # must converge.
        phi = lambda t, omt: (1.0 - np.log(omt)) ** (beta + 1.0)  # noqa: E731
        weight_name = "log^(beta+1)"
        tail_factor = lambda g: (1.0 - np.log(g)) ** (beta + 1.0 - gamma)  # noqa: E731
        tail_name = "tail * log^(beta+1-gamma)(e/(1-t)) / (1-t)^(alpha+1)"
    elif beta == -1.0:
        phi = lambda t, omt: np.log1p(-np.log(omt))  # noqa: E731
        weight_name = "loglog"
        tail_factor = lambda g: np.log1p(-np.log(g)) * (1.0 - np.log(g)) ** -gamma  # noqa: E731
        tail_name = "tail * loglog(e/(1-t)) / ((1-t)^(alpha+1) log^gamma(e/(1-t)))"
    else:
        phi = weight_name = None
        tail_factor = lambda g: (1.0 - np.log(g)) ** -gamma  # noqa: E731
        tail_name = "tail * log^(-gamma)(e/(1-t)) / (1-t)^(alpha+1)"

    if phi is not None:
        _finite_integral(mu, phi, f"integral of {weight_name}(e/(1-t))")
    scale = lambda x, m: x ** (alpha + 1.0) * m * np.log(x + 1.0) ** -gamma  # noqa: E731
    quantity = "n^(alpha+1) log^(-gamma)(n+1) " + (f"{weight_name}-weighted moment" if weight_name else "mu_n")
    details = {"alpha": alpha, "beta": beta, "gamma": gamma, "n_max": int(n_max)}
    moment = _moment_form(mu, phi, scale, quantity, details, n_max)
    gaps, tails = mu.tail_ladder(depth)
    tail_sizes = tails * (tail_factor(gaps) / gaps ** (alpha + 1.0))
    tail = summarize_ladder(1.0 / gaps, tail_sizes, quantity=tail_name, details={"depth": depth})
    return _combined(moment, tail, "tail_form", compact=beta < -1.0)


# -- empirical norm probe ----------------------------------------------------------


@dataclass
class ProbeReport:
    """Empirical lower bound on the operator norm at two truncations."""

    ratio: float
    doubled_ratio: float
    growth: float
    classification: str
    truncation: int
    cases: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "doubled_ratio": self.doubled_ratio,
            "growth": self.growth,
            "classification": self.classification,
            "truncation": self.truncation,
            "cases": self.cases,
        }


def operator_norm_probe(
    cfg: OperatorConfig,
    omega: NormalWeight,
    nu: NormalWeight,
    functions: Sequence[tuple[str, TaylorSeries]],
) -> ProbeReport:
    """Max over test functions of norm(I f)/norm(f), at truncation N and 2N.

    The per-function growth of that ratio under truncation doubling is the
    desk-scale stand-in for boundedness: stable ratios corroborate a bounded
    verdict, growing ratios an unbounded one.
    """
    if not functions:
        raise DomainError("probe needs at least one test function")
    n_base = cfg.truncation
    depth = max(12, int(math.log2(max(n_base, 2))) + 2)
    cases = []
    for label, f in functions:
        row: dict = {"label": label}
        for tag, n, d in (("base", n_base, depth), ("doubled", 2 * n_base, depth + 1)):
            fn = f.pad(n)
            source = norm_direct(fn, omega, radial_depth=d)
            if source.value == 0.0:
                raise DomainError(f"test function {label!r} has zero source norm")
            image = apply_coefficient(fn, OperatorConfig(cfg.alpha, cfg.measure, n, cfg.rel_tol))
            target = norm_direct(image, nu, radial_depth=d)
            row[tag] = target.value / source.value
        row["growth"] = row["doubled"] / row["base"]
        cases.append(row)
    growth = max(row["growth"] for row in cases)
    if growth >= PROBE_GROWING_MIN:
        classification = PROBE_GROWING
    elif growth <= PROBE_STABLE_MAX:
        classification = PROBE_STABLE
    else:
        classification = PROBE_INCONCLUSIVE
    return ProbeReport(
        ratio=max(row["base"] for row in cases),
        doubled_ratio=max(row["doubled"] for row in cases),
        growth=growth,
        classification=classification,
        truncation=n_base,
        cases=cases,
    )
