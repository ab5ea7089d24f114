"""Verification suites pairing each estimate with an independent companion.

Every suite computes one statement two ways (an estimator against a direct
computation, a moment form against a tail form, a criterion against an
operator probe) and records per-case agreement.  A suite is data: a
``Suite`` spec holds its options, each a list that selects the suite's rows,
the resolution values and fixed constants it derives from
``resolution_scale`` (the only resolution setting), a builder for its case
list, and a pure per-case ``compare`` that returns a ``CaseResult``.  One
shared ``run_suite`` merges and checks the options, runs the cases, and turns
a numeric failure inside a case into an error row instead of aborting the
run.  Suite ids are opaque registry keys, and a run is deterministic for a
fixed config.

Compares reach library functions through this module's names at call time,
so a wrapper installed on those names (a profiler, a tracer) sees the calls.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .bloch import (
    METHOD_COEFFICIENT_SUM,
    METHOD_DYADIC_BLOCK,
    block_peaks,
    coefficient_sum_form,
    dyadic_block_form,
    monotone_form,
    norm_direct,
    weight_profile,
)
from .catalog import (
    _MONOTONE_FACTORIES,
    _SERIES_FACTORIES,
    _build_named,
    atom_ladder,
    resolve_measure,
    resolve_weight,
)
from .errors import DomainError, HilblochError, require_number
from .hilbert_op import (
    PROBE_GROWING,
    PROBE_STABLE,
    OperatorConfig,
    _gauge_weight,
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
    operator_norm_probe,
    well_defined_check,
)
from .measures import measure_from_json, reweight_agreement
from .trend import (
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNBOUNDED,
    radius_ladder,
    summarize_ladder,
)
from .weights import (
    NormalWeight,
    build_extremal,
    dyadic_sum_ratio,
    laplace_tail_sweep,
    weight_ratio_bound,
)

CONFIG_VERSION = 1

FLAG_FINITE = "finite"
FLAG_DIVERGENT = "divergent"
FLAG_ERROR = "error"

_CONFIG_KEYS = {"version", "suite", "resolution_scale", "options"}


# -- config / result containers ---------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One suite run: which registry id, at what resolution, with what options."""

    suite: str
    version: int = CONFIG_VERSION
    resolution_scale: float = 1.0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise DomainError(f"unsupported config version {self.version!r}; expected {CONFIG_VERSION}")
        if not 0.0 < self.resolution_scale < math.inf:
            raise DomainError("resolution_scale must be positive and finite")
        # A float, so that resolution_scale=1 and 1.0 render the same report bytes.
        object.__setattr__(self, "resolution_scale", float(self.resolution_scale))
        if not isinstance(self.options, dict):
            raise DomainError("options must be an object")


def _config_field(doc: dict, key: str, kind: type, default):
    return kind(require_number(doc.get(key, default), f"config key {key!r}", DomainError))


def config_from_json(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise DomainError("config must be an object")
    extra = set(doc) - _CONFIG_KEYS
    if extra:
        raise DomainError(f"unknown config keys: {sorted(extra)}")
    if "suite" not in doc:
        raise DomainError("config needs a 'suite' key")
    options = doc.get("options") or {}
    cfg = ExperimentConfig(
        suite=str(doc["suite"]),
        version=_config_field(doc, "version", int, CONFIG_VERSION),
        resolution_scale=_config_field(doc, "resolution_scale", float, 1.0),
        options=dict(options) if isinstance(options, dict) else options,
    )
    if cfg.suite not in _REGISTRY:
        raise DomainError(f"unknown suite {cfg.suite!r}; known ids: {sorted(_REGISTRY)}")
    return cfg


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "version": cfg.version,
        "suite": cfg.suite,
        "resolution_scale": cfg.resolution_scale,
        "options": cfg.options,
    }


@dataclass
class CaseResult:
    """One cross-checked case: two values, two verdicts, one agreement flag."""

    label: str
    left_name: str
    right_name: str
    left: float
    right: float
    ratio: float
    left_verdict: str
    right_verdict: str
    agree: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _json_safe(vars(self))


@dataclass
class VerificationReport:
    """Outcome of one suite: all cases plus the conjunction of their flags."""

    suite: str
    agreement: bool
    cases: list[CaseResult]
    resolution: dict
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "agreement": self.agreement,
            "resolution": _json_safe(self.resolution),
            "wall_time": self.wall_time,
            "cases": [case.to_dict() for case in self.cases],
        }


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


# -- suite specs and the shared runner ------------------------------------------


class Case(NamedTuple):
    """One row to compute: its label, the names of its two sides, and what compare reads."""

    label: str
    left_name: str
    right_name: str
    item: Any

    def result(self, left, right, left_verdict, right_verdict, agree, detail, ratio=None) -> CaseResult:
        """This row's CaseResult; ratio defaults to left / right (NaN when that is undefined)."""
        ratio = _safe_ratio(left, right) if ratio is None else ratio
        return CaseResult(
            self.label, self.left_name, self.right_name, left, right, ratio, left_verdict, right_verdict, agree, detail
        )


class Suite(NamedTuple):
    """A verification suite as data; ``run_suite`` does the rest.

    ``defaults`` maps each option to its default list of rows.
    ``scale(resolution_scale)`` returns the resolution-dependent values and
    the suite's fixed constants.  They are merged over the options into the
    context ``ctx`` that ``cases`` and ``compare`` read, and ``report`` names
    the context keys recorded under the report's ``resolution``.
    ``cases(ctx)`` yields ``(label, item)`` per row, or ``(label, item,
    names)`` for a row whose two sides are not ``names``; ``compare(case,
    ctx)`` computes one row.  ``case_keys`` maps each option that holds case
    specs to the keys a spec needs and the keys it may add.  Each row builds
    its own measures inside ``compare``; a measure keeps no state between
    calls, so no row depends on the rows before it.  The norm suites' rows
    (L2.1, T3.1, T3.3, see ``_norm_cases``) share each weight's profiles and
    each function's block peaks, which depend only on (weight, truncation)
    and (function, truncation), so a row reads the same with or without its
    neighbours.
    """

    defaults: dict
    scale: Callable[[float], dict]
    report: tuple[str, ...]
    names: tuple[str, str]
    cases: Callable[[dict], Iterable[tuple]]
    compare: Callable[[Case, dict], CaseResult]
    case_keys: Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _options(cfg: ExperimentConfig, suite: Suite) -> dict:
    """Defaults overlaid by the config's options; malformed options raise DomainError."""
    extra = set(cfg.options) - set(suite.defaults)
    if extra:
        raise DomainError(f"unknown options for suite {cfg.suite}: {sorted(extra)}")
    for key, value in cfg.options.items():
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"suite {cfg.suite}: option {key!r} must be a list, got {value!r}")
    opts = {**suite.defaults, **cfg.options}
    for key, (required, optional) in suite.case_keys.items():
        for i, spec in enumerate(opts[key]):
            where = f"suite {cfg.suite}: {key}[{i}]"
            if not isinstance(spec, dict):
                raise DomainError(f"{where} must be an object, got {spec!r}")
            missing = [name for name in required if name not in spec]
            if missing:
                raise DomainError(f"{where} lacks the key {missing[0]!r}")
            unknown = sorted(set(spec) - set(required) - set(optional))
            if unknown:
                raise DomainError(f"{where} has unknown key {unknown[0]!r}")
    return opts


def run_suite(cfg: ExperimentConfig) -> VerificationReport:
    """Execute one suite; unknown ids and malformed options raise, case-level numerics do not."""
    suite = _REGISTRY.get(cfg.suite)
    if suite is None:
        raise DomainError(f"unknown suite {cfg.suite!r}; known ids: {sorted(_REGISTRY)}")
    start = time.perf_counter()
    ctx = _options(cfg, suite)
    ctx.update(suite.scale(cfg.resolution_scale))
    cases: list[CaseResult] = []
    for label, item, *names in suite.cases(ctx):
        case = Case(label, *(names[0] if names else suite.names), item)
        try:
            cases.append(suite.compare(case, ctx))
        except (HilblochError, ArithmeticError) as exc:
            error = {"error": f"{type(exc).__name__}: {exc}"}
            cases.append(case.result(math.nan, math.nan, FLAG_ERROR, FLAG_ERROR, False, error))
    resolution = {key: ctx[key] for key in suite.report}
    resolution["resolution_scale"] = cfg.resolution_scale
    return VerificationReport(
        suite=cfg.suite,
        agreement=all(case.agree for case in cases),
        cases=cases,
        resolution=resolution,
        wall_time=time.perf_counter() - start,
    )


# -- shared helpers -----------------------------------------------------------


def _scaled(base: float, scale: float, floor: int, cap: int) -> int:
    return int(max(floor, min(cap, round(base * float(scale)))))


def _n_max(scale: float) -> int:
    return 2 ** _scaled(18, scale, 10, 26)


def _depth(scale: float) -> int:
    return _scaled(24, scale, 10, 50)


def _flag(divergent: bool) -> str:
    return FLAG_DIVERGENT if divergent else FLAG_FINITE


def _trend_flag(verdict: str) -> str:
    if verdict == VERDICT_BOUNDED:
        return FLAG_FINITE
    if verdict == VERDICT_UNBOUNDED:
        return FLAG_DIVERGENT
    return verdict


def _probe_verdict(classification: str) -> str:
    if classification == PROBE_STABLE:
        return VERDICT_BOUNDED
    if classification == PROBE_GROWING:
        return VERDICT_UNBOUNDED
    return VERDICT_INCONCLUSIVE


def _safe_ratio(num: float, den: float) -> float:
    if not (math.isfinite(num) and math.isfinite(den)) or den == 0.0:
        return math.nan
    return num / den


def _forms_result(case: Case, result, secondary_name: str, expected: str | None, detail: dict) -> CaseResult:
    """A combined criterion's primary form against its secondary form, and its verdict against expected."""
    secondary = result.details[secondary_name]
    primary_verdict = result.details.get("primary_verdict", result.verdict)
    agree = bool(result.details["forms_agree"]) and (expected is None or result.verdict == expected)
    right = float(secondary["sup_value"])
    return case.result(result.sup_value, right, primary_verdict, secondary["verdict"], agree, detail)


def _name(item) -> str:
    """A catalog name as given; for a descriptor its "label", else its "kind", else "custom"."""
    if isinstance(item, str):
        return item
    if isinstance(item, dict):
        return item.get("label", item.get("kind", "custom"))
    return "custom"


def _per_weight(ctx: dict):
    """One row per entry of the "weights" option, labelled by name (see _name), with the weight resolved."""
    return [(_name(name), resolve_weight(name)) for name in ctx["weights"]]


def _per_spec(template: str):
    """Rows from the "cases" option, labelled by template over each spec (measures and weights by name)."""

    def cases(ctx: dict):
        for spec in ctx["cases"]:
            fields = {key: _name(value) if key in ("measure", "omega", "nu") else value for key, value in spec.items()}
            try:
                label = template.format(**fields)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"case {spec!r}: {exc}") from None
            yield label, spec

    return cases


# Read by perfbench/test_tracer.py, which checks that the tracer also wraps aliased names.
_resolve_weight = resolve_weight


# -- norm comparison suites (coefficient sums, blocks, monotone) --------------

_NORM_WEIGHTS = ["power_0.5", "power_1", "power_2", "power_log_1_1"]
_NORM_FUNCTIONS = [
    "constant",
    "affine",
    "monomial_8",
    "monomial_64",
    "geometric",
    "ones",
    "harmonic",
    "inverse_square",
    "inverse_sqrt",
    "log_damped",
]


def _truncation(scale: float) -> dict:
    exponent = _scaled(13, scale, 6, 16)
    return {"exponent": exponent, "truncation": 2**exponent}


def _norm_cases(ctx: dict, factories: dict, kind: str, truncation: int):
    """One row (weight, series, profile, peaks) per (weight, function), weight by weight.

    Only the functions the "functions" option names are built, at
    truncation.  ``profile(n)`` is the weight's profile at truncation n and
    ``peaks(n)`` the function's block peaks at n, each built inside compare
    by the first row that asks, so a failure still gives that row's error,
    and shared by the rest.  A weight's profiles are dropped with its last
    row, so no two weights' profiles are alive at once.
    """
    series = {name: _build_named(factories, kind, name, truncation) for name in ctx["functions"]}
    peaks = {name: functools.cache(lambda n, f=f: block_peaks(f.pad(n))) for name, f in series.items()}
    for weight_name in ctx["weights"]:
        weight = resolve_weight(weight_name)
        profile = functools.cache(functools.partial(weight_profile, weight))
        for name in ctx["functions"]:
            yield f"{_name(weight_name)}|{name}", (weight, series[name], profile, peaks[name])


def _norm_suite(estimator_name: str, estimator: Callable) -> Suite:
    """L2.1 and T3.1: the direct norm against one coefficient-side estimator.

    ``estimator(fn, weight, profile, peaks)`` estimates a row's series padded
    to fn's truncation.  The ratio of the direct norm to it must hold still
    from the truncation to twice it.
    """

    def compare(case: Case, ctx: dict) -> CaseResult:
        weight, series, profile, peaks = case.item
        ratios = []
        for n, depth in ((ctx["truncation"], ctx["exponent"] + 2), (2 * ctx["truncation"], ctx["exponent"] + 3)):
            fn = series.pad(n)
            direct = norm_direct(fn, weight, radial_depth=depth)
            estimate = estimator(fn, weight, profile, peaks)
            ratios.append(_safe_ratio(direct.value, estimate.value))
        drift = abs(ratios[1] - ratios[0]) / abs(ratios[0])
        in_band = 1.0 / ctx["band"] <= ratios[1] <= ctx["band"]
        agree = direct.divergent == estimate.divergent and in_band and drift <= ctx["drift_cap"]
        detail = {"base_ratio": ratios[0], "drift": drift, "in_band": in_band}
        left, right = _flag(direct.divergent), _flag(estimate.divergent)
        return case.result(direct.value, estimate.value, left, right, agree, detail)

    return Suite(
        defaults={"weights": _NORM_WEIGHTS, "functions": _NORM_FUNCTIONS},
        scale=lambda s: {**_truncation(s), "band": 50.0, "drift_cap": 0.2},
        report=("truncation", "band", "drift_cap"),
        names=("direct_norm", estimator_name),
        cases=lambda ctx: _norm_cases(ctx, _SERIES_FACTORIES, "series", 2 * ctx["truncation"]),
        compare=compare,
    )


def _compare_monotone(case: Case, ctx: dict) -> CaseResult:
    _, series, profile, _ = case.item
    simple = monotone_form(series, profile(ctx["truncation"]))
    reference = coefficient_sum_form(series, profile(ctx["truncation"]))
    in_band = simple.divergent or (1.0 / ctx["band"] <= _safe_ratio(simple.value, reference.value) <= ctx["band"])
    agree = simple.divergent == reference.divergent and in_band
    detail = {"slopes": [simple.slope, reference.slope]}
    return case.result(
        simple.value, reference.value, _flag(simple.divergent), _flag(reference.divergent), agree, detail
    )


# -- weight geometry suites ----------------------------------------------------


def _compare_extremal(case: Case, ctx: dict) -> CaseResult:
    """Profile band of the extremal series, and its growth when two levels are added."""
    base = build_extremal(case.item, ctx["levels"])
    deep = build_extremal(case.item, ctx["levels"] + 2)
    band_base = base.upper_bound / base.lower_bound
    band_deep = deep.upper_bound / deep.lower_bound
    left, right = ("in_band" if band <= ctx["band_cap"] else "out_of_band" for band in (band_deep, band_base))
    agree = left == right == "in_band" and _safe_ratio(band_deep, band_base) <= ctx["growth_cap"]
    detail = {
        "bounds_deep": [deep.lower_bound, deep.upper_bound],
        "bounds_base": [base.lower_bound, base.upper_bound],
        "top_exponent": int(deep.exponents[-1]),
    }
    return case.result(band_deep, band_base, left, right, agree, detail)


def _compare_ratio_bound(case: Case, ctx: dict) -> CaseResult:
    base = weight_ratio_bound(case.item, grid_depth=ctx["grid_depth"])
    deep = weight_ratio_bound(case.item, grid_depth=ctx["grid_depth"] + 4)
    left, right = ("within_cap" if val <= ctx["cap"] else "exceeds_cap" for val in (deep, base))
    agree = left == right == "within_cap" and _safe_ratio(deep, base) <= ctx["growth_cap"]
    return case.result(deep, base, left, right, agree, {"grid_depth": ctx["grid_depth"]})


def _laplace_exponents(scale: float) -> dict:
    exponents = list(range(2, _scaled(6, scale, 6, 7) + 1))
    return {"delta_exponents": exponents, "deltas": [10.0**-e for e in exponents]}


def _compare_laplace_tail(case: Case, ctx: dict) -> CaseResult:
    report = laplace_tail_sweep(case.item, ctx["deltas"])
    spread_ok = report.spread <= ctx["spread_cap"]
    trend_ok = report.slope <= ctx["slope_cap"]
    return case.result(
        float(np.max(report.values)),
        float(np.min(report.values)),
        "bounded_spread" if spread_ok else "wide_spread",
        "non_increasing" if trend_ok else "increasing",
        spread_ok and trend_ok,
        {"slope": report.slope, "values": report.values, "deltas": report.deltas},
        ratio=report.spread,
    )


def _dyadic_depths(scale: float) -> dict:
    base_depth = _scaled(16, scale, 8, 44)
    return {"base_depth": base_depth, "deep_depth": max(base_depth + 4, _scaled(20, scale, 12, 48))}


def _compare_dyadic_sum(case: Case, ctx: dict) -> CaseResult:
    def ladder_sup(depth: int) -> float:
        return float(np.max(dyadic_sum_ratio(case.item, radius_ladder(depth), j_max=depth + 30)))

    base = ladder_sup(ctx["base_depth"])
    deep = ladder_sup(ctx["deep_depth"])
    left, right = (FLAG_FINITE if math.isfinite(val) else FLAG_DIVERGENT for val in (deep, base))
    agree = math.isfinite(deep) and _safe_ratio(deep, base) < ctx["growth_cap"]
    detail = {"base_depth": ctx["base_depth"], "deep_depth": ctx["deep_depth"]}
    return case.result(deep, base, left, right, agree, detail)


# -- Carleson reweighting suite -------------------------------------------------

_REWEIGHT_CASES = [
    {"measure": "lebesgue", "beta": 0.5, "gamma": 0.5},
    {"measure": "lebesgue", "beta": 1.5, "gamma": 0.5},
    {"measure": "density_2", "beta": 2.0, "gamma": 1.0},
    {"measure": "density_2", "beta": 2.5, "gamma": 1.0},
    {"measure": "density_1", "beta": 1.0, "gamma": 1.0},
    {"measure": "density_1", "beta": 1.6, "gamma": 0.6},
    {"measure": "atom_ladder_16", "beta": 0.7, "gamma": 0.3},
    {"measure": "atom_ladder_16", "beta": 1.2, "gamma": 0.3},
]


def _compare_reweight(case: Case, ctx: dict) -> CaseResult:
    beta, gamma = float(case.item["beta"]), float(case.item["gamma"])
    report = reweight_agreement(resolve_measure(case.item["measure"]), beta, gamma, depth=ctx["depth"])
    original, transformed = report.original, report.transformed
    detail = {"beta": beta, "gamma": gamma, "depth": ctx["depth"]}
    return case.result(
        original.sup_value, transformed.sup_value, original.verdict, transformed.verdict, report.agree, detail
    )


# -- well-definedness suite -----------------------------------------------------


def _witness_values(weight: NormalWeight, gap_target: float):
    """Antiderivative of the comparison series, evaluated sparsely.

    Level s sits at the radius r_s with nu(r_s) = 2^-s, so the level count is
    read off nu(1 - gap_target): the first rung of 8, 14, ..., 62 with
    2^-levels <= nu(1 - gap_target) puts the deepest radius at gap at most
    gap_target (62 is the cap), and the witness keeps growing through every
    atom the suite places.  The series is built once, at that rung.
    """
    nu_target = float(weight.value_from_gap(gap_target))
    levels = 8
    while levels < 58 and 2.0**-levels > nu_target:
        levels += 6
    ext = build_extremal(weight, levels)
    pairs = ext.coefficient_pairs()

    def values(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.ones_like(ts)
        for exponent, coeff in pairs:
            out = out + coeff * ts ** (exponent + 1) / (exponent + 1)
        return out

    return values


_WELL_DEFINED_FIXED = [
    {"measure": "lebesgue", "weight": "power_1"},
    {"measure": "lebesgue", "weight": "power_2"},
    {"measure": "density_1", "weight": "power_2"},
    {"measure": "atom_half", "weight": "power_2"},
]


def _well_defined_ladders(scale: float) -> dict:
    return {
        "ladder_levels": sorted({_scaled(lv, scale, 4, 44) for lv in (6, 10, 14, 18, 22)}),
        "partial_depths": sorted({_scaled(d, scale, 4, 40) for d in (4, 8, 12, 16, 20)}),
    }


def _well_defined_cases(ctx: dict):
    """Atom families per ladder weight (resolved here), then the fixed (measure, weight) rows."""
    cases = [(f"atom_family|{name}", resolve_weight(name)) for name in ctx["ladder_weights"]]
    fixed_names = ("adaptive_integral", "truncated_ladder")
    cases += [(f"fixed|{_name(s['measure'])}|{_name(s['weight'])}", s, fixed_names) for s in ctx["fixed_cases"]]
    return cases


def _compare_atom_family(case: Case, ctx: dict) -> CaseResult:
    """Gauge integral against the witness image over a family of atom ladders."""
    levels = ctx["ladder_levels"]
    witness = _witness_values(case.item, 2.0 ** -max(levels))
    xs = np.array([2.0**lv for lv in levels])
    gauge_side = np.empty(len(levels))
    apply_side = np.empty(len(levels))
    for i, lv in enumerate(levels):
        mu = atom_ladder(lv)
        gauge_side[i] = well_defined_check(mu, case.item)
        apply_side[i] = mu.integral(lambda t, omt: witness(t))
    gauge_trend = summarize_ladder(xs, gauge_side, "gauge integral over atom family")
    apply_trend = summarize_ladder(xs, apply_side, "witness image at the origin")
    left, right = _trend_flag(gauge_trend.verdict), _trend_flag(apply_trend.verdict)
    agree = left == right and left != VERDICT_INCONCLUSIVE
    detail = {
        "levels": list(levels),
        "gauge_values": gauge_side,
        "witness_values": apply_side,
        "slopes": [gauge_trend.log_slope, apply_trend.log_slope],
    }
    return case.result(float(gauge_side[-1]), float(apply_side[-1]), left, right, agree, detail)


def _compare_well_defined(case: Case, ctx: dict) -> CaseResult:
    """Adaptive gauge integral against its truncated ladder; atom families go to the witness."""
    if case.left_name == "gauge_integral":
        return _compare_atom_family(case, ctx)
    mu = resolve_measure(case.item["measure"])
    weight = resolve_weight(case.item["weight"])
    integral = well_defined_check(mu, weight)
    depths = ctx["partial_depths"]
    gaps = 2.0 ** -np.asarray(depths, dtype=float)
    gauge = _gauge_weight(weight)
    partials = np.array([mu.integral(gauge, rel_tol=1e-9, upper=r) for r in 1.0 - gaps])
    trend = summarize_ladder(1.0 / gaps, partials, "partial gauge integral")
    left, right = _flag(not math.isfinite(integral)), _trend_flag(trend.verdict)
    agree = left == right and right != VERDICT_INCONCLUSIVE
    detail = {"partials": partials, "depths": list(depths), "slope": trend.log_slope}
    return case.result(integral, float(partials[-1]), left, right, agree, detail)


# -- operator criteria against probes -------------------------------------------

_GENERAL_CASES = [
    {"measure": "atom_half", "omega": "power_1", "nu": "power_1", "alpha": 0.0},
    {
        "measure": {"density": {"kind": "power_log", "s": 1.5, "gamma": 0.0}, "label": "(1-t)^1.5 dt"},
        "omega": "power_0.5",
        "nu": "power_1",
        "alpha": 0.0,
    },
    {"measure": "density_-0.5", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
    {"measure": "lebesgue", "omega": "power_0.5", "nu": "power_0.5", "alpha": 0.0},
    {"measure": "density_2", "omega": "power_1", "nu": "power_2", "alpha": 1.0},
    {"measure": "density_1_log-1", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
]

_MOMENT_CASES = [
    {"measure": "atom_half", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
    {"measure": "lebesgue", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
    {"measure": "density_1", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
    {"measure": "density_-0.5", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
    {"measure": "lebesgue", "omega": {"kind": "power", "gamma": 0.3}, "nu": "power_1", "alpha": 1.0},
    {"measure": "density_1_log-1", "omega": "power_0.5", "nu": "power_0.5", "alpha": 0.0},
    {"measure": "atom_ladder_16", "omega": "power_0.5", "nu": "power_1", "alpha": 0.0},
]


def _operator_args(case: Case) -> tuple:
    """Fresh measure and weights of one row, plus its alpha."""
    spec = case.item
    mu = resolve_measure(spec["measure"])
    return mu, resolve_weight(spec["omega"]), resolve_weight(spec["nu"]), float(spec["alpha"])


def _run_probe(mu, omega, nu, alpha, ctx: dict):
    """Norm-ratio probe at the suite's probe truncation, and the verdict it reads as."""
    probe = operator_norm_probe(OperatorConfig(alpha, mu, ctx["probe_truncation"]), omega, nu)
    return probe, _probe_verdict(probe.classification)


def _compare_general(case: Case, ctx: dict) -> CaseResult:
    mu, omega, nu, alpha = _operator_args(case)
    crit = criterion_general(mu, omega, nu, alpha, n_max=ctx["n_max"])
    probe, verdict = _run_probe(mu, omega, nu, alpha, ctx)
    detail = {"criterion": crit.to_dict(), "probe": probe.to_dict()}
    agree = crit.verdict == verdict
    return case.result(crit.sup_value, probe.ratio, crit.verdict, verdict, agree, detail, ratio=probe.growth)


def _compare_moment(case: Case, ctx: dict) -> CaseResult:
    mu, omega, nu, alpha = _operator_args(case)
    plain = criterion_moment(mu, omega, nu, alpha, n_max=ctx["n_max"])
    general = criterion_general(mu, omega, nu, alpha, n_max=ctx["n_max"])
    probe, verdict = _run_probe(mu, omega, nu, alpha, ctx)
    agree = plain.verdict == general.verdict == verdict
    detail = {"probe_verdict": verdict, "probe_growth": probe.growth, "compactness": plain.details.get("compactness")}
    return case.result(plain.sup_value, general.sup_value, plain.verdict, general.verdict, agree, detail)


def _operator_suite(cases: list, names: tuple[str, str], compare) -> Suite:
    """T4.2 and T4.3: criteria on (measure, omega, nu, alpha) cases, each against the norm-ratio probe."""
    return Suite(
        defaults={"cases": cases},
        scale=lambda s: {"n_max": _n_max(s), "probe_truncation": 2 ** _scaled(10, s, 7, 13)},
        report=("n_max", "probe_truncation"),
        names=names,
        cases=_per_spec("{measure}|{omega}->{nu}|alpha={alpha:g}"),
        compare=compare,
        case_keys={"cases": (("measure", "omega", "nu", "alpha"), ())},
    )


# -- target-growth criteria ------------------------------------------------------

_LOG_TARGET_CASES = [
    {
        "measure": {"density": {"kind": "power_log", "s": 0.0, "gamma": -2.0}, "label": "log^-2(e/(1-t)) dt"},
        "alpha": 0.0,
        "gamma": 1.0,
    },
    {"measure": "lebesgue", "alpha": 0.0, "gamma": 1.0},
    {"measure": "atom_half", "alpha": 0.5, "gamma": 1.0},
    {"measure": "density_2", "alpha": 1.0, "gamma": 1.0},
    {"measure": "lebesgue", "alpha": 0.0, "gamma": 2.5},
]


def _compare_log_target(case: Case, ctx: dict) -> CaseResult:
    spec = case.item
    mu = resolve_measure(spec["measure"])
    result = criterion_bloch_to_gamma(
        mu, float(spec["alpha"]), float(spec["gamma"]), n_max=ctx["n_max"], depth=ctx["depth"]
    )
    if result.details.get("automatic"):
        verdict = result.verdict
        return case.result(0.0, 0.0, verdict, verdict, verdict == VERDICT_BOUNDED, {"automatic": True}, ratio=1.0)
    return _forms_result(case, result, "moment_form", None, {"verdict": result.verdict})


def _sigma_cases(ctx: dict):
    """Densities (1-t)^sigma at the given offsets from the suite's threshold, with the verdict each should get."""
    for offset in ctx["sigma_offsets"]:
        sigma = ctx["threshold"] + float(offset)
        yield f"sigma={sigma:g}", (sigma, VERDICT_BOUNDED if offset > 0 else VERDICT_UNBOUNDED)


def _beta_result(case: Case, ctx: dict):
    sigma = case.item[0]
    mu = measure_from_json({"density": {"kind": "power_log", "s": sigma, "gamma": 0.0}, "label": f"(1-t)^{sigma:g} dt"})
    return criterion_beta_spaces(mu, ctx["alpha"], ctx["beta"], ctx["gamma"], depth=ctx["depth"])


def _compare_beta_large(case: Case, ctx: dict) -> CaseResult:
    """Both Carleson readings of the beta > 1 criterion, and the predicted verdict."""
    result = _beta_result(case, ctx)
    expected = case.item[1]
    detail = {"expected": expected, "threshold": ctx["threshold"], "verdict": result.verdict}
    return _forms_result(case, result, "reweighted_form", expected, detail)


def _compare_beta_small(case: Case, ctx: dict) -> CaseResult:
    """The beta < 1 criterion against the threshold prediction; compactness must match."""
    sigma, expected = case.item
    result = _beta_result(case, ctx)
    compactness = result.details.get("compactness")
    agree = result.verdict == expected and compactness == result.verdict
    detail = {"threshold": ctx["threshold"], "compactness": compactness}
    return case.result(result.sup_value, sigma - ctx["threshold"], result.verdict, expected, agree, detail, math.nan)


# T5.3 and T5.4 fix the kernel exponent alpha and the target exponent gamma.
_BETA_ALPHA = 0.5
_BETA_GAMMA = 1.0


def _beta_suite(beta: float, threshold: float, names: tuple[str, str], compare) -> Suite:
    """T5.3 and T5.4: the same sigma sweep around the suite's threshold on sigma."""
    constants = {"alpha": _BETA_ALPHA, "beta": beta, "gamma": _BETA_GAMMA, "threshold": threshold}
    return Suite(
        defaults={"sigma_offsets": [-0.75, -0.25, 0.25, 0.75]},
        scale=lambda s: {"depth": _depth(s), **constants},
        report=("depth", "threshold"),
        names=names,
        cases=_sigma_cases,
        compare=compare,
    )


# -- logarithmic spaces: T5.6, T5.7, T5.8 and remark5 share one spec ---------------

_LOG_SOURCE_CASES = [
    {"beta": 0.0, "gamma": 1.0, "expected": VERDICT_BOUNDED},
    {"beta": 1.0, "gamma": 2.0, "expected": VERDICT_BOUNDED},
    {"beta": 0.0, "gamma": 0.0, "expected": VERDICT_UNBOUNDED},
]

_LOG_BORDER_CASES = [
    {"gamma": 0.0, "expected": VERDICT_UNBOUNDED},
    {"gamma": 1.0, "expected": VERDICT_BOUNDED},
]

_LOG_FAST_CASES = [
    {"gamma": -1.0, "expected": VERDICT_UNBOUNDED},
    {"gamma": 0.0, "expected": VERDICT_BOUNDED},
    {"gamma": 1.0, "expected": VERDICT_BOUNDED},
]


def _log_shift_cases(ctx: dict):
    """remark5: target exponent one above each source exponent; bounded exactly when beta > -1."""
    for beta in ctx["betas"]:
        beta = float(beta)
        expected = VERDICT_BOUNDED if beta > -1.0 else VERDICT_UNBOUNDED
        yield f"beta={beta:g}->gamma={beta + 1:g}", {"beta": beta, "gamma": beta + 1.0, "expected": expected}


def _compare_log_spaces(case: Case, ctx: dict) -> CaseResult:
    """Moment form against tail form of the log-space criterion, and the expected verdict if any.

    The measure is Lebesgue; the source exponent comes from the case (T5.6, remark5), else from the suite (T5.7, T5.8).
    """
    spec = case.item
    beta = float(spec.get("beta", ctx["beta"]))
    mu = resolve_measure("lebesgue")
    result = criterion_log_spaces(mu, ctx["alpha"], beta, float(spec["gamma"]), n_max=ctx["n_max"], depth=ctx["depth"])
    expected = spec.get("expected")
    detail = {"expected": expected, "verdict": result.verdict, "compactness": result.details.get("compactness")}
    return _forms_result(case, result, "tail_form", expected, detail)


def _log_suite(defaults: dict, cases: Callable, recorded: dict, case_keys: tuple | None = None) -> Suite:
    """The log-space criterion at alpha = 0; ``recorded`` holds the constants the report records.

    Its beta (else -1) is the source exponent of cases that carry none.
    """
    return Suite(
        defaults=defaults,
        scale=lambda s: {"n_max": _n_max(s), "depth": _depth(s), "alpha": 0.0, "beta": -1.0, **recorded},
        report=("n_max", "depth", *recorded),
        names=("moment_form", "tail_form"),
        cases=cases,
        compare=_compare_log_spaces,
        case_keys={"cases": case_keys} if case_keys else {},
    )


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, Suite] = {
    "L2.1": _norm_suite(
        METHOD_DYADIC_BLOCK, lambda fn, weight, profile, peaks: dyadic_block_form(peaks(fn.truncation), weight)
    ),
    "L2.2": Suite(
        defaults={"weights": ["power_0.5", "power_1", "power_2", "power_log_1_1", "log_power_1"]},
        scale=lambda s: {"levels": _scaled(10, s, 4, 40), "band_cap": 32.0, "growth_cap": 1.5},
        report=("levels", "band_cap"),
        names=("deep_profile_band", "base_profile_band"),
        cases=_per_weight,
        compare=_compare_extremal,
    ),
    "L2.3": Suite(
        defaults={"weights": _NORM_WEIGHTS + ["log_power_1", "log_power_-1"]},
        scale=lambda s: {"grid_depth": _scaled(12, s, 8, 40), "cap": 4.0, "growth_cap": 1.25},
        report=("grid_depth", "cap"),
        names=("deep_grid_bound", "base_grid_bound"),
        cases=_per_weight,
        compare=_compare_ratio_bound,
    ),
    "L2.4": Suite(
        defaults={"weights": ["power_0.5", "power_1", "power_log_1_1"]},
        scale=lambda s: {**_laplace_exponents(s), "spread_cap": 100.0, "slope_cap": 0.05},
        report=("delta_exponents", "spread_cap"),
        names=("sweep_max", "sweep_min"),
        cases=_per_weight,
        compare=_compare_laplace_tail,
    ),
    "L2.5": Suite(
        defaults={"cases": _REWEIGHT_CASES},
        scale=lambda s: {"depth": _depth(s)},
        report=("depth",),
        names=("combined_exponent_sup", "reweighted_sup"),
        cases=_per_spec("{measure}|beta={beta:g}|gamma={gamma:g}"),
        compare=_compare_reweight,
        case_keys={"cases": (("measure", "beta", "gamma"), ())},
    ),
    "T3.1": _norm_suite(
        METHOD_COEFFICIENT_SUM, lambda fn, weight, profile, peaks: coefficient_sum_form(fn, profile(fn.truncation))
    ),
    "E3.1": Suite(
        defaults={"weights": _NORM_WEIGHTS},
        scale=lambda s: {**_dyadic_depths(s), "growth_cap": 2.0},
        report=("base_depth", "deep_depth"),
        names=("deep_ladder_sup", "base_ladder_sup"),
        cases=_per_weight,
        compare=_compare_dyadic_sum,
    ),
    "T3.3": Suite(
        defaults={"weights": _NORM_WEIGHTS, "functions": list(_MONOTONE_FACTORIES)},
        scale=lambda s: {**_truncation(s), "band": 50.0},
        report=("truncation", "band"),
        names=("monotone_bound", "coefficient_sum"),
        cases=lambda ctx: _norm_cases(ctx, _MONOTONE_FACTORIES, "monotone series", ctx["truncation"]),
        compare=_compare_monotone,
    ),
    "P4.1": Suite(
        defaults={"ladder_weights": ["power_0.5", "power_1", "power_2"], "fixed_cases": _WELL_DEFINED_FIXED},
        scale=_well_defined_ladders,
        report=("ladder_levels", "partial_depths"),
        names=("gauge_integral", "witness_image"),
        cases=_well_defined_cases,
        compare=_compare_well_defined,
        case_keys={"fixed_cases": (("measure", "weight"), ())},
    ),
    "T4.2": _operator_suite(_GENERAL_CASES, ("gauge_moment_criterion", "norm_ratio_probe"), _compare_general),
    "T4.3": _operator_suite(_MOMENT_CASES, ("plain_moment_criterion", "gauge_moment_criterion"), _compare_moment),
    "T5.1": Suite(
        defaults={"cases": _LOG_TARGET_CASES},
        scale=lambda s: {"n_max": _n_max(s), "depth": _depth(s)},
        report=("n_max", "depth"),
        names=("carleson_form", "moment_form"),
        cases=_per_spec("{measure}|alpha={alpha:g}|gamma={gamma:g}"),
        compare=_compare_log_target,
        case_keys={"cases": (("measure", "alpha", "gamma"), ())},
    ),
    # Thresholds on sigma: alpha + beta - gamma for beta > 1, alpha + 1 - gamma for beta < 1.
    "T5.3": _beta_suite(
        2.0, _BETA_ALPHA + 2.0 - _BETA_GAMMA, ("combined_carleson", "reweighted_carleson"), _compare_beta_large
    ),
    "T5.4": _beta_suite(
        0.5, _BETA_ALPHA + 1.0 - _BETA_GAMMA, ("carleson_sup", "threshold_prediction"), _compare_beta_small
    ),
    "T5.6": _log_suite(
        {"cases": _LOG_SOURCE_CASES},
        _per_spec("beta={beta:g}|gamma={gamma:g}"),
        {"alpha": 0.0},
        (("beta", "gamma"), ("expected",)),
    ),
    "T5.7": _log_suite(
        {"cases": _LOG_BORDER_CASES},
        _per_spec("gamma={gamma:g}"),
        {"alpha": 0.0},
        (("gamma",), ("expected",)),
    ),
    "T5.8": _log_suite(
        {"cases": _LOG_FAST_CASES},
        _per_spec("gamma={gamma:g}"),
        {"beta": -2.0},
        (("gamma",), ("expected",)),
    ),
    "remark5": _log_suite({"betas": [-2.0, -1.0, -0.5, 0.0, 1.0]}, _log_shift_cases, {"alpha": 0.0}),
}


def list_suites() -> list[str]:
    return sorted(_REGISTRY)


def default_config(suite: str) -> ExperimentConfig:
    if suite not in _REGISTRY:
        raise DomainError(f"unknown suite {suite!r}; known ids: {sorted(_REGISTRY)}")
    return ExperimentConfig(suite=suite)
