"""Which hilbloch functions the traced run wraps, and the per-layer metrics read from them.

Metric names follow ``<module>.<layer>_<kind>``: ``_calls`` counts calls,
``_s`` is self time (time inside the layer minus the wrapped layers it calls)
unless ``INCLUSIVE`` lists the span, and the count metrics measure the work
handed to a layer.  Every value is per round of the workload.
"""

from __future__ import annotations

import numpy as np

from tracer import Target

_SUITE_IDS = [
    "E3.1", "L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "P4.1", "T3.1", "T3.3",
    "T4.2", "T4.3", "T5.1", "T5.3", "T5.4", "T5.6", "T5.7", "T5.8", "remark5",
]


def _count_coeff_points(tracer, args, kwargs):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    tracer.count("series.eval_coeff_points", len(series.coefficients) * np.size(z))
    return args, kwargs


def _count_moment_terms(tracer, args, kwargs):
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    tracer.count("measures.moment_terms", int(n_max) + 1)
    return args, kwargs


def _count_integrand_points(tracer, args, kwargs):
    fn = args[0] if args else kwargs["fn"]

    def integrand(x):
        tracer.count("quadrature.integrand_points", np.size(x))
        return fn(x)

    if args:
        return (integrand, *args[1:]), kwargs
    return args, {**kwargs, "fn": integrand}


def _suite_span(cfg, *args, **kwargs):
    return f"suites.{cfg.suite}"


TARGETS = [
    Target("hilbloch.series", "TaylorSeries.__call__", "series.eval", _count_coeff_points),
    Target("hilbloch.series", "sup_norm", "series.sup_norm"),
    Target("hilbloch.bloch", "norm_direct", "bloch.norm_direct"),
    Target("hilbloch.bloch", "norm_dyadic_blocks", "bloch.norm_dyadic_blocks"),
    Target("hilbloch.bloch", "norm_coefficient_sum", "bloch.norm_coefficient_sum"),
    Target("hilbloch.bloch", "norm_monotone", "bloch.norm_monotone"),
    Target("hilbloch.measures", "RadialMeasure.contiguous_moments", "measures.contiguous_moments", _count_moment_terms),
    Target("hilbloch.measures", "RadialMeasure.moments_at", "measures.moments_at"),
    Target("hilbloch.measures", "RadialMeasure.integral", "measures.integral"),
    Target("hilbloch.measures", "RadialMeasure.__init__", "measures.construct"),
    Target("hilbloch.measures", "carleson_sup", "measures.carleson_sup"),
    Target("hilbloch.weights", "build_extremal", "weights.build_extremal"),
    Target("hilbloch.weights", "growth_gauge_from_gaps", "weights.growth_gauge_from_gaps"),
    Target("hilbloch.weights", "growth_gauge", "weights.growth_gauge"),
    Target("hilbloch.weights", "dyadic_sum_ratio", "weights.dyadic_sum_ratio"),
    Target("hilbloch.quadrature", "integrate_segments", "quadrature.integrate_segments", _count_integrand_points),
    Target("hilbloch.quadrature", "integrate_tail", "quadrature.integrate_tail"),
    Target("hilbloch.trend", "summarize_ladder", "trend.summarize_ladder"),
    Target("hilbloch.hilbert_op", "apply_coefficient", "hilbert_op.apply_coefficient"),
    Target("hilbloch.hilbert_op", "operator_norm_probe", "hilbert_op.operator_norm_probe"),
    *(
        Target("hilbloch.hilbert_op", name, "hilbert_op.criteria")
        for name in (
            "criterion_general",
            "criterion_moment",
            "criterion_bloch_to_gamma",
            "criterion_beta_spaces",
            "criterion_log_spaces",
            "well_defined_check",
        )
    ),
    *(Target("hilbloch.catalog", name, "catalog.resolve") for name in ("resolve_weight", "resolve_measure", "resolve_series")),
    Target("hilbloch.catalog", "probe_functions", "catalog.probe_functions"),
    Target("hilbloch.suites", "run_suite", _suite_span),
    *(Target("hilbloch.reports", name, "reports.render") for name in ("render_json", "render_csv", "render_markdown")),
]

# Spans whose ``_s`` metric is inclusive time rather than self time.
INCLUSIVE = {"bloch.norm_direct", "measures.construct", "hilbert_op.criteria", "reports.render"} | {
    f"suites.{s}" for s in _SUITE_IDS
}

# (metric, unit, kind, key): kind is "calls", "counter", "time" (self time, or
# inclusive for spans in INCLUSIVE) or "self" (always self time).
METRICS = [
    ("series.eval_calls", "count", "calls", "series.eval"),
    ("series.eval_s", "s", "time", "series.eval"),
    ("series.eval_coeff_points", "count", "counter", "series.eval_coeff_points"),
    ("series.sup_norm_calls", "count", "calls", "series.sup_norm"),
    ("series.sup_norm_s", "s", "time", "series.sup_norm"),
    ("bloch.norm_direct_calls", "count", "calls", "bloch.norm_direct"),
    ("bloch.norm_direct_s", "s", "time", "bloch.norm_direct"),
    ("bloch.norm_direct_self_s", "s", "self", "bloch.norm_direct"),
    ("bloch.norm_dyadic_blocks_s", "s", "time", "bloch.norm_dyadic_blocks"),
    ("bloch.norm_coefficient_sum_s", "s", "time", "bloch.norm_coefficient_sum"),
    ("bloch.norm_monotone_s", "s", "time", "bloch.norm_monotone"),
    ("measures.contiguous_moments_calls", "count", "calls", "measures.contiguous_moments"),
    ("measures.contiguous_moments_s", "s", "time", "measures.contiguous_moments"),
    ("measures.moment_terms", "count", "counter", "measures.moment_terms"),
    ("measures.moments_at_s", "s", "time", "measures.moments_at"),
    ("measures.integral_s", "s", "time", "measures.integral"),
    ("measures.carleson_sup_s", "s", "time", "measures.carleson_sup"),
    ("measures.construct_calls", "count", "calls", "measures.construct"),
    ("measures.construct_s", "s", "time", "measures.construct"),
    ("weights.build_extremal_calls", "count", "calls", "weights.build_extremal"),
    ("weights.build_extremal_s", "s", "time", "weights.build_extremal"),
    ("weights.growth_gauge_from_gaps_calls", "count", "calls", "weights.growth_gauge_from_gaps"),
    ("weights.growth_gauge_from_gaps_s", "s", "time", "weights.growth_gauge_from_gaps"),
    ("weights.growth_gauge_s", "s", "time", "weights.growth_gauge"),
    ("weights.dyadic_sum_ratio_s", "s", "time", "weights.dyadic_sum_ratio"),
    ("quadrature.integrate_segments_calls", "count", "calls", "quadrature.integrate_segments"),
    ("quadrature.integrate_segments_s", "s", "time", "quadrature.integrate_segments"),
    ("quadrature.integrate_tail_calls", "count", "calls", "quadrature.integrate_tail"),
    ("quadrature.integrate_tail_s", "s", "time", "quadrature.integrate_tail"),
    ("quadrature.integrand_points", "count", "counter", "quadrature.integrand_points"),
    ("trend.summarize_ladder_calls", "count", "calls", "trend.summarize_ladder"),
    ("trend.summarize_ladder_s", "s", "time", "trend.summarize_ladder"),
    ("hilbert_op.apply_coefficient_s", "s", "time", "hilbert_op.apply_coefficient"),
    ("hilbert_op.operator_norm_probe_s", "s", "time", "hilbert_op.operator_norm_probe"),
    ("hilbert_op.criteria_s", "s", "time", "hilbert_op.criteria"),
    ("catalog.resolve_calls", "count", "calls", "catalog.resolve"),
    ("catalog.resolve_s", "s", "time", "catalog.resolve"),
    ("catalog.probe_functions_s", "s", "time", "catalog.probe_functions"),
    *((f"suites.{s}_s", "s", "time", f"suites.{s}") for s in _SUITE_IDS),
    ("reports.render_s", "s", "time", "reports.render"),
]


def round_values(tracer) -> dict[str, float | int]:
    """Per-layer metric values of one traced round."""
    out: dict[str, float | int] = {}
    for metric, _unit, kind, key in METRICS:
        stats = tracer.stats.get(key)
        if kind == "counter":
            out[metric] = tracer.counters.get(key, 0)
        elif kind == "calls":
            out[metric] = stats.calls if stats else 0
        elif stats is None:
            out[metric] = 0.0
        elif kind == "time" and key in INCLUSIVE:
            out[metric] = stats.inclusive
        else:
            out[metric] = stats.self_time
    return out


def self_time_ranking(tracer) -> list[tuple[str, float]]:
    """Spans by self time, largest first; "round" holds the time outside every wrapped call."""
    return sorted(((name, s.self_time) for name, s in tracer.stats.items()), key=lambda row: -row[1])
