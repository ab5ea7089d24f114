"""Numerics for integral-kernel averaging operators on weighted Bloch spaces.

The package models radial measures on [0, 1), normal weights, and the
operator f -> integral of f(t)/(1-tz)^(alpha+1) d mu(t).  It estimates
weighted Bloch norms four independent ways, decides boundedness through
moment and Carleson-tail criteria, and cross-checks every criterion in a
registry of verification suites exposed through the ``hilbloch`` CLI.
"""

from .bloch import (
    METHOD_COEFFICIENT_SUM,
    METHOD_DIRECT,
    METHOD_DYADIC_BLOCK,
    METHOD_MONOTONE,
    NormEstimate,
    bloch_norm,
    growth_envelope_ratio,
    norm_coefficient_sum,
    norm_direct,
    norm_dyadic_blocks,
    norm_monotone,
)
from .catalog import (
    atom_ladder,
    builtin_measures,
    builtin_weights,
    catalog_builtin,
    extremal_antiderivative,
    monotone_family,
    probe_functions,
    random_signed_polynomials,
    resolve_measure,
    resolve_series,
    resolve_weight,
    series_catalog,
)
from .errors import (
    ConstructionError,
    DomainError,
    HilblochError,
    NumericsError,
    PreconditionError,
)
from .hilbert_op import (
    OperatorConfig,
    ProbeReport,
    WellDefinedReport,
    apply_coefficient,
    apply_quadrature,
    apply_sublinear,
    config_from_json as operator_config_from_json,
    config_to_json as operator_config_to_json,
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
    gamma_coefficient,
    gamma_table,
    hankel_apply,
    operator_norm_probe,
    well_defined_check,
)
from .measures import (
    RadialMeasure,
    ReweightAgreement,
    carleson_sup,
    lebesgue,
    measure_from_json,
    measure_to_json,
    moments_to_csv,
    point_mass,
    power_log_density,
    power_reweight,
    radial_measure,
    reweight_agreement,
)
from .reports import emit_report, render_csv, render_json, render_markdown, write_report
from .series import (
    BlockPolynomial,
    TaylorSeries,
    block_polynomial,
    hardy_norm,
    phi_cutoff,
    psi_cutoff,
    reconstruction_defect,
    series_from_csv,
    series_from_json,
    series_to_csv,
    series_to_json,
    sup_norm,
)
from .suites import (
    CaseResult,
    ExperimentConfig,
    VerificationReport,
    config_from_json,
    config_to_json,
    default_config,
    list_suites,
    run_suite,
)
from .trend import (
    CriterionResult,
    VERDICT_BOUNDED,
    VERDICT_INCONCLUSIVE,
    VERDICT_UNBOUNDED,
    index_ladder,
    radius_ladder,
    summarize_ladder,
    trend_slopes,
    verdict_from_trend,
)
from .weights import (
    ExtremalSeries,
    LaplaceTailReport,
    NormalWeight,
    NormalityReport,
    build_extremal,
    dyadic_sum_ratio,
    growth_gauge,
    growth_gauge_from_gaps,
    laplace_tail_ratio,
    laplace_tail_sweep,
    log_power_weight,
    normality_check,
    power_log_weight,
    power_weight,
    table_weight,
    weight_from_json,
    weight_ratio_bound,
    weight_to_json,
)

__version__ = "0.1.0"
