"""Criteria: their outward shape pinned case by case, and the paper's boundaries on power densities.

The contract table pins, for every regime, mode, automatic path and error path
of the five criteria on ``lebesgue`` and ``atom_half``, the reported
``quantity``, the sorted ``details`` keys and the verdict, or the error type and
message.  It holds no float, so it reads the same on every machine.

The oracle draws power densities dmu = (1-t)^s dt.  For 0 < beta < 1 the
paper's condition for I_mu between the power-scale spaces is
s + 1 >= alpha + 2 - gamma; draws within 1/16 of that border are left out.
"""

import pytest
from hypothesis import assume, given, strategies as st

from hilbloch.catalog import resolve_measure, resolve_weight
from hilbloch.errors import HilblochError
from hilbloch.hilbert_op import (
    criterion_beta_spaces,
    criterion_bloch_to_gamma,
    criterion_general,
    criterion_log_spaces,
    criterion_moment,
)
from hilbloch.measures import power_log_density, radial_measure
from hilbloch.trend import VERDICT_BOUNDED, VERDICT_UNBOUNDED
from hilbloch.weights import power_weight

N_MAX = 2**12
DEPTH = 16
BAND = 1.0 / 16.0


def _criterion(kind: str, measure: str, kwargs: dict):
    mu = resolve_measure(measure)
    if kind in ("general", "moment"):
        criterion = criterion_general if kind == "general" else criterion_moment
        omega, nu = resolve_weight(kwargs["omega"]), resolve_weight(kwargs["nu"])
        return criterion(mu, omega, nu, kwargs["alpha"], n_max=N_MAX)
    if kind == "bloch_to_gamma":
        return criterion_bloch_to_gamma(mu, n_max=N_MAX, depth=DEPTH, **kwargs)
    if kind == "beta":
        return criterion_beta_spaces(mu, depth=DEPTH, **kwargs)
    return criterion_log_spaces(mu, n_max=N_MAX, depth=DEPTH, **kwargs)


# "criterion|measure|case": (arguments, expected).  For a result, expected is
# (quantity, sorted details keys, verdict, quantity of the companion form or
# None); for an error, (error type, message).
CONTRACT = {
    "general|lebesgue|power_0.5": (
        {"omega": "power_0.5", "nu": "power_1", "alpha": 0.5},
        ("n^(alpha+2) nu(1-1/n) gauge-weighted moment", ["alpha", "gauge_integral", "n_max"], "unbounded", None),
    ),
    "general|lebesgue|power_2": (
        {"omega": "power_2", "nu": "power_1", "alpha": 0.5},
        ("PreconditionError", "source gauge integral diverges; operator undefined on this source space"),
    ),
    "moment|lebesgue|power_0.5": (
        {"omega": "power_0.5", "nu": "power_1", "alpha": 0.5},
        ("n^(alpha+2) nu(1-1/n) mu_n", ["alpha", "compactness", "n_max"], "unbounded", None),
    ),
    "moment|lebesgue|power_1": (
        {"omega": "power_1", "nu": "power_1", "alpha": 0.5},
        (
            "PreconditionError",
            "source gauge grows without bound; plain moments lose the gauge factor, use criterion_general",
        ),
    ),
    "bloch_to_gamma|lebesgue|carleson": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "carleson"},
        (
            "tail * log^1 / (1-t)^1.5",
            ["depth", "forms_agree", "moment_form", "primary_verdict", "tails"],
            "unbounded",
            "n^(alpha+2-gamma) log-weighted moment",
        ),
    ),
    "bloch_to_gamma|lebesgue|moment": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "moment"},
        (
            "n^(alpha+2-gamma) log-weighted moment",
            ["alpha", "carleson_form", "forms_agree", "gamma", "n_max", "primary_verdict"],
            "unbounded",
            "tail * log^1 / (1-t)^1.5",
        ),
    ),
    "bloch_to_gamma|lebesgue|automatic": (
        {"alpha": 0.5, "gamma": 2.5},
        (
            "no test needed: target decay gamma >= alpha+2 absorbs the kernel growth",
            ["alpha", "automatic", "gamma"],
            "bounded",
            None,
        ),
    ),
    "bloch_to_gamma|lebesgue|gamma<=0": (
        {"alpha": 0.5, "gamma": 0.0},
        ("DomainError", "target gap power gamma must be positive"),
    ),
    "bloch_to_gamma|lebesgue|bad-mode": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "vibes"},
        ("DomainError", "unknown mode 'vibes'; expected 'carleson' or 'moment'"),
    ),
    "beta|lebesgue|large": (
        {"alpha": 0.5, "beta": 1.5, "gamma": 1.0},
        (
            "tail * log^0 / (1-t)^2",
            ["alpha", "beta", "depth", "forms_agree", "gamma", "primary_verdict", "reweighted_form", "tails"],
            "unbounded",
            "tail * log^0 / (1-t)^1.5",
        ),
    ),
    "beta|lebesgue|large-gate": (
        {"alpha": 0.5, "beta": 3.0, "gamma": 1.0},
        ("PreconditionError", "integral of dmu/(1-t)^(beta-1) diverges for this measure"),
    ),
    "beta|lebesgue|small": (
        {"alpha": 0.5, "beta": 0.5, "gamma": 1.0},
        (
            "tail * log^0 / (1-t)^1.5",
            ["alpha", "beta", "compactness", "depth", "gamma", "tails"],
            "unbounded",
            None,
        ),
    ),
    "beta|lebesgue|unit-beta": (
        {"alpha": 0.5, "beta": 1.0, "gamma": 1.0},
        ("DomainError", "source gap power beta must be positive and != 1"),
    ),
    "beta|lebesgue|gamma-range": (
        {"alpha": 0.5, "beta": 0.5, "gamma": 2.5},
        ("DomainError", "target gap power gamma must lie in (0, alpha+2)"),
    ),
    "log|lebesgue|moderate": (
        {"alpha": 0.0, "beta": 0.0, "gamma": 1.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) log^(beta+1)-weighted moment",
            ["alpha", "beta", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * log^(beta+1-gamma)(e/(1-t)) / (1-t)^(alpha+1)",
        ),
    ),
    "log|lebesgue|border": (
        {"alpha": 0.0, "beta": -1.0, "gamma": 1.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) loglog-weighted moment",
            ["alpha", "beta", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * loglog(e/(1-t)) / ((1-t)^(alpha+1) log^gamma(e/(1-t)))",
        ),
    ),
    "log|lebesgue|fast": (
        {"alpha": 0.0, "beta": -2.0, "gamma": 0.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) mu_n",
            ["alpha", "beta", "compactness", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * log^(-gamma)(e/(1-t)) / (1-t)^(alpha+1)",
        ),
    ),
    "general|atom_half|power_0.5": (
        {"omega": "power_0.5", "nu": "power_1", "alpha": 0.5},
        ("n^(alpha+2) nu(1-1/n) gauge-weighted moment", ["alpha", "gauge_integral", "n_max"], "bounded", None),
    ),
    "general|atom_half|power_2": (
        {"omega": "power_2", "nu": "power_1", "alpha": 0.5},
        ("n^(alpha+2) nu(1-1/n) gauge-weighted moment", ["alpha", "gauge_integral", "n_max"], "bounded", None),
    ),
    "moment|atom_half|power_0.5": (
        {"omega": "power_0.5", "nu": "power_1", "alpha": 0.5},
        ("n^(alpha+2) nu(1-1/n) mu_n", ["alpha", "compactness", "n_max"], "bounded", None),
    ),
    "moment|atom_half|power_1": (
        {"omega": "power_1", "nu": "power_1", "alpha": 0.5},
        (
            "PreconditionError",
            "source gauge grows without bound; plain moments lose the gauge factor, use criterion_general",
        ),
    ),
    "bloch_to_gamma|atom_half|carleson": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "carleson"},
        (
            "tail * log^1 / (1-t)^1.5",
            ["depth", "forms_agree", "moment_form", "primary_verdict", "tails"],
            "bounded",
            "n^(alpha+2-gamma) log-weighted moment",
        ),
    ),
    "bloch_to_gamma|atom_half|moment": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "moment"},
        (
            "n^(alpha+2-gamma) log-weighted moment",
            ["alpha", "carleson_form", "forms_agree", "gamma", "n_max", "primary_verdict"],
            "bounded",
            "tail * log^1 / (1-t)^1.5",
        ),
    ),
    "bloch_to_gamma|atom_half|automatic": (
        {"alpha": 0.5, "gamma": 2.5},
        (
            "no test needed: target decay gamma >= alpha+2 absorbs the kernel growth",
            ["alpha", "automatic", "gamma"],
            "bounded",
            None,
        ),
    ),
    "bloch_to_gamma|atom_half|gamma<=0": (
        {"alpha": 0.5, "gamma": 0.0},
        ("DomainError", "target gap power gamma must be positive"),
    ),
    "bloch_to_gamma|atom_half|bad-mode": (
        {"alpha": 0.5, "gamma": 1.0, "mode": "vibes"},
        ("DomainError", "unknown mode 'vibes'; expected 'carleson' or 'moment'"),
    ),
    "beta|atom_half|large": (
        {"alpha": 0.5, "beta": 1.5, "gamma": 1.0},
        (
            "tail * log^0 / (1-t)^2",
            ["alpha", "beta", "depth", "forms_agree", "gamma", "primary_verdict", "reweighted_form", "tails"],
            "bounded",
            "tail * log^0 / (1-t)^1.5",
        ),
    ),
    "beta|atom_half|large-gate": (
        {"alpha": 0.5, "beta": 3.0, "gamma": 1.0},
        (
            "tail * log^0 / (1-t)^3.5",
            ["alpha", "beta", "depth", "forms_agree", "gamma", "primary_verdict", "reweighted_form", "tails"],
            "bounded",
            "tail * log^0 / (1-t)^1.5",
        ),
    ),
    "beta|atom_half|small": (
        {"alpha": 0.5, "beta": 0.5, "gamma": 1.0},
        ("tail * log^0 / (1-t)^1.5", ["alpha", "beta", "compactness", "depth", "gamma", "tails"], "bounded", None),
    ),
    "beta|atom_half|unit-beta": (
        {"alpha": 0.5, "beta": 1.0, "gamma": 1.0},
        ("DomainError", "source gap power beta must be positive and != 1"),
    ),
    "beta|atom_half|gamma-range": (
        {"alpha": 0.5, "beta": 0.5, "gamma": 2.5},
        ("DomainError", "target gap power gamma must lie in (0, alpha+2)"),
    ),
    "log|atom_half|moderate": (
        {"alpha": 0.0, "beta": 0.0, "gamma": 1.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) log^(beta+1)-weighted moment",
            ["alpha", "beta", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * log^(beta+1-gamma)(e/(1-t)) / (1-t)^(alpha+1)",
        ),
    ),
    "log|atom_half|border": (
        {"alpha": 0.0, "beta": -1.0, "gamma": 1.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) loglog-weighted moment",
            ["alpha", "beta", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * loglog(e/(1-t)) / ((1-t)^(alpha+1) log^gamma(e/(1-t)))",
        ),
    ),
    "log|atom_half|fast": (
        {"alpha": 0.0, "beta": -2.0, "gamma": 0.0},
        (
            "n^(alpha+1) log^(-gamma)(n+1) mu_n",
            ["alpha", "beta", "compactness", "forms_agree", "gamma", "n_max", "primary_verdict", "tail_form"],
            "bounded",
            "tail * log^(-gamma)(e/(1-t)) / (1-t)^(alpha+1)",
        ),
    ),
}


@pytest.mark.parametrize("case", CONTRACT)
def test_outward_shape_is_pinned(case):
    kind, measure, _ = case.split("|")
    kwargs, expected = CONTRACT[case]
    try:
        result = _criterion(kind, measure, kwargs)
    except HilblochError as exc:
        observed = (type(exc).__name__, str(exc))
    else:
        companion = next((form["quantity"] for form in result.details.values() if isinstance(form, dict)), None)
        observed = (result.quantity, sorted(result.details), result.verdict, companion)
    assert observed == expected


@st.composite
def power_scale_draws(draw, beta_max: float):
    """(s, alpha, beta, gamma) off the border s + 1 = alpha + 2 - gamma by more than BAND."""
    s = draw(st.floats(-0.5, 3.0))
    alpha = draw(st.floats(-0.5, 2.0))
    gamma = draw(st.floats(0.0, alpha + 2.0, exclude_min=True, exclude_max=True))
    beta = draw(st.floats(0.0, beta_max, exclude_min=True, exclude_max=True))
    assume(abs(s + 1.0 - (alpha + 2.0 - gamma)) > BAND)
    return s, alpha, beta, gamma


def _paper_verdict(s: float, alpha: float, gamma: float) -> str:
    return VERDICT_BOUNDED if s + 1.0 >= alpha + 2.0 - gamma else VERDICT_UNBOUNDED


@given(power_scale_draws(beta_max=1.0))
def test_beta_spaces_match_the_paper_for_small_beta(draw):
    s, alpha, beta, gamma = draw
    result = criterion_beta_spaces(radial_measure(density=power_log_density(s)), alpha, beta, gamma)
    assert result.verdict == _paper_verdict(s, alpha, gamma)


@given(power_scale_draws(beta_max=0.95))
def test_moment_criterion_matches_the_paper_for_power_weights(draw):
    s, alpha, beta, gamma = draw
    mu = radial_measure(density=power_log_density(s))
    result = criterion_moment(mu, power_weight(beta), power_weight(gamma), alpha, n_max=2**16)
    assert result.verdict == _paper_verdict(s, alpha, gamma)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_beta_spaces_just_above_the_gate_border(alpha, beta):
    # s = beta - 2 + BAND passes the gate; the reweighted density (1-t)^(-15/16) dt
    # must build, and s + 1 < alpha + 1 + beta - gamma reads unbounded.
    s = beta - 2.0 + BAND
    result = criterion_beta_spaces(radial_measure(density=power_log_density(s)), alpha, beta, 1.0)
    assert result.verdict == VERDICT_UNBOUNDED
    assert result.details["forms_agree"]
