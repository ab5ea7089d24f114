"""Tests of the layer tracer: traced results equal untraced ones, times add up.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hilbloch  # noqa: E402
import layers  # noqa: E402
from hilbloch import bloch, catalog, cli, quadrature, suites, weights  # noqa: E402
from tracer import Tracer  # noqa: E402

VERIFY_ARGV = ["verify", "--suite", "E3.1", "--suite", "P4.1", "--suite", "T5.4", "--format", "json"]


def _verify_doc():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(VERIFY_ARGV)
    doc = json.loads(out.getvalue())
    for report in doc["reports"]:
        report.pop("wall_time")
    return code, doc


def _library_results():
    mu = hilbloch.resolve_measure("density_-0.5")
    f = hilbloch.random_signed_polynomials(1, 300, 5)[0][1]
    w = hilbloch.resolve_weight("power_1")
    image = hilbloch.apply_coefficient(hilbloch.resolve_series("harmonic", 64), hilbloch.OperatorConfig(0.5, mu, 64))
    return [
        mu.contiguous_moments(2**10),
        image.coefficients,
        hilbloch.norm_direct(f, w).to_dict(),
        hilbloch.norm_dyadic_blocks(f, w).to_dict(),
    ]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(layers.TARGETS)
    t.enter("root")
    yield t
    if t._stack:
        t.exit()
    t.uninstall()


def test_traced_results_equal_untraced():
    plain_verify, plain_library = _verify_doc(), _library_results()
    t = Tracer()
    t.install(layers.TARGETS)
    try:
        traced_verify, traced_library = _verify_doc(), _library_results()
    finally:
        t.uninstall()
    assert traced_verify == plain_verify
    for plain, traced in zip(plain_library, traced_library):
        if isinstance(plain, np.ndarray):
            assert np.array_equal(plain, traced)
        else:
            assert plain == traced
    assert t.stats["series.eval"].calls > 0 and t.stats["suites.P4.1"].calls == 1


def test_wrapper_returns_the_very_object(tracer):
    mu = hilbloch.lebesgue()
    assert catalog.resolve_measure(mu) is mu
    assert tracer.stats["catalog.resolve"].calls == 1


def test_self_times_add_up_to_root(tracer):
    _verify_doc()
    _library_results()
    tracer.exit()
    root = tracer.stats["root"].inclusive
    total_self = sum(s.self_time for s in tracer.stats.values())
    assert total_self == pytest.approx(root, rel=1e-9)
    assert all(span[2] is not None for span in tracer.spans)


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "quadrature": quadrature.integrate_segments,
        "weights": weights.integrate_segments,
        "alias": suites._resolve_weight,
        "table": bloch._METHODS["direct"],
        "call": hilbloch.TaylorSeries.__dict__["__call__"],
    }
    t = Tracer()
    t.install(layers.TARGETS)
    try:
        current = {
            "quadrature": quadrature.integrate_segments,
            "weights": weights.integrate_segments,
            "alias": suites._resolve_weight,
            "table": bloch._METHODS["direct"],
            "call": hilbloch.TaylorSeries.__dict__["__call__"],
        }
        for key, fn in current.items():
            assert fn is not originals[key] and fn.__wrapped__ is originals[key], key
        assert quadrature.integrate_segments is weights.integrate_segments
    finally:
        t.uninstall()
    assert quadrature.integrate_segments is originals["quadrature"]
    assert weights.integrate_segments is originals["weights"]
    assert suites._resolve_weight is originals["alias"]
    assert bloch._METHODS["direct"] is originals["table"]
    assert hilbloch.TaylorSeries.__dict__["__call__"] is originals["call"]


def test_work_counters(tracer):
    f = hilbloch.TaylorSeries(np.ones(11))
    f(np.linspace(0.0, 0.5, 7))
    hilbloch.lebesgue().contiguous_moments(100)
    assert tracer.counters["series.eval_coeff_points"] == 11 * 7
    assert tracer.counters["measures.moment_terms"] == 101
    before = tracer.counters.get("quadrature.integrand_points", 0)
    quadrature.integrate_segments(lambda x: x * x, [0.0, 1.0])
    assert tracer.counters["quadrature.integrand_points"] - before == 16 + 32
