"""JSON readers stay inside the error hierarchy: any document either builds or raises HilblochError."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hilbloch import hilbert_op, suites
from hilbloch.errors import HilblochError
from hilbloch.measures import measure_from_json
from hilbloch.series import series_from_json
from hilbloch.weights import weight_from_json

# Any JSON value, NaN and +-inf included (Python's json module reads and writes them).
PLAUSIBLE = st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, 1e-300, 1e300, 1e400, math.nan, -math.inf])
SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | PLAUSIBLE | st.text(max_size=6)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def around(draw, values: dict) -> dict:
    """An object over the reader's own keys with values of their kinds, then up to two keys
    dropped and up to two set to anything."""
    doc = {key: draw(kind) for key, kind in values.items()}
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        del doc[key]
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        doc[key] = draw(PLAUSIBLE | JSON)
    return doc


def weights(kind: str, params: dict) -> st.SearchStrategy:
    exponent = st.floats(0.01, 4.0)
    return around({"kind": st.just(kind), "a": exponent, "b": exponent, **params})


SAMPLES = st.sampled_from([[[0, 1], [0.5, 0.5], [0.9, 0.1]], [[0, 1], [0.5, None]], [[0, 1], [0.5, math.inf]]])
WEIGHTS = st.one_of(
    weights("power", {"gamma": st.floats(0.01, 4.0)}),
    weights("power_log", {"t": st.floats(0.01, 4.0), "delta": st.floats(-2.0, 2.0)}),
    weights("log_power", {"beta": st.floats(-2.0, 2.0)}),
    weights("table", {"samples": SAMPLES | st.lists(st.lists(PLAUSIBLE | JSON, max_size=3), max_size=4)}),
)
ATOMS = st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.01, 2.0)).map(list), max_size=3)
DENSITIES = around({"kind": st.just("power_log"), "s": st.floats(-0.9, 3.0), "gamma": st.floats(-1.0, 1.0)})
MEASURES = around({"atoms": ATOMS, "density": DENSITIES, "label": st.text(max_size=6)})
SUITE_CONFIGS = around(
    {
        "version": st.just(1),
        "suite": st.sampled_from(suites.list_suites()),
        "resolution_scale": st.floats(0.25, 4.0),
        "options": st.just({}),
    }
)
OPERATOR_CONFIGS = around(
    {
        "alpha": st.floats(-0.9, 3.0),
        "measure": MEASURES,
        "truncation": st.integers(1, 64),
        "rel_tol": st.floats(1e-12, 1e-3),
    }
)
SERIES = st.lists(st.floats(-1e6, 1e6) | PLAUSIBLE | JSON, min_size=1, max_size=6)

READERS = {
    "weight_from_json": (weight_from_json, WEIGHTS),
    "measure_from_json": (measure_from_json, MEASURES),
    "suites.config_from_json": (suites.config_from_json, SUITE_CONFIGS),
    "hilbert_op.config_from_json": (hilbert_op.config_from_json, OPERATOR_CONFIGS),
    "series_from_json": (series_from_json, SERIES),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reader_builds_or_raises_hilbloch_error(name, data):
    reader, docs = READERS[name]
    doc = data.draw(docs | JSON, label="doc")
    try:
        reader(doc)
    except HilblochError:
        pass
