"""svg.box_stats: the box-plot quartiles, bit for bit as np.percentile gives them;
svg._nice_max: the y axis top, pinned at the edges of its steps."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fuzzychain import svg
from fuzzychain.svg import _nice_max, box_stats

MAGNITUDES = st.floats(1e-300, 1e300)
FLOATS = MAGNITUDES | MAGNITUDES.map(lambda x: -x)
SAMPLES = (
    st.lists(st.integers(0, 6), min_size=1, max_size=40)  # winner counts, with ties
    | st.lists(FLOATS, min_size=1, max_size=40)
    | st.lists(FLOATS | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=40)
)


def same_bits(x, y):
    """x and y are the same double, or both NaN."""
    return (math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)


@given(SAMPLES)
@example([7])
@example([-0.0])
@example([0.0, -0.0])  # min is numpy's -0.0, though np.sort puts 0.0 first
@example([math.inf])
@example([-math.inf, math.inf])
@example([1.0, math.nan, 2.0])
@example([1e300, -1e300, 1e300, 3.0])
def test_box_stats_match_numpy_percentile_min_and_max(sample):
    arr = np.asarray(sample, dtype=float)
    with np.errstate(all="ignore"):  # numpy warns where an inf makes inf - inf
        expected = [arr.min(), *(np.percentile(arr, q) for q in (25, 50, 75)), arr.max()]
    got = box_stats(sample)
    assert all(type(v) is float for v in got)
    assert all(same_bits(g, float(e)) for g, e in zip(got, expected)), (got, expected)


@pytest.mark.parametrize("value, top", [
    (-3.0, 1.0), (0.0, 1.0), (37, 50.0), (4.4e-07, 5e-07),
    # powers of ten and their predecessors: the predecessor's log10 may round up to
    # the power, or its floor land a decade lower, and either way the top is the power
    (1e-08, 1e-08), (9.999999999999999e-09, 1e-08),
    (0.001, 0.001), (0.0009999999999999998, 0.001),
    (1.0, 1.0), (0.9999999999999999, 1.0),
    (10.0, 10.0), (9.999999999999998, 10.0),
    (100.0, 100.0), (99.99999999999999, 100.0),
    (1e8, 1e8), (99999999.99999999, 1e8),
    # each step and the float above it
    (0.2, 0.2), (2.0, 2.0), (2.0000000000000004, 2.5),
    (0.25, 0.25), (2.5, 2.5), (2.5000000000000004, 5.0),
    (5.0, 5.0), (5.000000000000001, 10.0),
])
def test_nice_max_is_pinned_at_its_edges(value, top):
    got = _nice_max(value)
    assert type(got) is float and same_bits(got, top)


def test_nice_max_calls_no_numpy_function(monkeypatch):
    monkeypatch.setattr(svg, "np", None)
    assert _nice_max(37) == 50.0 and _nice_max(9.999999999999998) == 10.0
