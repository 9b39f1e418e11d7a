"""svg.box_stats: the box-plot quartiles, bit for bit as np.percentile gives them."""

import math
import struct

import numpy as np
from hypothesis import example, given, strategies as st

from fuzzychain.svg import box_stats

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
