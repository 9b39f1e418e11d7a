"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import assume, strategies as st

from fuzzychain.fuzzy import make_uniform_partition


@st.composite
def uniform_partitions(draw):
    """Uniform partitions of 3 to 9 labels over moderate, tiny, huge and
    negative universes."""
    n = draw(st.sampled_from([3, 5, 7, 9]), label="labels")
    lo, width = draw(st.one_of(
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.1, 1e3)),
        st.tuples(st.floats(-1e-3, 1e-3), st.floats(1e-6, 1e-2)),  # tiny, about zero
        st.tuples(st.floats(1e-300, 1e-3), st.floats(1e-3, 1e300)),  # huge
        st.tuples(st.floats(-1e300, -1.0), st.floats(0.5, 3.0)).map(  # negative, huge
            lambda t: (t[0], -t[0] * t[1])),
    ), label="lo, width")
    hi = lo + width
    assume(lo < hi and math.isfinite(hi))
    return make_uniform_partition("stake", [f"L{i}" for i in range(n)], lo, hi)
