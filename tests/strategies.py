"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import assume, strategies as st

from fuzzychain.fuzzy import LinguisticVariable, make_uniform_partition


@st.composite
def universes(draw):
    """(lo, hi) over moderate, tiny, huge and negative universes."""
    lo, width = draw(st.one_of(
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.1, 1e3)),
        st.tuples(st.floats(-1e-3, 1e-3), st.floats(1e-6, 1e-2)),  # tiny, about zero
        st.tuples(st.floats(1e-300, 1e-3), st.floats(1e-3, 1e300)),  # huge
        st.tuples(st.floats(-1e300, -1.0), st.floats(0.5, 3.0)).map(  # negative, huge
            lambda t: (t[0], -t[0] * t[1])),
    ), label="lo, width")
    hi = lo + width
    assume(lo < hi and math.isfinite(hi))
    return lo, hi


@st.composite
def uniform_partitions(draw):
    """Uniform partitions of 3 to 9 labels over universes()."""
    n = draw(st.sampled_from([3, 5, 7, 9]), label="labels")
    return make_uniform_partition("stake", [f"L{i}" for i in range(n)], *draw(universes()))


@st.composite
def partitions(draw):
    """Partitions of 3 to 9 labels over universes(), built from peaks at the
    universe's ends and between them, with gaps up to 100 times apart."""
    n = draw(st.sampled_from([3, 5, 7, 9]), label="labels")
    lo, hi = draw(universes())
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1), label="gaps")
    ends = [sum(gaps[:i]) / sum(gaps) for i in range(n)]
    peaks = [lo + (hi - lo) * f for f in ends]
    assume(all(p < q for p, q in zip(peaks, peaks[1:])))
    return LinguisticVariable("stake", [f"L{i}" for i in range(n)], lo, hi, peaks)
