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


@st.composite
def config_documents(draw):
    """Config documents for config_from_dict: 3, 5 or 7 labels of 0 to 40
    validators each (at least one in all), fault rates, commission and the
    reputation walk across their ranges, and exp1, custom or a small exp2 of
    at most 300 rounds x 2 repetitions."""
    n = draw(st.sampled_from([3, 5, 7]), label="labels")
    labels = [f"L{i}" for i in range(n)]
    census = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)
                  .map(lambda c: c if any(c) else [1, *c[1:]]), label="census")
    experiment = draw(st.sampled_from(["exp1", "custom", "exp2"]), label="experiment")
    doc = {
        "experiment": experiment,
        "seed": draw(st.integers(0, 2**32), label="seed"),
        "labels": labels,
        "population_per_label": dict(zip(labels, census)),
        "repetitions": draw(st.integers(1, 2), label="repetitions"),
        "byzantine_rate": draw(st.floats(0.0, 0.49), label="byzantine_rate"),
        "invalid_block_rate": draw(st.floats(0.0, 1.0), label="invalid_block_rate"),
        "commission": draw(st.floats(0.0, 5.0), label="commission"),
        "eta": draw(st.floats(0.0, 1.0, exclude_min=True), label="eta"),
        "l_divisor": draw(st.floats(0.01, 1000.0), label="l_divisor"),
        "epsilon": draw(st.floats(0.0, 1.0, exclude_max=True), label="epsilon"),
        "granularity": draw(st.sampled_from(["per-label", "per-participant"]),
                            label="granularity"),
    }
    if experiment == "exp2":
        doc["fuzzychain_rounds"] = draw(st.integers(1, 300), label="fuzzychain_rounds")
        doc["baselines"] = {"participants": draw(st.integers(1, 20), label="participants"),
                            "rounds": draw(st.integers(1, 50), label="baseline rounds")}
    else:  # one round count or a sweep of two, 300 rounds in all at most
        rounds = [draw(st.integers(1, 300), label="rounds")]
        if rounds[0] < 300 and draw(st.booleans(), label="sweep"):
            rounds.append(draw(st.integers(1, 300 - rounds[0]).filter(
                lambda r: r != rounds[0]), label="second rounds"))
        doc["rounds"] = rounds
    return doc
