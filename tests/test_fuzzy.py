"""Membership functions, partitions, label edges and stake classification.

Classifiers are held to hmdf, the argmax definition, never to each other.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fuzzychain.fuzzy import (
    INTERIOR,
    SHOULDER_LEFT,
    SHOULDER_RIGHT,
    LabelAssignment,
    LinguisticVariable,
    MembershipFunction,
    OutOfUniverseError,
    classify_batch,
    classify_stake,
    hmdf,
    hmdf_win_intervals,
    make_uniform_partition,
    membership,
    scale_stakes,
)
from strategies import partitions, uniform_partitions

LABELS5 = ("VL", "L", "M", "H", "VH")


@pytest.fixture(scope="module")
def var5():
    return make_uniform_partition("stake", LABELS5, 0.0, 10.0)


def non_uniform_partition():
    """Five labels with unevenly spaced peaks: crossovers at 0.5, 1.75, 4.25, 8."""
    return LinguisticVariable("stake", LABELS5, 0.0, 10.0, (0.0, 1.0, 2.5, 6.0, 10.0))


def bits(xs) -> list:
    """The float64 bit patterns of xs, so -0.0 and 0.0 differ."""
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


def stakes_about_the_edges(var) -> list:
    """Every edge and peak, the floats either side of them, the universe's
    ends and stakes above the top."""
    marks = [*var.edges, *var.peaks]
    near = [y for x in marks for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]
    hi = var.universe_hi
    return [x for x in near if x >= var.universe_lo] + [
        var.universe_lo, hi, np.nextafter(hi, np.inf), hi + abs(hi) + 1.0, 1e300, np.inf]


def assert_classifiers_follow_hmdf(var, stakes) -> None:
    """classify_batch's labels and classify_stake's int labels are hmdf's at
    each stake, clamped to the universe top."""
    expect = [hmdf(var, min(x, var.universe_hi)).label_index for x in stakes]
    assert classify_batch(var, stakes).tolist() == expect
    got = [classify_stake(var, x) for x in stakes]
    assert got == expect and all(type(g) is int for g in got)


def clipped_triangle(mf, x) -> float:
    """The degree as the lesser flank clipped to [0, 1], a vertical flank a
    step and a shoulder's flat side 1."""
    if mf.shape == SHOULDER_LEFT and x <= mf.b or mf.shape == SHOULDER_RIGHT and x >= mf.b:
        return 1.0
    rise = (x - mf.a) / (mf.b - mf.a) if mf.b > mf.a else float(x >= mf.a)
    fall = (mf.c - x) / (mf.c - mf.b) if mf.c > mf.b else float(x <= mf.c)
    return min(max(min(rise, fall), 0.0), 1.0)


class TestMembershipFunction:
    def test_interior_piecewise(self):
        mf = MembershipFunction(2.5, 5.0, 7.5)
        assert membership(mf, 2.5) == 0.0
        assert membership(mf, 5.0) == 1.0
        assert membership(mf, 7.5) == 0.0
        assert membership(mf, 3.75) == pytest.approx(0.5)
        assert membership(mf, 6.25) == pytest.approx(0.5)
        assert membership(mf, 1.0) == 0.0
        assert membership(mf, 9.0) == 0.0

    def test_shoulder_left_saturates_below_peak(self):
        mf = MembershipFunction(0.0, 0.0, 2.5, SHOULDER_LEFT)
        assert membership(mf, 0.0) == 1.0
        assert membership(mf, -3.0) == 1.0
        assert membership(mf, 1.25) == pytest.approx(0.5)
        assert membership(mf, 2.5) == 0.0

    def test_shoulder_right_saturates_above_peak(self):
        mf = MembershipFunction(7.5, 10.0, 10.0, SHOULDER_RIGHT)
        assert membership(mf, 10.0) == 1.0
        assert membership(mf, 42.0) == 1.0
        assert membership(mf, 8.75) == pytest.approx(0.5)
        assert membership(mf, 7.5) == 0.0

    def test_rejects_unordered_feet(self):
        with pytest.raises(ValueError):
            MembershipFunction(5.0, 2.0, 7.0)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            MembershipFunction(0.0, 1.0, 2.0, shape="trapezoid")

    @given(st.floats(min_value=-5, max_value=15, allow_nan=False))
    @example(0.0)
    def test_membership_matches_the_clipped_triangle(self, x):
        for mf in (
            MembershipFunction(2.5, 5.0, 7.5),
            MembershipFunction(0.0, 0.0, 2.5, SHOULDER_LEFT),
            MembershipFunction(7.5, 10.0, 10.0, SHOULDER_RIGHT),
            # degenerate triangles: zero outside [a, c] like any other
            MembershipFunction(2.0, 2.0, 5.0),
            MembershipFunction(3.0, 3.0, 3.0),
            MembershipFunction(10.0, 10.0, 10.0, SHOULDER_RIGHT),
        ):
            assert membership(mf, x) == pytest.approx(clipped_triangle(mf, x), abs=1e-12)


class TestUniformPartition:
    def test_five_label_peaks(self, var5):
        assert [mf.b for mf in var5.mfs] == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert var5.mfs[0].shape == SHOULDER_LEFT
        assert var5.mfs[-1].shape == SHOULDER_RIGHT
        assert all(mf.shape == INTERIOR for mf in var5.mfs[1:-1])

    def test_even_label_count_rejected(self):
        with pytest.raises(ValueError, match="odd label count required"):
            make_uniform_partition("stake", ["A", "B", "C", "D"], 0, 10)

    def test_too_few_labels_rejected(self):
        with pytest.raises(ValueError, match="odd label count required"):
            make_uniform_partition("stake", ["A"], 0, 10)

    def test_inverted_universe_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_partition("stake", LABELS5, 10, 0)

    def test_degrees_sum_to_one_everywhere(self, var5):
        xs = np.linspace(0, 10, 10_000).tolist()
        total = np.array([sum(membership(mf, x) for mf in var5.mfs) for x in xs])
        assert np.max(np.abs(total - 1.0)) < 1e-9

    @pytest.mark.parametrize("peaks, match", [
        ((0.0, math.nan, 10.0), "finite and strictly increasing"),
        ((0.0, 5.0, math.inf), "finite and strictly increasing"),
        ((0.0, 5.0, 5.0), "finite and strictly increasing"),
        ((0.0, 6.0, 5.0), "finite and strictly increasing"),
        # each pair is finite, but the midpoint between the last two is not
        ((0.0, 0.9e308, 1.7e308), "adjacent peaks must have a finite sum"),
        ((0.0, 2.5, 5.0, 10.0), "3 labels but 4 peaks"),
    ], ids=["nan", "inf", "equal", "decreasing", "overflowing-sum", "count"])
    def test_peaks_that_make_no_partition_are_refused(self, peaks, match):
        with pytest.raises(ValueError, match=match):
            LinguisticVariable("bad", ("A", "B", "C"), 0.0, 10.0, peaks)

    def test_an_overflowing_uniform_partition_is_refused(self):
        # its peaks 0.9e308, 1.3e308 and 1.7e308 are finite, their midpoints not
        with pytest.raises(ValueError, match="adjacent peaks must have a finite sum"):
            make_uniform_partition("s", "ABC", 0.9e308, 1.7e308)

    def test_unbalanced_triples_accepted(self):
        var = LinguisticVariable("skewed", ("A", "B", "C"), 0.0, 8.0, (0, 2, 8))
        assert hmdf(var, 1.5).label_index == 2
        assert hmdf(var, 0.5).label_index == 1
        assert_classifiers_follow_hmdf(var, stakes_about_the_edges(var))


def assert_each_edge_is_where_hmdf_first_gives_its_label(var) -> None:
    assert len(var.edges) == var.n - 1
    for k, edge in enumerate(var.edges, start=2):
        assert hmdf(var, np.nextafter(edge, -np.inf)).label_index < k
        assert hmdf(var, edge).label_index == k


def assert_edges_sit_at_or_just_above_the_peaks_midpoints(var) -> None:
    width = var.universe_hi - var.universe_lo
    for edge, (_lo, mid) in zip(var.edges, hmdf_win_intervals(var)):
        assert mid <= edge <= mid + 2 * (math.ulp(mid) + math.ulp(width))


def assert_classifiers_equal_hmdf_about_the_edges(var, data) -> None:
    near = stakes_about_the_edges(var)
    stake = st.one_of(st.floats(var.universe_lo, var.universe_hi), st.sampled_from(near),
                      st.floats(min_value=var.universe_hi, allow_nan=False))
    assert_classifiers_follow_hmdf(var, data.draw(st.lists(stake, max_size=40), label="stakes"))


class TestLabelEdges:
    @given(uniform_partitions())
    def test_each_edge_is_where_hmdf_first_gives_its_label(self, var):
        assert_each_edge_is_where_hmdf_first_gives_its_label(var)

    @given(partitions())
    def test_each_non_uniform_edge_is_where_hmdf_first_gives_its_label(self, var):
        assert_each_edge_is_where_hmdf_first_gives_its_label(var)

    @given(uniform_partitions())
    def test_edges_sit_at_or_just_above_the_peaks_midpoints(self, var):
        assert_edges_sit_at_or_just_above_the_peaks_midpoints(var)

    @given(partitions())
    def test_non_uniform_edges_sit_at_or_just_above_the_peaks_midpoints(self, var):
        assert_edges_sit_at_or_just_above_the_peaks_midpoints(var)

    @given(uniform_partitions(), st.data())
    def test_classifiers_equal_hmdf_about_the_edges(self, var, data):
        assert_classifiers_equal_hmdf_about_the_edges(var, data)

    @given(partitions(), st.data())
    def test_classifiers_equal_hmdf_about_non_uniform_edges(self, var, data):
        assert_classifiers_equal_hmdf_about_the_edges(var, data)

    @given(uniform_partitions(), st.sampled_from(["nan", "-inf", "below"]))
    def test_stakes_off_the_universe_floor_are_refused(self, var, kind):
        bad = {"nan": math.nan, "-inf": -math.inf,
               "below": np.nextafter(var.universe_lo, -np.inf)}[kind]
        with pytest.raises(OutOfUniverseError):
            classify_stake(var, bad)
        with pytest.raises(OutOfUniverseError):
            classify_batch(var, [var.universe_lo, bad])

    def test_non_uniform_edges(self):
        var = non_uniform_partition()
        # the flanks tie at the midpoints and ties go down: each edge is one float above
        assert var.edges == tuple(np.nextafter(m, np.inf) for m in (0.5, 1.75, 4.25, 8.0))
        for k, edge in enumerate(var.edges, start=2):
            assert hmdf(var, np.nextafter(edge, -np.inf)).label_index < k
            assert hmdf(var, edge).label_index == k

    def test_default_edges_lie_one_float_above_the_midpoints(self):
        var = make_uniform_partition("stake", LABELS5, 0.0, 10.0)  # the config default
        assert var.edges == tuple(np.nextafter(m, np.inf) for m in (1.25, 3.75, 6.25, 8.75))
        assert var.edges is var.edges  # derived once per partition


class TestHmdf:
    def test_stake_six_is_mostly_high(self, var5):
        got = hmdf(var5, 6.0)
        assert got == LabelAssignment(label_index=3, degree=pytest.approx(0.6))
        assert var5.labels[got.label_index - 1] == "M"

    def test_crossover_tie_goes_to_lower_label(self, var5):
        got = hmdf(var5, 3.75)
        assert got.label_index == 2
        assert got.degree == pytest.approx(0.5)

    def test_universe_ends(self, var5):
        assert hmdf(var5, 0.0) == LabelAssignment(1, 1.0)
        assert hmdf(var5, 10.0) == LabelAssignment(5, 1.0)

    def test_outside_universe_rejected(self, var5):
        for x in (10.5, -0.1, float("nan")):
            with pytest.raises(OutOfUniverseError):
                hmdf(var5, x)
        # the batch classifier clamps stakes above the top, like classify_stake
        for x in (-0.1, float("nan")):
            with pytest.raises(OutOfUniverseError):
                scale_stakes(var5, [5.0, x])

    def test_classify_clamps_grown_stakes(self, var5):
        assert classify_stake(var5, 13.7) == 5
        assert scale_stakes(var5, [13.7, 10.0]) == [LabelAssignment(5, 1.0)] * 2

    def test_win_intervals(self, var5):
        assert hmdf_win_intervals(var5) == [
            (0.0, 1.25), (1.25, 3.75), (3.75, 6.25), (6.25, 8.75), (8.75, 10.0),
        ]

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=40))
    def test_batch_matches_scalar(self, stakes):
        var = make_uniform_partition("stake", LABELS5, 0.0, 10.0)
        batch = scale_stakes(var, stakes)
        for x, got in zip(stakes, batch):
            expect = hmdf(var, x)
            assert got.label_index == expect.label_index
            assert got.degree == pytest.approx(expect.degree, abs=1e-12)

    @given(uniform_partitions(), st.data())
    def test_batch_labels_equal_classify_stake(self, var, data):
        # both classifiers against hmdf at random stakes, above the top included
        lo, hi = var.universe_lo, var.universe_hi
        stake = st.one_of(st.floats(lo, hi), st.floats(min_value=hi, allow_nan=False))
        assert_classifiers_follow_hmdf(var, data.draw(st.lists(stake, max_size=40), label="stakes"))

    @given(partitions(), st.data())
    def test_scale_stakes_degree_is_its_labels_membership(self, var, data):
        # hmdf over the clamped stakes: classify_stake's label, and that label's own
        # membership degree at the clamped stake, bit for bit
        lo, hi = var.universe_lo, var.universe_hi
        stake = st.one_of(st.floats(lo, hi), st.floats(min_value=hi, allow_nan=False))
        stakes = data.draw(st.lists(stake, max_size=40), label="stakes")
        got = scale_stakes(var, stakes)
        assert [g.label_index for g in got] == [classify_stake(var, x) for x in stakes]
        assert bits([g.degree for g in got]) == bits(
            [membership(var.mfs[g.label_index - 1], min(x, hi)) for g, x in zip(got, stakes)])

    def test_batch_ties_at_interval_edges_go_to_the_lower_label(self, var5):
        edges = [hi for _lo, hi in hmdf_win_intervals(var5)[:-1]]
        assert edges == [1.25, 3.75, 6.25, 8.75]
        assert classify_batch(var5, edges).tolist() == [1, 2, 3, 4]
        assert classify_batch(var5, [10.0, 10.5, np.inf]).tolist() == [5, 5, 5]
        assert_classifiers_follow_hmdf(var5, edges + [10.0, 10.5, np.inf])

    def test_batch_of_nothing(self, var5):
        labels = classify_batch(var5, [])
        assert labels.size == 0 and labels.dtype == np.intp
        assert scale_stakes(var5, []) == []

    def test_batch_equals_classify_stake_bit_for_bit_on_a_non_uniform_partition(self):
        var = non_uniform_partition()
        crossovers = [hi for _lo, hi in hmdf_win_intervals(var)[:-1]]
        assert crossovers == [0.5, 1.75, 4.25, 8.0]
        stakes = [0.0, 10.0, 10.5, 1e300, np.inf]
        stakes += [y for x in crossovers for y in (np.nextafter(x, -np.inf), x,
                                                    np.nextafter(x, np.inf))]
        assert_classifiers_follow_hmdf(var, stakes)
        assert classify_batch(var, stakes)[5:].tolist() == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5]
        assert_classifiers_follow_hmdf(var, stakes_about_the_edges(var))

    def test_batch_memory_does_not_grow_with_the_label_count(self):
        stakes = np.random.default_rng(3).uniform(0.0, 10.0, 49_500)

        def peak(n_labels):
            var = make_uniform_partition("stake", [f"L{i}" for i in range(n_labels)], 0, 10)
            tracemalloc.start()
            try:
                classify_batch(var, stakes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(15) <= 1.1 * peak(3)

    @pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193, 16387])
    @pytest.mark.parametrize("partition", ["uniform3", "uniform5", "uniform7", "non-uniform"])
    def test_blocks_equal_classify_stake_bit_for_bit(self, partition, size):
        if partition == "non-uniform":
            var = non_uniform_partition()
        else:
            n = int(partition[-1])
            var = make_uniform_partition("stake", [f"L{i}" for i in range(n)], -3.0, 7.3)
        lo, hi = var.universe_lo, var.universe_hi
        special = stakes_about_the_edges(var)
        rng = np.random.default_rng(size)
        stakes = rng.uniform(lo, hi + 1.0, size)
        if size >= len(special):  # spread over the batch
            stakes[np.linspace(0, size - 1, len(special)).astype(int)] = special
        else:
            stakes[:] = special[:size]
        assert_classifiers_follow_hmdf(var, stakes.tolist())

    @pytest.mark.parametrize("position", [0, 8197, 24576])
    @pytest.mark.parametrize("bad", [np.nan, -0.5])
    def test_a_stake_outside_any_block_raises_naming_the_first(self, var5, position, bad):
        stakes = np.full(24578, 5.0)
        stakes[position] = bad
        stakes[-1] = -7.0  # a later stray is not the one named
        with pytest.raises(OutOfUniverseError, match=f"^stake {bad} outside universe"):
            classify_batch(var5, stakes)

    def test_batch_allocates_nothing_stake_sized_beyond_its_outputs(self, var5):
        n = 49_500
        stakes = np.random.default_rng(4).uniform(0.0, 12.0, n)
        var5.edges  # derived once per partition, not part of the batch
        tracemalloc.start()
        try:
            labels = classify_batch(var5, stakes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the labels and one clamped copy of the stakes, plus the few edges
        assert peak <= labels.nbytes + stakes.nbytes + 1024

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    min_size=2, max_size=50))
    def test_sorted_stakes_give_monotone_labels(self, stakes):
        var = make_uniform_partition("stake", LABELS5, 0.0, 10.0)
        labels = [a.label_index for a in scale_stakes(var, sorted(stakes))]
        assert labels == sorted(labels)


class TestPartitionConfig:
    def test_uniform_from_minimal_config(self):
        var = make_uniform_partition("stake", ["LO", "MID", "HI"], 0, 6)
        assert [mf.b for mf in var.mfs] == [0.0, 3.0, 6.0]
        assert var.name == "stake"
