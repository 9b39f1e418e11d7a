"""Inequality and moment statistics against independent brute-force oracles."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fuzzychain.ids import EnrollmentIds
from fuzzychain.metrics import (
    DegenerateDistributionError,
    FrequencyTable,
    _shape_statistics,
    gini,
    kurtosis,
    skewness,
    summarize_counts,
)


def gini_double_sum(xs):
    """O(n^2) definition, kept deliberately independent of the implementation."""
    n = len(xs)
    # 2 n^2 mean written as 2 n sum: the mean of subnormal values can round to 0
    return sum(abs(a - b) for a in xs for b in xs) / (2 * n * sum(xs))


def moments(xs):
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    return m2, m3, m4


def shape_statistics_direct(values):
    """_shape_statistics with every deviation raised to powers 3 and 4,
    the form its unique-value powers must reproduce bit for bit."""
    arr = np.asarray(values, dtype=float)
    dev = arr - arr.mean()
    m2 = np.mean(dev**2)
    if m2 == 0:
        return None
    m3, m4 = np.mean(dev**3), np.mean(dev**4)
    return float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)


def assert_same_bits_as_direct(values):
    with np.errstate(all="ignore"):  # both forms overflow alike on huge floats
        expect = shape_statistics_direct(values)
        if expect is None:
            with pytest.raises(DegenerateDistributionError):
                _shape_statistics(values, "shape statistics")
            return
        got = _shape_statistics(values, "shape statistics")
    assert [x.hex() for x in got] == [x.hex() for x in expect]


def shape_statistics_return_inverse(values):
    """(skewness, kurtosis) with the inverse taken by np.unique's
    return_inverse, or None where they are undefined."""
    arr = np.asarray(values, dtype=float)
    dev = arr - arr.mean()
    m2 = np.mean(dev**2)
    if m2 == 0:
        return None
    u, inv = np.unique(dev, return_inverse=True)
    m3, m4 = np.mean((u**3)[inv]), np.mean((u**4)[inv])
    return float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)


def assert_same_bits_as_return_inverse(values, *, summarize=True):
    """skewness, kurtosis and (for values gini accepts) summarize_counts
    equal the return_inverse formula bit for bit."""
    with np.errstate(all="ignore"):  # both forms overflow alike on huge floats
        expect = shape_statistics_return_inverse(values)
        if expect is None:
            for statistic in (skewness, kurtosis):
                with pytest.raises(DegenerateDistributionError):
                    statistic(values)
        else:
            assert skewness(values).hex() == expect[0].hex()
            assert kurtosis(values).hex() == expect[1].hex()
        if summarize:
            out = summarize_counts(values)
            got = (out["skewness"], out["kurtosis"])
            assert got == (None, None) if expect is None else [
                x.hex() for x in got] == [x.hex() for x in expect]


positive_vectors = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=12,
).filter(lambda xs: sum(xs) > 0)

normal_positive_vectors = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_subnormal=False),
    min_size=1, max_size=12,
).filter(lambda xs: sum(xs) > 0)


class TestGini:
    def test_total_equality(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_single_holder(self):
        assert gini([1, 0, 0, 0]) == pytest.approx(0.75, abs=1e-12)
        assert gini([1, 0, 0, 0]) == pytest.approx(gini_double_sum([1, 0, 0, 0]), abs=1e-12)

    def test_single_holder_general_form(self):
        # one holder among n: G = (n - 1) / n
        for n in (2, 3, 7, 50):
            xs = [1.0] + [0.0] * (n - 1)
            assert gini(xs) == pytest.approx((n - 1) / n, abs=1e-12)

    def test_moderately_uneven_counts(self):
        xs = [46, 45, 35, 83, 91]
        expect = gini_double_sum(xs)
        assert gini(xs) == pytest.approx(expect, abs=1e-12)
        assert 0.15 < gini(xs) < 0.25

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            gini([])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDistributionError, match="zero"):
            gini([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gini([3, -1, 2])

    @given(positive_vectors)
    def test_matches_double_sum_oracle(self, xs):
        assert gini(xs) == pytest.approx(gini_double_sum(xs), rel=1e-9, abs=1e-9)

    # Subnormal inputs are excluded: scaling one rounds away most of its few
    # bits (c * 5e-324 is 0 for c <= 0.5), so the floats no longer hold the
    # scaled distribution and the property is false for them.
    @given(normal_positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, xs, c):
        assert gini([c * x for x in xs]) == pytest.approx(gini(xs), rel=1e-7, abs=1e-9)

    # every product and partial sum stays an integer below 2**53, so the
    # float sum is exact and the one rounding is the final division
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300)
           .filter(lambda xs: sum(xs) > 0))
    @example([0] * 299 + [10**6])
    @example([10**6] * 300)
    def test_integer_counts_equal_the_exact_ratio(self, xs):
        n, srt = len(xs), sorted(xs)
        s = sum((2 * i - n - 1) * x for i, x in enumerate(srt, start=1))
        assert gini(np.array(xs, dtype=np.int64)) == s / (n * sum(xs))

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=8)
        .filter(lambda xs: sum(xs) > 0),
        st.data(),
    )
    def test_pigou_dalton_transfers_never_increase_gini(self, xs, data):
        i = data.draw(st.integers(0, len(xs) - 1), label="from")
        j = data.draw(st.integers(0, len(xs) - 1), label="to")
        if xs[i] <= xs[j]:
            i, j = j, i
        gap = xs[i] - xs[j]
        if gap == 0:
            return
        delta = data.draw(st.integers(1, max(gap // 2, 1)), label="delta")
        before = gini(xs)
        ys = list(xs)
        ys[i] -= delta
        ys[j] += delta
        after = gini(ys)
        assert after <= before + 1e-12
        assert after == pytest.approx(gini_double_sum(ys), rel=1e-9, abs=1e-9)


class TestShapeStatistics:
    def test_symmetric_skewness_is_zero(self):
        assert skewness([1, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_one_spike_skewness(self):
        assert skewness([0, 0, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_two_point_kurtosis(self):
        assert kurtosis([0, 1, 0, 1]) == pytest.approx(-2.0, abs=1e-12)

    def test_spike_among_equals_is_leptokurtic(self):
        assert kurtosis([0, 0, 0, 1, 0, 0, 0]) > 0

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            skewness([4, 4, 4])
        with pytest.raises(DegenerateDistributionError):
            kurtosis([4.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            skewness([])
        with pytest.raises(DegenerateDistributionError):
            kurtosis([])

    varied = st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=3, max_size=12,
    ).filter(lambda xs: max(xs) - min(xs) > 1e-3)

    @given(varied)
    def test_skewness_matches_moment_oracle(self, xs):
        m2, m3, _ = moments(xs)
        assert skewness(xs) == pytest.approx(m3 / m2**1.5, rel=1e-7, abs=1e-7)

    @given(varied)
    def test_kurtosis_matches_moment_oracle(self, xs):
        m2, _, m4 = moments(xs)
        assert kurtosis(xs) == pytest.approx(m4 / m2**2 - 3, rel=1e-7, abs=1e-7)

    @given(varied)
    def test_mirroring_negates_skewness(self, xs):
        assert skewness([-x for x in xs]) == pytest.approx(-skewness(xs), rel=1e-6, abs=1e-7)

    @given(varied, st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=-100, max_value=100))
    def test_affine_invariance(self, xs, a, b):
        ys = [a * x + b for x in xs]
        assert skewness(ys) == pytest.approx(skewness(xs), rel=1e-4, abs=1e-6)
        assert kurtosis(ys) == pytest.approx(kurtosis(xs), rel=1e-4, abs=1e-6)

    @given(st.integers(1, 60_000), st.integers(0, 5_000), st.integers(0, 2**63 - 1))
    @example(1, 10, 0)  # single category
    @example(49_500, 0, 0)  # every count 0: zero variance
    @example(49_500, 1, 0)
    def test_integer_counts_equal_the_direct_powers_bit_for_bit(self, n, top, seed):
        assert_same_bits_as_direct(np.random.default_rng(seed).integers(0, top + 1, n))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([0.5])
    @example([-0.0, 0.0, 1.0, -1.0])
    @example([2.5, 2.5, 2.5])
    def test_floats_equal_the_direct_powers_bit_for_bit(self, xs):
        assert_same_bits_as_direct(xs)


    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=60)
           | st.lists(st.integers(0, 3), min_size=1, max_size=60)
           | st.integers(1, 60).map(lambda n: [7] * n))
    @example([0])
    @example([0, 0, 0])
    @example([2**40, 0, 0, 2**40 - 1])
    def test_integer_counts_equal_the_return_inverse_form_bit_for_bit(self, counts):
        assert_same_bits_as_return_inverse(counts)
        assert_same_bits_as_return_inverse(np.array(counts, dtype=np.int64))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([-0.0, 0.0, 1.0, -1.0])
    @example([1e308, -1e308, 5e-324])
    def test_floats_equal_the_return_inverse_form_bit_for_bit(self, xs):
        # summarize_counts takes counts, so only non-negative values reach its gini
        assert_same_bits_as_return_inverse(xs, summarize=min(xs) >= 0)


class TestFrequencyTable:
    def test_counts_follow_category_order(self):
        t = FrequencyTable.tally(["b", "a", "c"], [2, 1, 1, 1])  # c, a, a, a
        assert t.counts().tolist() == [0, 3, 1]
        assert t.as_dict() == {"b": 0, "a": 3, "c": 1}
        assert t.total() == 4

    def test_unknown_category_rejected(self):
        # a position past the last category would grow the count vector
        with pytest.raises(ValueError, match="shape"):
            FrequencyTable.tally(["a"], [0, 1])

    def test_counts_tallied_before_construction(self):
        counts = np.array([0, 3, 1])
        t = FrequencyTable(["b", "a", "c"], counts)
        assert t.counts().tolist() == [0, 3, 1]
        assert t.counts().dtype == np.int64
        assert t.total() == 4
        # the table keeps its own read-only copy
        counts[0] = 7
        assert t.as_dict() == {"b": 0, "a": 3, "c": 1}
        assert not t.counts().flags.writeable
        with pytest.raises(TypeError):
            FrequencyTable(["a"], [1.5])

    def test_a_given_vector_is_copied_and_left_writable(self):
        counts = np.array([0, 3, 1], dtype=np.int64)  # already the table's dtype
        t = FrequencyTable(["b", "a", "c"], counts)
        assert counts.flags.writeable and not t.counts().flags.writeable
        assert not np.shares_memory(counts, t.counts())

    def test_tally_keeps_the_one_count_vector_it_makes(self):
        n = 10**6
        tracemalloc.start()
        try:
            t = FrequencyTable.tally(EnrollmentIds(n), [0, 7, n - 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.counts().tolist()[-1] == 1 and t.total() == 3
        assert peak < 1.25 * 8 * n  # one int64 count vector, not a second copy of it

    def test_empty_table(self):
        for counts in ([], (), np.zeros(0)):
            t = FrequencyTable((), counts)
            assert t.counts().dtype == np.int64 and t.counts().shape == (0,)
            assert t.total() == 0
            assert t.as_dict() == {}

    def test_float_counts_rejected(self):
        for counts in ([1.5, 2.0], np.array([1.0, 2.0])):
            with pytest.raises(TypeError):
                FrequencyTable(["a", "b"], counts)

    def test_unknown_tallied_category_rejected(self):
        # a count vector must hold exactly one count per category
        for counts in ([1, 2], [], [[1]], 1):
            with pytest.raises(ValueError, match="shape"):
                FrequencyTable(["a"], counts)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FrequencyTable.tally(["a", "a"], [])

    def test_duplicates_rejected_on_every_call(self):
        ids = tuple(f"v{i}" for i in range(100))
        for _ in range(2):
            assert FrequencyTable.tally(tuple(list(ids)), [0]).total() == 1  # an equal tuple
            with pytest.raises(ValueError, match="duplicate"):
                FrequencyTable.tally(ids + ("v7",), [0])

    def test_merge_requires_same_categories(self):
        # pooling sums vectors position by position, so it needs one category list
        t1 = FrequencyTable.tally(["a", "b"], [0])
        t2 = FrequencyTable.tally(["a", "b", "c"], [2])
        with pytest.raises(ValueError, match="shape"):
            FrequencyTable(t1.categories, t2.counts())

    def test_merge_adds_counts(self):
        t1 = FrequencyTable.tally(["a", "b"], [0])
        t2 = FrequencyTable.tally(["a", "b"], [0, 1, 1, 1, 1, 1])
        pooled = FrequencyTable(t1.categories, t1.counts() + t2.counts())
        assert pooled.counts().tolist() == [2, 5]
        assert t1.counts().tolist() == [1, 0]

    @given(st.lists(st.text(max_size=3), unique=True, min_size=1, max_size=8).flatmap(
        lambda cats: st.tuples(st.just(cats),
                               st.lists(st.integers(0, len(cats) - 1), max_size=40))))
    def test_tally_matches_counter_oracle(self, case):
        categories, positions = case
        t = FrequencyTable.tally(categories, positions)
        oracle = Counter(categories[i] for i in positions)
        assert t.as_dict() == {c: oracle[c] for c in categories}
        assert list(t.as_dict()) == categories
        assert t.counts().dtype == np.int64
        assert t.total() == len(positions)


class TestSummarize:
    def test_flat_counts_report_none_for_shape_stats(self):
        out = summarize_counts([20, 20, 20, 20, 20])
        assert out["gini"] == 0.0
        assert out["skewness"] is None
        assert out["kurtosis"] is None
        assert out["mean"] == 20.0

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=50))
    def test_shape_stats_equal_the_standalone_functions(self, counts):
        out = summarize_counts(counts)
        try:
            assert (out["skewness"], out["kurtosis"]) == (skewness(counts), kurtosis(counts))
        except DegenerateDistributionError:
            assert out["skewness"] is None and out["kurtosis"] is None

    def test_peak_memory_within_four_float_vectors_at_495000_counts(self):
        # a 495,000-validator run's per-participant count vector
        counts = np.random.default_rng(0).poisson(2.0, 495_000)
        tracemalloc.start()
        try:
            out = summarize_counts(counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out["gini"] is not None and out["kurtosis"] is not None
        # the float copy, gini's sort and terms, the shape statistics' deviations
        # and their sort: each temporary is dropped once the next is made
        assert peak <= 4 * 8 * len(counts)

    def test_regular_counts_report_everything(self):
        out = summarize_counts([46, 45, 35, 83, 91])
        assert out["gini"] == pytest.approx(gini_double_sum([46, 45, 35, 83, 91]))
        assert out["skewness"] is not None and out["kurtosis"] is not None
        assert out["mean"] == pytest.approx(60.0)
        assert out["std"] == pytest.approx(float(np.std([46, 45, 35, 83, 91])))
