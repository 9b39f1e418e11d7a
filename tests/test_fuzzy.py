"""Membership functions, partitions, and stake classification."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzychain.fuzzy import (
    INTERIOR,
    SHOULDER_LEFT,
    SHOULDER_RIGHT,
    LabelAssignment,
    LinguisticVariable,
    MembershipFunction,
    OutOfUniverseError,
    classify_stake,
    hmdf,
    hmdf_win_intervals,
    make_uniform_partition,
    membership,
    membership_array,
    scale_stakes,
)

LABELS5 = ("VL", "L", "M", "H", "VH")


@pytest.fixture(scope="module")
def var5():
    return make_uniform_partition("stake", LABELS5, 0.0, 10.0)


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
    def test_vectorized_matches_scalar(self, x):
        for mf in (
            MembershipFunction(2.5, 5.0, 7.5),
            MembershipFunction(0.0, 0.0, 2.5, SHOULDER_LEFT),
            MembershipFunction(7.5, 10.0, 10.0, SHOULDER_RIGHT),
        ):
            assert membership_array(mf, np.array([x]))[0] == pytest.approx(
                membership(mf, x), abs=1e-12
            )


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
        xs = np.linspace(0, 10, 10_000)
        total = sum(membership_array(mf, xs) for mf in var5.mfs)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_non_ruspini_family_rejected(self):
        # gap between the sets: degrees sum to 0 in (4, 6)
        with pytest.raises(ValueError, match="Ruspini"):
            LinguisticVariable("bad", ("A", "B", "C"), 0.0, 10.0, (
                MembershipFunction(0, 0, 4, SHOULDER_LEFT),
                MembershipFunction(0, 4, 4, INTERIOR),
                MembershipFunction(6, 10, 10, SHOULDER_RIGHT),
            ))

    def test_unbalanced_triples_accepted(self):
        var = LinguisticVariable("skewed", ("A", "B", "C"), 0.0, 8.0, (
            MembershipFunction(0, 0, 2, SHOULDER_LEFT),
            MembershipFunction(0, 2, 8, INTERIOR),
            MembershipFunction(2, 8, 8, SHOULDER_RIGHT),
        ))
        assert hmdf(var, 1.5).label_index == 2
        assert hmdf(var, 0.5).label_index == 1


class TestHmdf:
    def test_stake_six_is_mostly_high(self, var5):
        got = hmdf(var5, 6.0)
        assert got == LabelAssignment(label_index=3, degree=pytest.approx(0.6))
        assert var5.label_of(got.label_index) == "M"

    def test_crossover_tie_goes_to_lower_label(self, var5):
        got = hmdf(var5, 3.75)
        assert got.label_index == 2
        assert got.degree == pytest.approx(0.5)

    def test_universe_ends(self, var5):
        assert hmdf(var5, 0.0) == LabelAssignment(1, 1.0)
        assert hmdf(var5, 10.0) == LabelAssignment(5, 1.0)

    def test_outside_universe_rejected(self, var5):
        with pytest.raises(OutOfUniverseError):
            hmdf(var5, 10.5)
        with pytest.raises(OutOfUniverseError):
            hmdf(var5, -0.1)

    def test_classify_clamps_grown_stakes(self, var5):
        assert classify_stake(var5, 13.7) == LabelAssignment(5, 1.0)

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
