"""Enrollment, reputation dynamics, expulsion, trusted-set grouping."""

import pytest
from hypothesis import given, strategies as st

from fuzzychain.fuzzy import make_uniform_partition
from fuzzychain.registry import (
    Registry,
    ReputationParams,
    trusted_sets_required,
    update_reputation,
)

LABELS = ("VL", "L", "M", "H", "VH")


def make_registry(**params):
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    return Registry(var, ReputationParams(**params))


class TestReputationWalk:
    def test_perfect_record_stays_perfect(self):
        p = ReputationParams(eta=0.1, l_divisor=20)
        assert update_reputation(1.0, True, p) == 1.0

    def test_success_recovers_one_twentieth_of_eta(self):
        p = ReputationParams(eta=0.1, l_divisor=20)
        assert update_reputation(0.9, True, p) == 0.905

    def test_failure_costs_full_eta(self):
        p = ReputationParams(eta=0.1, l_divisor=20)
        assert update_reputation(0.95, False, p) == 0.85

    def test_floor_at_zero(self):
        p = ReputationParams(eta=0.1, l_divisor=20)
        assert update_reputation(0.05, False, p) == 0.0

    def test_twenty_successes_recover_one_failure_exactly(self):
        p = ReputationParams(eta=0.1, l_divisor=20)
        rep = update_reputation(1.0, False, p)
        assert rep == 0.9
        for _ in range(20):
            rep = update_reputation(rep, True, p)
        assert rep == 1.0  # snapped, not 0.9999999...

    def test_cap_at_one_with_odd_divisor(self):
        p = ReputationParams(eta=0.1, l_divisor=3)
        rep = 0.99
        for _ in range(5):
            rep = update_reputation(rep, True, p)
        assert rep == 1.0

    @given(
        st.lists(st.booleans(), min_size=1, max_size=120),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_reputation_never_leaves_unit_interval(self, outcomes, eta, l_divisor):
        p = ReputationParams(eta=eta, l_divisor=l_divisor)
        rep = 1.0
        for ok in outcomes:
            rep = update_reputation(rep, ok, p)
            assert 0.0 <= rep <= 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ReputationParams(eta=0.0)
        with pytest.raises(ValueError):
            ReputationParams(l_divisor=0)
        with pytest.raises(ValueError):
            ReputationParams(epsilon=1.0)


class TestThreshold:
    def test_values(self):
        assert trusted_sets_required(5) == 2
        assert trusted_sets_required(7) == 3
        assert trusted_sets_required(9) == 4
        assert trusted_sets_required(3) == 1

    def test_even_or_small_rejected(self):
        with pytest.raises(ValueError):
            trusted_sets_required(4)
        with pytest.raises(ValueError):
            trusted_sets_required(1)


class TestEnrollment:
    def test_classifies_on_enroll(self):
        reg = make_registry()
        p = reg.enroll("alice", 6.0)
        assert p.label_index == 3
        assert p.reputation == 1.0 and not p.excluded

    def test_duplicate_id_rejected(self):
        reg = make_registry()
        reg.enroll("alice", 6.0)
        with pytest.raises(ValueError, match="already enrolled"):
            reg.enroll("alice", 2.0)

    def test_stake_below_universe_rejected(self):
        reg = make_registry()
        with pytest.raises(ValueError, match="outside universe"):
            reg.enroll("bob", -1.0)

    def test_census_and_trusted_sets(self):
        reg = make_registry()
        for pid, stake in [("a", 0.5), ("b", 1.0), ("c", 3.0), ("d", 9.9), ("e", 9.0)]:
            reg.enroll(pid, stake)
        sets = reg.trusted_sets()
        assert [len(s) for s in sets] == [2, 1, 0, 0, 2]
        assert [p.id for p in sets[0]] == ["a", "b"]
        assert [p.id for p in sets[4]] == ["d", "e"]

    def test_enroll_many_ids_are_stable(self):
        reg = make_registry()
        ps = reg.enroll_many([1.0, 2.0, 3.0])
        assert [p.id for p in ps] == ["v0000", "v0001", "v0002"]

    def test_set_stake_reclassifies(self):
        reg = make_registry()
        reg.enroll("a", 1.2)
        assert reg.get("a").label_index == 1
        reg.set_stake("a", 1.3)
        assert reg.get("a").label_index == 2
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                reg.set_stake("a", bad)
            # a rejected stake leaves the participant as it was
            assert (reg.get("a").stake, reg.get("a").label_index) == (1.3, 2)
        with pytest.raises(ValueError):
            reg.enroll("x", float("nan"))
        assert "x" not in reg

    def test_stake_above_universe_clamps_to_top_label(self):
        reg = make_registry()
        reg.enroll("whale", 25.0)
        assert reg.get("whale").label_index == 5


class TestExpulsion:
    def test_vote_outcomes_move_reputation(self):
        reg = make_registry()
        reg.enroll("a", 5.0)
        reg.apply_vote_outcome("a", successful=False)
        assert reg.get("a").reputation == 0.9
        assert not reg.get("a").excluded  # E = 0.1 <= 0.25
        reg.apply_vote_outcome("a", successful=True)
        assert reg.get("a").reputation == 0.905

    def test_expulsion_rate_definition(self):
        reg = make_registry()
        p = reg.enroll("a", 5.0)
        assert p.expulsion_rate() == 0.0
        p.reputation = 0.8
        assert p.expulsion_rate() == pytest.approx(0.2)

    def test_exclusion_threshold(self):
        reg = make_registry(epsilon=0.25)
        reg.enroll("a", 5.0)
        reg.apply_vote_outcome("a", False)  # 0.9, E=0.1
        reg.apply_vote_outcome("a", False)  # 0.8, E=0.2
        assert not reg.get("a").excluded
        reg.apply_vote_outcome("a", False)  # 0.7, E=0.3 > 0.25
        assert reg.get("a").excluded

    def test_excluded_members_leave_active_views(self):
        reg = make_registry(epsilon=0.05)
        reg.enroll("a", 5.0)
        reg.enroll("b", 5.0)
        reg.apply_vote_outcome("a", False)
        sets = reg.trusted_sets()
        assert [p.id for p in sets[2]] == ["b"]
        assert [p.id for s in sets for p in s] == ["b"]
        assert len(reg.participants()) == 2  # still enrolled, just inactive
        assert [len(s) for s in sets] == [0, 0, 1, 0, 0]
