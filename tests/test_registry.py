"""Enrollment, reputation dynamics, expulsion, trusted-set grouping."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzychain.config import config_from_dict
from fuzzychain.consensus import FuzzychainEngine, NoPanelError
from fuzzychain.experiments import build_registry, build_variable, sample_stakes_for_census
from fuzzychain.fuzzy import OutOfUniverseError, make_uniform_partition
from fuzzychain.ledger import Chain, build_block, new_keypair, sign_transaction
from fuzzychain.registry import (
    Participant,
    Registry,
    ReputationParams,
    trusted_sets_required,
    update_reputation,
)
from fuzzychain.rng import substream

LABELS = ("VL", "L", "M", "H", "VH")


def make_registry(**params):
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    return Registry(var, ReputationParams(**params))


def regroup(reg):
    """Oracle: per label, the active members' ids and reputations, rebuilt
    from scratch out of participants() in enrollment order."""
    sets = [([], []) for _ in range(reg.variable.n)]
    for p in reg.participants():
        if not p.excluded:
            ids, reps = sets[p.label_index - 1]
            ids.append(p.id)
            reps.append(p.reputation)
    return sets


def scratch_cdf(reps):
    """Oracle: the normalised reputation cdf, or None when every weight is 0."""
    if not reps.any():
        return None
    cdf = (reps / reps.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def assert_index_matches(reg):
    sets = reg.trusted_sets()
    assert all(s.reputations.dtype == np.float64 for s in sets)
    expect = regroup(reg)
    assert [([m.id for m in s], s.reputations.tolist()) for s in sets] == expect
    # each set's cached selection state equals one computed from scratch
    for s, (_, reps) in zip(sets, expect):
        reps = np.array(reps, dtype=float)
        a, cdf = s.selection()
        assert np.array_equal(a, np.flatnonzero(reps == 1.0))
        want = scratch_cdf(reps)
        assert (cdf is None) == (want is None)
        assert cdf is None or np.array_equal(cdf, want)


PICK = st.integers(0, 10**6)  # a participant, as a position modulo the registry's size
STAKES = st.floats(0.0, 12.0)
CHANGES = st.one_of(
    st.tuples(st.just("reputation"), PICK, st.sampled_from([0.0, 0.3, 0.9, 1.0])),
    st.tuples(st.just("vote"), PICK, st.booleans()),
    st.tuples(st.just("label_index"), PICK, st.integers(1, len(LABELS))),
    st.tuples(st.just("stake"), PICK, STAKES),
    st.tuples(st.just("excluded"), PICK, st.booleans()),
    st.tuples(st.just("enroll"), st.lists(STAKES, max_size=4)),
)


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

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_enroll_many_enrolls_nothing_on_a_bad_stake(self, bad):
        reg = make_registry()
        with pytest.raises(OutOfUniverseError):
            reg.enroll_many([1.0, 2.0, bad, 3.0])
        assert len(reg) == 0
        assert [len(s) for s in reg.trusted_sets()] == [0, 0, 0, 0, 0]

    def test_enroll_many_enrolls_nothing_on_a_taken_id(self):
        reg = make_registry()
        taken = reg.enroll("v0002", 5.0)
        with pytest.raises(ValueError, match="already enrolled"):
            reg.enroll_many([1.0, 2.0, 3.0])
        assert reg.participants() == [taken]
        assert_index_matches(reg)

    def test_enroll_many_after_enroll_keeps_enrollment_order(self):
        reg = make_registry()
        reg.enroll("a", 1.0)
        ps = reg.enroll_many([0.5, 9.0, 25.0])
        assert [(p.id, p.stake, p.label_index) for p in ps] == [
            ("v0001", 0.5, 1), ("v0002", 9.0, 5), ("v0003", 25.0, 5)]
        assert [p.id for p in reg.trusted_sets()[0]] == ["a", "v0001"]
        assert_index_matches(reg)

    def test_enroll_many_twice_numbers_ids_by_enrollment_position(self):
        reg = make_registry()
        first = reg.enroll_many([1.0, 2.0])
        second = reg.enroll_many([3.0, 9.0, 0.5])
        assert [p.id for p in first + second] == ["v0000", "v0001", "v0002", "v0003", "v0004"]
        assert [p.seq for p in reg.participants()] == [0, 1, 2, 3, 4]
        assert [p.id for p in reg.trusted_sets()[0]] == ["v0000", "v0004"]
        assert_index_matches(reg)

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


class TestTrustedSetIndex:
    def test_direct_writes_reach_the_sets(self):
        reg = make_registry()
        a, b, c, d, e = reg.enroll_many([0.5, 1.0, 0.2, 6.0, 9.5])
        assert [p.label_index for p in (a, b, c, d, e)] == [1, 1, 1, 3, 5]
        b.reputation = 0.7
        assert reg.trusted_sets()[0].reputations.tolist() == [1.0, 0.7, 1.0]
        b.excluded = True
        assert [m.id for m in reg.trusted_sets()[0]] == [a.id, c.id]
        c.label_index = 3
        assert [m.id for m in reg.trusted_sets()[2]] == [c.id, d.id]
        b.excluded = False  # back into its place, with the reputation it left with
        assert [m.id for m in reg.trusted_sets()[0]] == [a.id, b.id]
        assert reg.trusted_sets()[0].reputations.tolist() == [1.0, 0.7]
        assert_index_matches(reg)
        # writes to an excluded member show up when it comes back
        e.excluded = True
        e.reputation = 0.3
        e.label_index = 1
        assert len(reg.trusted_sets()[4]) == 0
        e.excluded = False
        assert [m.id for m in reg.trusted_sets()[0]] == [a.id, b.id, e.id]
        assert reg.trusted_sets()[0].reputations.tolist() == [1.0, 0.7, 0.3]
        assert_index_matches(reg)

    def test_set_stake_leaves_a_same_label_member_in_place(self):
        reg = make_registry()
        ps = reg.enroll_many([0.2, 0.4, 0.6])
        group = reg.trusted_sets()[0]
        reps = group.reputations
        reg.set_stake(ps[1].id, 0.45)
        assert group.members == ps
        assert group.reputations is reps  # not rebuilt by a remove and an insert
        reg.set_stake(ps[1].id, 2.0)
        assert group.members == [ps[0], ps[2]]
        assert_index_matches(reg)

    def test_unknown_label_is_refused_before_anything_moves(self):
        reg = make_registry()
        p = reg.enroll("a", 5.0)
        for bad in (0, 6):
            with pytest.raises(ValueError, match="label index"):
                p.label_index = bad
        assert p.label_index == 3
        assert_index_matches(reg)

    def test_hand_built_participant_needs_no_registry(self):
        p = Participant(id="x", stake=1.0, label_index=2)
        p.reputation = 0.5
        p.excluded = True
        p.label_index = 4
        assert (p.reputation, p.excluded, p.label_index) == (0.5, True, 4)

    def test_participants_do_not_keep_their_registry_alive(self):
        gc.disable()  # freed by reference counting alone, so no cycle is involved
        try:
            reg = make_registry()
            ps = reg.enroll_many([1.0, 6.0])
            ref = weakref.ref(reg)
            del reg
            assert ref() is None
        finally:
            gc.enable()
        ps[0].reputation = 0.5  # still writable once the registry is gone
        assert ps[0].reputation == 0.5

    def test_handed_out_arrays_are_read_only(self):
        reg = make_registry()
        a, b, _ = reg.enroll_many([0.5, 1.0, 6.0])
        group = reg.trusted_sets()[0]

        def assert_read_only():
            for arr in (group.reputations, *group.selection()):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.5

        assert_read_only()  # built by concatenation
        b.excluded = True
        assert_read_only()  # rebuilt by a delete
        b.excluded = False
        assert_read_only()  # rebuilt by an insert
        a.reputation = 0.4
        assert_read_only()  # written in place
        assert group.reputations.tolist() == [0.4, 1.0]
        assert_index_matches(reg)

    @given(st.lists(STAKES, min_size=1, max_size=8), st.lists(CHANGES, max_size=40))
    def test_cached_selection_follows_every_change(self, stakes, changes):
        reg = make_registry(epsilon=0.5)
        reg.enroll_many(stakes)
        assert_index_matches(reg)
        for kind, *args in changes:
            if kind == "enroll":
                reg.enroll_many(args[0])
            else:
                pick, value = args
                p = reg.participants()[pick % len(reg)]
                if kind == "vote":
                    reg.apply_vote_outcome(p.id, value)
                elif kind == "stake":
                    reg.set_stake(p.id, value)
                else:
                    setattr(p, kind, value)
            assert_index_matches(reg)

    def test_index_matches_a_regroup_after_every_round(self):
        var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
        reg = Registry(var, ReputationParams())
        reg.enroll_many(sample_stakes_for_census(var, (12, 9, 7, 5, 4), substream(8, "stakes")))
        chain = Chain()
        # a commission of 0.8 moves a winner across a label edge every few wins
        engine = FuzzychainEngine(reg, chain, commission=0.8, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(8, "keys"))
        sel, vot = substream(8, "selection"), substream(8, "votes")
        moves = expulsions = rounds = 0
        for r in range(1, 301):
            labels = {p.id: p.label_index for p in reg.participants()}
            block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
            try:
                result = engine.run_round(block, sel, vot)
            except NoPanelError:
                break
            rounds += 1
            moves += reg.get(result.winner_id).label_index != labels[result.winner_id]
            expulsions += len(result.expulsions)
            assert_index_matches(reg)
        assert moves >= 20 and expulsions >= 20 and rounds >= 200


def assert_columns_match(reg):
    """Oracle: each set against the registry's columns, and every view
    against its row."""
    store = reg._store  # the columns, as numpy arrays without a copy
    stake, label, rep, excluded = (np.asarray(col) for col in
                                   (store.stake, store.label, store.reputation, store.excluded))
    for k, s in enumerate(reg.trusted_sets(), start=1):
        positions = np.asarray(s.positions)
        assert np.array_equal(positions, np.flatnonzero((label == k) & ~excluded))
        assert np.array_equal(s.reputations, rep[positions])
    for i, pid in enumerate(reg.ids()):
        p = reg.get(pid)
        assert (p.seq, p.stake, p.label_index, p.reputation, p.excluded) == (
            i, stake[i], label[i], rep[i], excluded[i])
        assert_python_scalars(p)


def assert_python_scalars(p):
    assert [type(v) for v in (p.stake, p.reputation, p.label_index, p.excluded, p.seq)] == [
        float, float, int, bool, int]


class TestColumns:
    def test_columns_match_the_sets_and_views_after_every_round(self):
        var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
        reg = Registry(var, ReputationParams(),
                       sample_stakes_for_census(var, (12, 9, 7, 5, 4), substream(9, "stakes")))
        held = reg.participants()[::3]  # views kept alive across the run
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, commission=0.8, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(9, "keys"))
        sel, vot = substream(9, "selection"), substream(9, "votes")
        moves = expulsions = rounds = 0
        for r in range(1, 301):
            labels = reg._store.label.tolist()
            block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
            try:
                result = engine.run_round(block, sel, vot)
            except NoPanelError:
                break
            rounds += 1
            moves += reg._store.label[result.winner_seq] != labels[result.winner_seq]
            expulsions += len(result.expulsions)
            assert_columns_match(reg)
            assert all(reg.get(p.id) is p for p in held)
        assert moves >= 20 and expulsions >= 20 and rounds >= 200

    @given(st.lists(STAKES, min_size=1, max_size=8), st.lists(CHANGES, max_size=30),
           st.booleans())
    def test_view_reads_are_python_scalars(self, stakes, changes, as_numpy):
        reg = make_registry(epsilon=0.5)
        reg.enroll_many(stakes)
        numpy_type = {"reputation": np.float64, "stake": np.float64,
                      "label_index": np.int64, "excluded": np.bool_, "vote": np.bool_}
        for kind, *args in changes:
            if kind == "enroll":
                reg.enroll_many(np.array(args[0]) if as_numpy else args[0])
            else:
                pick, value = args
                p = reg.participants()[pick % len(reg)]
                if as_numpy:
                    value = numpy_type[kind](value)
                if kind == "vote":
                    reg.apply_vote_outcome(p.id, value)
                elif kind == "stake":
                    reg.set_stake(p.id, value)
                else:
                    setattr(p, kind, value)
            for p in reg.participants():
                assert_python_scalars(p)
        assert_columns_match(reg)

    def test_hand_built_participants_read_python_scalars(self):
        p = Participant(id="x", stake=np.float64(2.5), reputation=1, label_index=np.int64(2),
                        excluded=np.bool_(False))
        assert_python_scalars(p)
        assert repr(p) == ("Participant(id='x', stake=2.5, reputation=1.0, label_index=2, "
                           "excluded=False)")

    def test_building_the_population_makes_no_participant(self):
        def live_participants():
            return sum(isinstance(o, Participant) for o in gc.get_objects())

        cfg = config_from_dict({
            "experiment": "custom", "seed": 42, "granularity": "per-participant",
            "population_per_label": {"VL": 25000, "L": 15000, "M": 7500, "H": 1500, "VH": 500},
            "rounds": [100], "repetitions": 2,
        })
        before = live_participants()
        reg = build_registry(cfg, build_variable(cfg), substream(42, "custom", 100, 0, "stakes"))
        assert len(reg) == 49_500 and live_participants() == before
        p = reg.get("v49499")
        assert live_participants() == before + 1 and reg.get("v49499") is p
