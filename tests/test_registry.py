"""Enrollment, reputation dynamics, expulsion, trusted-set grouping."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzychain import fuzzy, registry
from fuzzychain.config import config_from_dict
from fuzzychain.consensus import FuzzychainEngine, NoPanelError
from fuzzychain.experiments import build_registry, build_variable, sample_stakes_for_census
from fuzzychain.fuzzy import OutOfUniverseError, make_uniform_partition
from fuzzychain.ids import EnrollmentIds
from fuzzychain.ledger import Chain, build_block, new_keypair, sign_transaction
from fuzzychain.registry import (
    Registry,
    ReputationParams,
    trusted_sets_required,
    update_reputation,
)
from fuzzychain.rng import substream

LABELS = ("VL", "L", "M", "H", "VH")


def make_registry(stakes, **params):
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    return Registry(var, stakes, ReputationParams(**params))


def scratch_cdf(reps):
    """Oracle: the normalised reputation cdf, or None when every weight is 0."""
    if not reps.any():
        return None
    cdf = (reps / reps.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def assert_sets_match(reg) -> int:
    """Oracle: each trusted set against a rebuild from columns(). The entries
    already cached are checked first, before anything rebuilds them; then every
    set's positions, members and entry. An entry is (positions, A, cdf), read-only
    memoryviews of the active rows of its label, of the positions among them of
    the reputation-1 members, and of their cdf. Returns the number of entries
    that were cached."""
    _, label, rep, excluded = (np.asarray(col) for col in reg.columns())

    def check(k, entry):
        positions, a, cdf = entry
        want = np.flatnonzero((label == k + 1) & ~excluded)
        assert positions.tolist() == want.tolist()
        assert a.tolist() == np.flatnonzero(rep[want] == 1.0).tolist()
        want_cdf = scratch_cdf(rep[want])
        assert (cdf is None) == (want_cdf is None)
        assert cdf is None or cdf.tolist() == want_cdf.tolist()
        assert all(view.readonly for view in entry if view is not None)

    cached = [(k, entry) for k, entry in enumerate(reg._selections) if entry is not None]
    for k, entry in cached:
        check(k, entry)
    for k in range(reg.variable.n):
        entry = reg.draw_views(k)
        assert entry[0] is reg.trusted_set(k)
        check(k, entry)
    return len(cached)


PICK = st.integers(0, 10**6)  # a participant, as a position modulo the registry's size
STAKES = st.floats(0.0, 12.0)
CHANGES = st.one_of(
    st.tuples(st.just("reputation"), PICK, st.sampled_from([0.0, 0.3, 0.9, 1.0])),
    st.tuples(st.just("vote"), PICK, st.booleans()),
    st.tuples(st.just("stake"), PICK, STAKES),
    st.tuples(st.just("expel"), PICK, st.none()),
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
        reg = make_registry([6.0])
        seq, = reg.participants()
        _, label, rep, excluded = reg.columns()
        assert label[seq] == 3
        assert rep[seq] == 1.0 and not excluded[seq]

    def test_stake_below_universe_rejected(self):
        with pytest.raises(ValueError, match="outside universe"):
            make_registry([-1.0])

    def test_census_and_trusted_sets(self):
        reg = make_registry([0.5, 1.0, 3.0, 9.9, 9.0])
        a, b, _, d, e = reg.participants()
        sets = reg.trusted_sets()
        assert [len(s) for s in sets] == [2, 1, 0, 0, 2]
        assert sets[0].tolist() == [a, b]
        assert sets[4].tolist() == [d, e]

    def test_a_built_registry_classifies_no_stake(self, monkeypatch):
        cfg = config_from_dict({
            "experiment": "custom", "seed": 3, "rounds": [10], "repetitions": 1,
            "population_per_label": {"VL": 700, "L": 400, "M": 0, "H": 30, "VH": 9},
        })
        var = build_variable(cfg)
        stakes = sample_stakes_for_census(var, (700, 400, 0, 30, 9), substream(3, "stakes"))
        classified = []

        def counted(variable, xs):
            classified.append(xs)

        for module, name in ((fuzzy, "classify_batch"), (registry, "classify_batch"),
                             (registry, "classify_stake")):
            monkeypatch.setattr(module, name, counted)
        built = build_registry(cfg, var, substream(3, "stakes"))
        assert classified == []  # the sampler checks the census against the label edges
        monkeypatch.undo()
        enrolled = Registry(var, stakes, built.params)
        for got, want in zip(built.columns(), enrolled.columns()):
            assert np.array_equal(np.asarray(got), np.asarray(want))
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert built.ids() == enrolled.ids()

    def test_enroll_many_ids_are_stable(self):
        reg = make_registry([1.0, 2.0, 3.0])
        ps = reg.participants()
        assert ps == range(3)
        assert [reg.ids()[seq] for seq in ps] == ["v0000", "v0001", "v0002"]

    @pytest.mark.parametrize("first, end", [
        (0, 0), (10_000, 10_000),  # no ids
        (0, 1), (37, 456), (9_901, 9_999),  # width 4
        (9_950, 10_050), (99_937, 99_999),  # width 5
        (99_901, 100_123), (999_937, 999_999),  # width 6
        (999_950, 1_000_050), (999_999, 1_000_000), (1_234_567, 1_234_601),  # width 7
    ])
    def test_enrollment_ids_are_v_and_the_zero_padded_position(self, first, end):
        # the ids of a registry of end participants, read at positions first..end
        ids = EnrollmentIds(end)
        want = ["v" + str(i).zfill(max(4, len(str(end)))) for i in range(first, end)]
        assert [ids[i] for i in range(first, end)] == want
        spell = ids.speller()
        assert [spell(i) for i in range(first, end)] == want
        assert ids.joined(first, end, ",") == ",".join(want)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_enroll_many_enrolls_nothing_on_a_bad_stake(self, bad):
        with pytest.raises(OutOfUniverseError):
            make_registry([1.0, 2.0, bad, 3.0])

    def test_a_registry_enrolls_once(self):
        # empty stakes give an empty registry
        empty = make_registry([])
        assert len(empty) == 0 and len(empty.ids()) == 0 and empty.participants() == range(0)
        assert [len(s) for s in empty.trusted_sets()] == [0, 0, 0, 0, 0]
        assert [np.asarray(col).dtype for col in empty.columns()] == [
            np.float64, np.int64, np.float64, np.bool_]
        stakes = np.array([1.0, 9.0, 0.5])
        reg = make_registry(stakes)
        ps = reg.participants()
        assert [reg.ids()[seq] for seq in ps] == ["v0000", "v0001", "v0002"]
        stakes[0] = 5.0
        assert reg.columns()[0][ps[0]] == 1.0  # the stake column is a copy of the caller's array
        reg.set_stake(1, 2.0)
        assert len(reg) == 3
        assert_sets_match(reg)

    @pytest.mark.parametrize("stakes, shape", [
        (5.0, r"\(\)"), ([[1.0, 2.0]], r"\(1, 2\)"), (np.ones((2, 3)), r"\(2, 3\)"),
        (np.ones((0, 2)), r"\(0, 2\)"),
    ])
    def test_stakes_must_be_one_dimensional(self, stakes, shape):
        with pytest.raises(ValueError, match=f"shape {shape}"):
            make_registry(stakes)

    def test_set_stake_reclassifies(self):
        reg = make_registry([1.2])
        seq, = reg.participants()
        stake, label, _, _ = reg.columns()
        assert label[seq] == 1
        reg.set_stake(seq, 1.3)
        assert label[seq] == 2
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                reg.set_stake(seq, bad)
            # a rejected stake leaves the participant as it was
            assert (stake[seq], label[seq]) == (1.3, 2)
        with pytest.raises(ValueError):
            make_registry([float("nan")])
        assert len(reg) == 1

    def test_stake_above_universe_clamps_to_top_label(self):
        reg = make_registry([25.0])
        whale, = reg.participants()
        assert reg.columns()[1][whale] == 5


class TestIdIndex:
    """Positions are the only index: each id is its position spelled out."""

    def test_rounds_build_no_id_index(self):
        reg = build_population()
        ids = reg.ids()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, commission=0.05, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(10, "keys"))
        sel, vot = substream(10, "selection"), substream(10, "votes")
        for r in range(1, 51):
            block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
            engine.run_round(block, sel, vot)
        assert reg.ids() is ids  # rounds leave the ids as enrollment built them
        assert ids[49_499] == "v49499"

    def test_settlement_refuses_a_position_outside_the_registry(self):
        reg = make_registry([1.0, 6.0])
        for seq in (-1, 2):
            with pytest.raises(IndexError):
                reg.apply_vote_outcome(seq, False)
            with pytest.raises(IndexError):
                reg.set_stake(seq, 9.0)
            with pytest.raises(IndexError):
                reg.set_reputation(seq, 0.5)
            with pytest.raises(IndexError):
                reg.expel(seq)
        stake, label, rep, excluded = reg.columns()
        assert (stake.tolist(), label.tolist(), rep.tolist(), excluded.tolist()) == (
            [1.0, 6.0], [1, 3], [1.0, 1.0], [False, False])
        with pytest.raises(TypeError):
            rep[0] = 0.5  # the columns are handed out read-only


class TestExpulsion:
    def test_vote_outcomes_move_reputation(self):
        reg = make_registry([5.0])
        a, = reg.participants()
        _, _, rep, excluded = reg.columns()
        reg.apply_vote_outcome(a, successful=False)
        assert rep[a] == 0.9
        assert not excluded[a]  # E = 0.1 <= 0.25
        reg.apply_vote_outcome(a, successful=True)
        assert rep[a] == 0.905

    def test_expulsion_rate_definition(self):
        # E = 1 - reputation: a member is expelled once E exceeds epsilon
        reg = make_registry([5.0], epsilon=0.25)
        p, = reg.participants()
        _, _, rep, excluded = reg.columns()
        assert 1.0 - rep[p] == 0.0
        reg.set_reputation(p, 0.8)
        assert 1.0 - rep[p] == pytest.approx(0.2)
        assert not excluded[p]  # a direct write re-checks nothing
        reg.apply_vote_outcome(p, successful=True)  # 0.805, E = 0.195 <= 0.25
        assert not excluded[p]
        reg.apply_vote_outcome(p, successful=False)  # 0.705, E = 0.295 > 0.25
        assert excluded[p]

    def test_exclusion_threshold(self):
        reg = make_registry([5.0], epsilon=0.25)
        a, = reg.participants()
        excluded = reg.columns()[3]
        reg.apply_vote_outcome(a, False)  # 0.9, E=0.1
        reg.apply_vote_outcome(a, False)  # 0.8, E=0.2
        assert not excluded[a]
        reg.apply_vote_outcome(a, False)  # 0.7, E=0.3 > 0.25
        assert excluded[a]

    def test_excluded_members_leave_active_views(self):
        reg = make_registry([5.0, 5.0], epsilon=0.05)
        a, b = reg.participants()
        reg.apply_vote_outcome(a, False)
        sets = reg.trusted_sets()
        assert sets[2].tolist() == [b]
        assert [seq for s in sets for seq in s] == [b]
        assert len(reg.participants()) == 2  # still enrolled, just inactive
        assert [len(s) for s in sets] == [0, 0, 1, 0, 0]


def reputations(reg, k):
    """The reputations of the members of set k, in set order."""
    rep = reg.columns()[2]
    return [rep[seq] for seq in reg.trusted_set(k)]


class TestTrustedSetIndex:
    def test_direct_writes_reach_the_sets(self):
        reg = make_registry([0.5, 1.0, 0.2, 6.0, 9.5])
        a, b, c, d, e = reg.participants()
        assert reg.columns()[1].tolist() == [1, 1, 1, 3, 5]
        reg.set_reputation(b, 0.7)
        assert reputations(reg, 0) == [1.0, 0.7, 1.0]
        reg.expel(b)
        assert reg.trusted_set(0).tolist() == [a, c]
        reg.set_stake(c, 6.0)  # to label 3
        assert reg.trusted_set(2).tolist() == [c, d]
        assert_sets_match(reg)
        entry = reg.draw_views(0)
        reg.expel(b)  # already out: nothing moves
        assert reg.draw_views(0) is entry
        # writes to an excluded member reach no set
        reg.expel(e)
        reg.set_reputation(e, 0.3)
        reg.set_stake(e, 0.5)  # to label 1
        assert len(reg.trusted_set(4)) == 0
        assert reg.trusted_set(0).tolist() == [a]
        assert reg.draw_views(0) is entry
        assert_sets_match(reg)

    def test_set_stake_leaves_a_same_label_member_in_place(self):
        reg = make_registry([0.2, 0.4, 0.6])
        ps = reg.participants()
        positions, entry = reg.trusted_set(0), reg.draw_views(0)
        reg.set_stake(ps[1], 0.45)
        assert reg.trusted_set(0).tolist() == list(ps)
        assert reg.draw_views(0) is entry  # a same-label stake change drops nothing
        reg.set_reputation(ps[0], 0.5)
        assert reg.trusted_set(0) is positions  # a reputation write never rescans the population
        assert reputations(reg, 0) == [0.5, 1.0, 1.0]
        reg.set_stake(ps[1], 2.0)
        assert reg.trusted_set(0) is not positions
        assert reg.trusted_set(0).tolist() == [ps[0], ps[2]]
        assert_sets_match(reg)

    def test_unknown_label_is_refused_before_anything_moves(self):
        # a label follows the stake: no label, known or not, is written directly
        reg = make_registry([5.0])
        p, = reg.participants()
        label = reg.columns()[1]
        entry = reg.draw_views(2)
        for bad in (0, 6, 1):
            with pytest.raises(TypeError):
                label[p] = bad  # the columns are read-only, and no label writer exists
        assert label[p] == 3
        assert reg.draw_views(2) is entry  # nothing reached the sets
        reg.set_stake(p, 0.5)
        assert label[p] == 1
        assert_sets_match(reg)

    def test_reputation_outside_zero_one_is_refused_before_anything_moves(self):
        reg = make_registry([5.0, 5.5])
        p, _ = reg.participants()
        rep = reg.columns()[2]
        entry = reg.draw_views(2)
        for bad in (-0.5, float("nan"), 3.0, 1.0 + 1e-12, -1e-300):
            with pytest.raises(ValueError, match="reputation"):
                reg.set_reputation(p, bad)
        assert rep[p] == 1.0
        assert reg.draw_views(2) is entry  # no write reached the set's cache
        reg.set_reputation(p, 0.0)  # both ends of [0, 1] are taken
        assert reputations(reg, 2) == [0.0, 1.0]
        reg.set_reputation(p, 1.0)
        assert_sets_match(reg)

    def test_reference_counting_alone_frees_the_registry(self):
        gc.disable()  # so a reference cycle through the registry would keep it alive
        try:
            var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
            reg = Registry(var, sample_stakes_for_census(var, (12, 9, 7, 5, 4),
                                                         substream(7, "stakes")),
                           ReputationParams())
            columns = reg.columns()
            chain = Chain()
            engine = FuzzychainEngine(reg, chain, commission=0.8, byzantine_rate=0.2)
            priv, pub = new_keypair(substream(7, "keys"))
            sel, vot = substream(7, "selection"), substream(7, "votes")
            for r in range(1, 21):
                block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
                engine.run_round(block, sel, vot)
            reg.set_reputation(0, 0.5)
            for k in range(var.n):
                reg.draw_views(k)  # each set's caches hold memoryviews again
            members = reg.trusted_set(2)
            ref = weakref.ref(reg)
            del reg, engine
            assert ref() is None
            assert len(columns[0]) == 37 and len(members) > 0  # what was handed out outlives it
        finally:
            gc.enable()

    def test_handed_out_arrays_are_read_only(self):
        reg = make_registry([0.5, 1.0, 6.0])
        a, b, _ = reg.participants()

        def assert_read_only():
            for view in (reg.trusted_set(0), *reg.draw_views(0)):
                with pytest.raises(TypeError, match="read-only"):
                    view[0] = 0.5
                with pytest.raises(ValueError, match="read-only"):
                    np.asarray(view)[0] = 0.5

        assert_read_only()  # built after enrollment
        reg.expel(b)
        assert_read_only()  # rebuilt after an exclusion
        reg.set_reputation(a, 0.4)
        assert_read_only()  # entry rebuilt after a reputation write
        assert reputations(reg, 0) == [0.4]
        assert_sets_match(reg)

    @given(st.lists(STAKES, min_size=1, max_size=8), st.lists(CHANGES, max_size=40))
    def test_cached_selection_follows_every_change(self, stakes, changes):
        reg = make_registry(stakes, epsilon=0.5)
        assert_sets_match(reg)
        for kind, pick, value in changes:
            apply_change(reg, kind, reg.participants()[pick % len(reg)], value)
            assert_sets_match(reg)

    def test_index_matches_a_regroup_after_every_round(self):
        var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
        reg = Registry(var, sample_stakes_for_census(var, (12, 9, 7, 5, 4), substream(8, "stakes")),
                       ReputationParams())
        label = reg.columns()[1]
        chain = Chain()
        # a commission of 0.8 moves a winner across a label edge every few wins
        engine = FuzzychainEngine(reg, chain, commission=0.8, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(8, "keys"))
        sel, vot = substream(8, "selection"), substream(8, "votes")
        moves = expulsions = rounds = cached = 0
        for r in range(1, 301):
            labels = label.tolist()
            block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
            try:
                result = engine.run_round(block, sel, vot)
            except NoPanelError:
                break
            rounds += 1
            moves += label[result.winner] != labels[result.winner]
            expulsions += len(result.expulsions)
            # the entries settlement left cached are checked before anything rebuilds them
            cached += assert_sets_match(reg)
        assert moves >= 20 and expulsions >= 20 and rounds >= 200
        assert cached >= rounds  # most sets keep their entry through a round


def apply_change(reg, kind, seq, value):
    """One of CHANGES at position seq, through the registry's writer for it."""
    if kind == "vote":
        reg.apply_vote_outcome(seq, value)
    elif kind == "stake":
        reg.set_stake(seq, value)
    elif kind == "reputation":
        reg.set_reputation(seq, value)
    else:
        reg.expel(seq)


def assert_rows_read_python_scalars(reg):
    """Oracle: ids() spells one id per row, and every read of a row through
    columns() gives a Python float, int, float and bool."""
    columns = reg.columns()
    assert len(reg.ids()) == len(reg) == len(columns[0])
    for i in reg.participants():
        assert_python_scalars(reg, i)


def assert_python_scalars(reg, seq):
    assert [type(col[seq]) for col in reg.columns()] == [float, int, float, bool]


class TestColumns:
    def test_columns_match_the_sets_and_views_after_every_round(self):
        var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
        reg = Registry(var, sample_stakes_for_census(var, (12, 9, 7, 5, 4), substream(9, "stakes")),
                       ReputationParams())
        columns = reg.columns()  # made once, by the constructor
        label = columns[1]
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, commission=0.8, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(9, "keys"))
        sel, vot = substream(9, "selection"), substream(9, "votes")
        moves = expulsions = rounds = 0
        for r in range(1, 301):
            labels = label.tolist()
            block = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r)
            try:
                result = engine.run_round(block, sel, vot)
            except NoPanelError:
                break
            rounds += 1
            moves += label[result.winner] != labels[result.winner]
            expulsions += len(result.expulsions)
            assert reg.columns() is columns
            assert_sets_match(reg)
            assert_rows_read_python_scalars(reg)
        assert moves >= 20 and expulsions >= 20 and rounds >= 200

    @given(st.lists(STAKES, min_size=1, max_size=8), st.lists(CHANGES, max_size=30),
           st.booleans())
    def test_view_reads_are_python_scalars(self, stakes, changes, as_numpy):
        reg = make_registry(stakes, epsilon=0.5)
        numpy_type = {"reputation": np.float64, "stake": np.float64, "vote": np.bool_}
        for kind, pick, value in changes:
            if as_numpy and kind in numpy_type:
                value = numpy_type[kind](value)
            apply_change(reg, kind, reg.participants()[pick % len(reg)], value)
            assert_rows_read_python_scalars(reg)
        assert_sets_match(reg)

    def test_hand_built_participants_read_python_scalars(self):
        reg = make_registry([np.float64(2.5)])
        p, = reg.participants()
        reg.set_reputation(p, np.float64(0.5))
        reg.expel(p)
        reg.set_stake(p, np.float64(7.5))  # to label 4
        assert_python_scalars(reg, p)
        reg.set_reputation(p, 1)
        reg.set_stake(p, np.float64(2.5))  # back to label 2
        assert_python_scalars(reg, p)
        assert [col[p] for col in reg.columns()] == [2.5, 2, 1.0, True]


def build_population():
    """The 49,500 validators of exp1's shares x50, built as a run builds them."""
    cfg = config_from_dict({
        "experiment": "custom", "seed": 42, "granularity": "per-participant",
        "population_per_label": {"VL": 25000, "L": 15000, "M": 7500, "H": 1500, "VH": 500},
        "rounds": [100], "repetitions": 2,
    })
    return build_registry(cfg, build_variable(cfg), substream(42, "custom", 100, 0, "stakes"))
