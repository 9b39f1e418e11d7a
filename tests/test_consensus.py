"""Panel selection, voting, settlement — against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzychain import consensus, ledger
from fuzzychain.config import ExperimentConfig
from fuzzychain.consensus import (
    FuzzychainEngine,
    NoPanelError,
    _draw,
    _parity_repair,
    _select_from_group,
    _weighted_pick,
    build_subsets,
    cast_votes,
    pick_winner,
    quotas,
    select_first_round,
    select_round_j,
    tally,
)
from fuzzychain.experiments import run_configured
from fuzzychain.fuzzy import make_uniform_partition
from fuzzychain.ledger import (
    CURVES,
    Chain,
    Transaction,
    build_block,
    make_block,
    new_keypair,
    sign_transaction,
)
from fuzzychain.registry import Registry, ReputationParams, reputation_cdf
from fuzzychain.rng import Stream, substream

LABELS = ("VL", "L", "M", "H", "VH")


def make_set_registry(sizes, reps=None, n_labels=5):
    """A registry with n_labels labels whose trusted set i holds sizes[i]
    members, enrolled set by set at label i+1's peak, with reputations reps[i]
    (all 1.0 by default)."""
    var = make_uniform_partition("stake", tuple(f"S{i}" for i in range(n_labels)), 0.0, 10.0)
    reg = Registry(var, [var.mfs[i].b for i, k in enumerate(sizes) for _ in range(k)])
    if reps is not None:
        reps = [r for group in reps for r in group]
        for seq, rep in zip(reg.participants(), reps, strict=True):
            reg.set_reputation(seq, rep)
    return reg


def small_registry(census=(4, 3, 3, 2, 2), seed=5, **rep_params):
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    from fuzzychain.experiments import sample_stakes_for_census

    stakes = sample_stakes_for_census(var, census, substream(seed, "stakes"))
    return Registry(var, stakes, ReputationParams(**rep_params))


def signed_block(chain, nonce, seed=77):
    priv, pub = new_keypair(substream(seed, "keys"))
    return build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, nonce)], clock=nonce)


class TestQuotas:
    def test_five_sets(self):
        assert quotas(5) == [1, 1, 1, 2, 2]

    def test_seven_sets(self):
        assert quotas(7) == [1, 1, 1, 1, 1, 2, 2]

    def test_too_few(self):
        with pytest.raises(ValueError):
            quotas(2)


class TestFirstRoundSelection:
    def test_full_groups_give_seven(self):
        reg = make_set_registry([3, 3, 3, 3, 3])
        panel = select_first_round(reg, substream(0, "selection"))
        assert len(panel) == 7
        # 1 from each low set, 2 from each of the top two
        label = reg.columns()[1]
        assert sorted(label[seq] for seq in panel) == [1, 2, 3, 4, 4, 5, 5]

    def test_singleton_top_set_repairs_parity(self):
        reg = make_set_registry([3, 3, 3, 3, 1])
        panel = select_first_round(reg, substream(1, "selection"))
        assert len(panel) % 2 == 1
        assert len(panel) == 7  # extra pick comes from a lower set with spares
        assert len(set(panel)) == len(panel)

    def test_all_singletons_cap_quotas(self):
        reg = make_set_registry([1, 1, 1, 1, 1])
        panel = select_first_round(reg, substream(2, "selection"))
        assert sorted(panel) == sorted(seq for s in reg.trusted_sets() for seq in s)
        assert len(panel) == 5

    def test_single_validator_total(self):
        reg = make_set_registry([0, 0, 1, 0, 0])
        panel = select_first_round(reg, substream(3, "selection"))
        assert panel == [reg.trusted_set(2)[0]]

    def test_all_empty_is_an_error(self):
        with pytest.raises(NoPanelError):
            select_first_round(make_set_registry([0] * 5), substream(4, "selection"))
        with pytest.raises(NoPanelError):
            select_round_j(make_set_registry([0] * 5), substream(4, "selection"))


class TestSubsets:
    def test_mixed_reputations(self):
        reg = make_set_registry([3], reps=[[1.0, 1.0, 0.9]])
        b, a, _ = build_subsets(reg, 0)
        assert [b[i] for i in a] == reg.trusted_set(0)[:2].tolist()
        assert b is reg.trusted_set(0) and len(b) == 3

    def test_all_below_one(self):
        reg = make_set_registry([2], reps=[[0.8, 0.7]])
        b, a, _ = build_subsets(reg, 0)
        assert len(a) == 0 and len(b) == 2

    def test_single_perfect_member(self):
        reg = make_set_registry([1])
        b, a, _ = build_subsets(reg, 0)
        assert a.tolist() == [0] and b is reg.trusted_set(0)

    def test_round_j_looks_subsets_up_once_per_set(self, monkeypatch):
        # through the module global, so a wrapper set on consensus.build_subsets sees every set
        reg = make_set_registry([3, 0, 2, 4, 1], reps=[[1.0, 0.9, 0.8], [], [0.7, 1.0],
                                                       [1.0] * 4, [0.5]])
        looked_up = []

        def counted(registry, k):
            looked_up.append(k)
            return build_subsets(registry, k)

        monkeypatch.setattr(consensus, "build_subsets", counted)
        rng = substream(6, "selection")
        for _ in range(3):
            select_round_j(reg, rng)
            assert looked_up == [0, 1, 2, 3, 4]
            looked_up.clear()


class TestReputationBias:
    def test_selection_probability_matches_enumeration(self):
        # group reps [1,1,1,0.9,0.8], quota 1.
        # Enumerating (A-pair, B-pick, final-pick): the final pick has
        # reputation < 1 only when B picked the 0.9/0.8 member (prob
        # 1.7/4.7) and the final uniform draw then hits it (1/3):
        #   P(rep=1) = 1 - (1.7/4.7) * (1/3) = 12.4/14.1
        expect = 12.4 / 14.1
        reg = make_set_registry([5], reps=[[1.0, 1.0, 1.0, 0.9, 0.8]])
        members, reputation = reg.trusted_set(0), reg.columns()[2]
        rng = substream(42, "selection")
        n = 60_000
        hits = 0
        for _ in range(n):
            (pos,) = _select_from_group(reg, 0, 1, rng)
            hits += reputation[members[pos]] == 1.0
        assert hits / n == pytest.approx(expect, abs=0.01)
        assert expect >= 2 / 3

    def test_empty_a_falls_back_to_reputation_proportional(self):
        reps = [0.9, 0.6, 0.3]
        reg = make_set_registry([3], reps=[reps])
        members = reg.trusted_set(0)
        rng = substream(43, "selection")
        n = 60_000
        counts = dict.fromkeys(members.tolist(), 0)
        for _ in range(n):
            (pos,) = _select_from_group(reg, 0, 1, rng)
            counts[members[pos]] += 1
        total = sum(reps)
        for seq, rep in zip(members, reps, strict=True):
            assert counts[seq] / n == pytest.approx(rep / total, abs=0.02)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_round_j_panel_shape_on_full_groups(self, seed):
        reg = make_set_registry([4, 4, 4, 4, 4], reps=[[1.0, 1.0, 0.9, 0.7]] * 5)
        panel = select_round_j(reg, substream(seed, "selection"))
        assert len(panel) == 7
        assert len(set(panel)) == 7
        label = reg.columns()[1]
        assert sorted(label[seq] for seq in panel) == [1, 2, 3, 4, 4, 5, 5]


class TestPanelParity:
    @given(
        st.lists(st.integers(0, 6), min_size=5, max_size=5),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200)
    def test_panels_are_always_odd_and_duplicate_free(self, sizes, later_round, seed):
        rng = np.random.default_rng(seed)
        rep_pool = [1.0, 1.0, 0.9, 0.8, 0.6, 0.3]
        reps = [[rep_pool[int(rng.integers(len(rep_pool)))] for _ in range(k)] for k in sizes]
        reg = make_set_registry(sizes, reps=reps)
        select = select_round_j if later_round else select_first_round
        if not any(reg.trusted_sets()):
            with pytest.raises(NoPanelError):
                select(reg, substream(seed, "selection"))
            return
        panel = select(reg, substream(seed, "selection"))
        assert len(panel) % 2 == 1
        assert len(set(panel)) == len(panel)
        allowed = {seq for s in reg.trusted_sets() for seq in s}
        assert set(panel) <= allowed


def draw_with_choice(members, k, rng):
    """_draw as written with Generator.choice: the reference whose results
    and stream consumption its replacement must match."""
    if k >= len(members):
        return list(members)
    idx = rng.choice(len(members), size=k, replace=False)
    return [members[i] for i in sorted(int(i) for i in idx)]


def weighted_pick_with_choice(weights, rng):
    wsum = weights.sum()
    if wsum > 0:
        return int(rng.choice(len(weights), p=weights / wsum))
    return int(rng.choice(len(weights)))


def select_from_group_with_choice(registry, k, quota, rng):
    """_select_from_group as written with Generator.choice, pooled by registry
    position."""
    members, reputation = registry.trusted_set(k).tolist(), registry.columns()[2]
    reps = np.array([reputation[seq] for seq in members])
    pool = {}
    for i in draw_with_choice(np.flatnonzero(reps == 1.0), 2, rng):
        pool[members[i]] = int(i)
    j = weighted_pick_with_choice(reps, rng)
    pool[members[j]] = j
    return draw_with_choice(list(pool.values()), quota, rng)


def parity_repair_with_spare_list(picks, registry, rng):
    """_parity_repair as written over lists of registry positions, building
    the spare list."""
    if sum(len(p) for p in picks) % 2 == 1:
        return
    picked = {seq for p in picks for seq in p}
    for k in range(len(picks) - 1, -1, -1):
        spare = [seq for seq in registry.trusted_set(k) if seq not in picked]
        if spare:
            picks[k].extend(draw_with_choice(spare, 1, rng))
            return
    for i in range(len(picks)):
        if picks[i]:
            picks[i].pop()
            return


def twin_streams(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


SEEDS = st.integers(0, 2**63 - 1)


class TestStreamExactDraws:
    """Each stand-in for Generator.choice returns what choice returned and
    leaves the generator in the same state, so a numpy change to choice
    fails here by name. Several draws share one pair of generators, so
    both halves of PCG64's buffered 32-bit word are exercised."""

    @given(st.lists(st.tuples(st.integers(1, 60_000), st.sampled_from([1, 2])),
                    min_size=1, max_size=6), SEEDS)
    @example([(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (3, 1), (60_000, 2)], 0)
    @settings(max_examples=200)
    def test_draw_matches_choice(self, draws, seed):
        ref, new = twin_streams(seed)
        for n, k in draws:
            assert _draw(range(n), k, new) == draw_with_choice(range(n), k, ref)
            assert new.bit_generator.state == ref.bit_generator.state

    def test_draw_refuses_more_than_two_picks(self):
        rng = substream(0, "selection")
        with pytest.raises(ValueError, match="at most 2"):
            _draw(range(5), 3, rng)
        assert _draw(range(3), 3, rng) == [0, 1, 2]  # k >= n takes everyone, no draw

    @given(st.integers(1, 60_000), st.sampled_from(["grid", "ones", "single", "zeros"]), SEEDS)
    @example(1, "single", 0)
    @example(2, "zeros", 0)
    @settings(max_examples=200)
    def test_weighted_pick_matches_choice(self, n, kind, seed):
        shape = np.random.default_rng(seed ^ 0x5EED)
        if kind == "grid":  # reputation-like values with zeros and many ties
            weights = shape.integers(0, 201, n) / 200
        elif kind == "ones":
            weights = np.ones(n)
        else:
            weights = np.zeros(n)
            if kind == "single":
                weights[shape.integers(0, n)] = shape.choice([0.05, 0.9, 1.0])
        cdf = reputation_cdf(weights)
        view = None if cdf is None else memoryview(cdf)  # what a set's draw views hold
        ref, new = twin_streams(seed)
        on_view = np.random.default_rng(seed)
        for _ in range(3):
            expect = weighted_pick_with_choice(weights, ref)
            assert _weighted_pick(cdf, n, new) == expect
            assert _weighted_pick(view, n, on_view) == expect
            assert new.bit_generator.state == ref.bit_generator.state
            assert on_view.bit_generator.state == ref.bit_generator.state

    def test_weighted_pick_on_a_cdf_step_takes_the_next_position(self):
        # choice searches its cdf with side="right": a uniform equal to a step goes past it
        seed = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
        u = np.random.default_rng(seed).random()
        weights = np.array([u, 1.0 - u])  # 1 - u is exact for u >= 0.5, so the cdf is [u, 1]
        cdf = reputation_cdf(weights)
        assert cdf.tolist() == [u, 1.0]
        ref, new = twin_streams(seed)
        on_view = np.random.default_rng(seed)
        assert weighted_pick_with_choice(weights, ref) == 1
        assert _weighted_pick(cdf, 2, new) == _weighted_pick(memoryview(cdf), 2, on_view) == 1
        assert new.bit_generator.state == ref.bit_generator.state
        assert on_view.bit_generator.state == ref.bit_generator.state

    @given(st.lists(st.integers(1, 60_000), min_size=1, max_size=6), SEEDS)
    def test_pick_winner_matches_choice(self, sizes, seed):
        ref, new = twin_streams(seed)
        for n in sizes:
            assert pick_winner(range(n), new) == int(ref.choice(n))
            assert new.bit_generator.state == ref.bit_generator.state

    @given(st.lists(st.sampled_from([0.0, 0.3, 0.9, 0.95, 1.0]), min_size=1, max_size=12),
           st.sampled_from([1, 2]), SEEDS)
    def test_select_from_group_matches_choice(self, reps, quota, seed):
        reg = make_set_registry([len(reps)], reps=[reps])
        ref, new = twin_streams(seed)
        for _ in range(3):
            expect = select_from_group_with_choice(reg, 0, quota, ref)
            assert _select_from_group(reg, 0, quota, new) == expect
            assert new.bit_generator.state == ref.bit_generator.state

    @given(st.data())
    @settings(max_examples=300)
    def test_parity_repair_matches_the_spare_list(self, data):
        sizes = data.draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40)),
                                   min_size=3, max_size=7))
        reg = make_set_registry(sizes, n_labels=7)
        picks = [data.draw(st.lists(st.integers(0, k - 1), unique=True, max_size=min(k, 2)))
                 if k else [] for k in sizes]
        ref, new = twin_streams(data.draw(SEEDS))
        expect = [[reg.trusted_set(k)[pos] for pos in p] for k, p in enumerate(picks)]
        parity_repair_with_spare_list(expect, reg, ref)
        _parity_repair(picks, reg, new)
        got = [[reg.trusted_set(k)[pos] for pos in p] for k, p in enumerate(picks)]
        assert got == expect
        assert new.bit_generator.state == ref.bit_generator.state


class TestVoting:
    def test_honest_unanimity_on_valid_block(self):
        panel = make_set_registry([7]).trusted_set(0)
        votes = cast_votes(panel, True, 0.0, substream(0, "votes"))
        assert votes == [True] * 7

    def test_honest_unanimity_on_invalid_block(self):
        panel = make_set_registry([7]).trusted_set(0)
        votes = cast_votes(panel, False, 0.0, substream(0, "votes"))
        assert votes == [False] * 7

    def test_full_inversion(self):
        panel = make_set_registry([5]).trusted_set(0)
        votes = cast_votes(panel, True, 1.0, substream(0, "votes"))
        assert votes == [False] * 5

    @pytest.mark.parametrize("kwargs", [
        {"commission": float("nan")},
        {"commission": float("inf")},
        {"commission": -0.1},
        {"byzantine_rate": float("nan")},
        {"byzantine_rate": -0.1},
        {"byzantine_rate": 1.5},
    ], ids=["commission-nan", "commission-inf", "commission-negative",
            "rate-nan", "rate-negative", "rate-above-one"])
    def test_rate_validation(self, kwargs):
        with pytest.raises(ValueError):
            FuzzychainEngine(small_registry(), Chain(), **kwargs)

    def test_tally_majority(self):
        accepted, succ, unsucc = tally([True] * 4 + [False] * 3)
        assert accepted and succ == [0, 1, 2, 3] and unsucc == [4, 5, 6]

    def test_tally_unanimous(self):
        accepted, succ, unsucc = tally([True] * 7)
        assert accepted and len(succ) == 7 and unsucc == []

    def test_tally_reject_majority(self):
        accepted, succ, unsucc = tally([False, False, False, False, True, True, True])
        assert not accepted
        assert succ == [0, 1, 2, 3]  # the rejecters carried the round

    def test_tally_refuses_even_panels(self):
        with pytest.raises(AssertionError):
            tally([True, False])

    def test_winner_uniform_over_successful(self):
        members = make_set_registry([4]).trusted_set(0)
        rng = substream(77, "selection")
        n = 100_000
        counts = dict.fromkeys(members.tolist(), 0)
        for _ in range(n):
            counts[pick_winner(members, rng)] += 1
        for c in counts.values():
            assert c / n == pytest.approx(0.25, abs=0.01)

    def test_winner_deterministic_for_same_stream(self):
        members = make_set_registry([4]).trusted_set(0)
        w1 = pick_winner(members, substream(5, "selection"))
        w2 = pick_winner(members, substream(5, "selection"))
        assert w1 == w2

    def test_winner_requires_candidates(self):
        with pytest.raises(ValueError):
            pick_winner([], substream(5, "selection"))


class TestEngineRounds:
    def test_accept_path_keeps_reputations_and_pays_winner(self):
        reg = small_registry()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, commission=0.05)
        stake, _, reputation, _ = reg.columns()
        stakes_before = stake.tolist()
        result = engine.run_round(signed_block(chain, 1),
                                  substream(1, "selection"), substream(1, "votes"))
        assert result.accepted and result.appended and result.block_valid
        assert len(result.panel) == 7
        assert chain.height() == 1
        assert all(rep == 1.0 for rep in reputation)
        assert result.reputation_deltas == {} and result.expulsions == []
        assert stake[result.winner] == pytest.approx(stakes_before[result.winner] + 0.05)
        others = [seq for seq in reg.participants() if seq != result.winner]
        assert all(stake[seq] == stakes_before[seq] for seq in others)

    def test_invalid_block_is_rejected_and_chain_untouched(self):
        reg = small_registry()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain)
        good = signed_block(chain, 1)
        bad = type(good)(good.index, good.timestamp, b"\x99" * 32, good.transactions,
                         good.hash)
        result = engine.run_round(bad, substream(1, "selection"), substream(1, "votes"))
        assert not result.block_valid
        assert not result.accepted  # honest panel rejects it
        assert not result.appended
        assert chain.height() == 0
        # the whole panel voted with the majority, so nobody lost reputation
        assert result.reputation_deltas == {}

    def test_single_byzantine_rejecter_loses_a_tenth(self):
        # find a vote seed where exactly one of seven members flips at rate 0.15
        vote_seed = next(
            s for s in range(1000)
            if (substream(s, "votes").random(7) < 0.15).sum() == 1
        )
        reg = small_registry()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, byzantine_rate=0.15)
        result = engine.run_round(signed_block(chain, 1),
                                  substream(1, "selection"), substream(vote_seed, "votes"))
        assert result.accepted and result.appended
        assert len(result.reputation_deltas) == 1
        (seq, (before, after)), = result.reputation_deltas.items()
        assert (before, after) == (1.0, 0.9)
        assert result.winner != seq

        # next round: the penalized member is out of its group's A subset
        b, a, _ = build_subsets(reg, reg.columns()[1][seq] - 1)
        assert seq not in {b[i] for i in a}
        assert seq in set(b)

    def test_settlement_touches_only_the_panel(self):
        reg = small_registry()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, byzantine_rate=0.4)
        sel, vot = substream(9, "selection"), substream(9, "votes")
        reputation = reg.columns()[2]
        for r in range(1, 11):
            before = reputation.tolist()
            result = engine.run_round(signed_block(chain, r), sel, vot)
            panel = set(result.panel)
            for seq in reg.participants():
                if seq in panel:
                    continue
                assert reputation[seq] == before[seq], "non-member reputation moved"
            assert set(result.reputation_deltas) <= panel

    def test_expelled_members_never_reappear(self):
        reg = small_registry(epsilon=0.05)
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, byzantine_rate=0.5)
        sel, vot = substream(3, "selection"), substream(3, "votes")
        expelled_ever = set()
        saw_expulsion = False
        for r in range(1, 41):
            try:
                result = engine.run_round(signed_block(chain, r), sel, vot)
            except NoPanelError:
                break
            assert not (set(result.panel) & expelled_ever)
            if result.expulsions:
                saw_expulsion = True
                expelled_ever |= set(result.expulsions)
        assert saw_expulsion

    def test_round_streams_are_reproducible(self):
        outcomes = []
        for _ in range(2):
            reg = small_registry()
            chain = Chain()
            engine = FuzzychainEngine(reg, chain, byzantine_rate=0.2)
            sel, vot = substream(21, "selection"), substream(21, "votes")
            outcomes.append(
                [engine.run_round(signed_block(chain, r), sel, vot) for r in range(1, 16)]
            )
        assert outcomes[0] == outcomes[1]


def run_faulty_rounds(wrap, rounds=200, seed=31):
    """rounds of a faulty registry (byzantine 0.15, invalid blocks 0.3), each
    stream (selection, votes, blocks) a substream passed through wrap."""
    reg = small_registry(census=(60, 40, 20, 8, 4), seed=seed)
    chain = Chain()
    engine = FuzzychainEngine(reg, chain, byzantine_rate=0.15)
    sel, votes, blocks = (wrap(substream(seed, name)) for name in ("selection", "votes", "blocks"))
    priv, pub = new_keypair(substream(seed, "keys"))
    results = []
    for r in range(1, rounds + 1):
        tx = sign_transaction(priv, pub, round(float(blocks.uniform(0.0, 100.0)), 6), nonce=r)
        block = build_block(chain.tip(), [tx], clock=r)
        if blocks.random() < 0.3:  # break linkage: the block points past the tip
            block = make_block(block.index, r, b"\x01" * 32, block.transactions)
        results.append(engine.run_round(block, sel, votes))
    return results


class TestStreamRounds:
    def test_streams_and_numpy_generators_run_the_same_rounds(self):
        ref = run_faulty_rounds(lambda g: g)
        assert run_faulty_rounds(Stream) == ref
        # the faulty paths all ran: rejections, expulsions and short panels
        assert any(not r.appended for r in ref)
        assert any(r.expulsions for r in ref)
        assert any(len(r.panel) < 7 for r in ref)


class TestBlockValidation:
    def test_each_block_is_verified_once(self, monkeypatch):
        curves = []
        verify = ledger.verify_transaction

        def counting(tx, curve):
            curves.append(curve)
            return verify(tx, curve)

        monkeypatch.setattr(ledger, "verify_transaction", counting)
        reg = small_registry()
        chain = Chain()
        engine = FuzzychainEngine(reg, chain)
        sel, vot = substream(4, "selection"), substream(4, "votes")
        n = 12
        for r in range(1, n + 1):
            assert engine.run_round(signed_block(chain, r), sel, vot).appended
        assert chain.height() == n
        assert curves == [chain.curve] * n  # one signature per block, checked once

    @pytest.mark.parametrize("curve", sorted(CURVES))
    def test_honest_run_appends_every_block_on_every_curve(self, curve):
        cfg = ExperimentConfig(rounds=(20,), repetitions=1, curve=curve).validate()
        block = run_configured(cfg).summary_dict()["results"]["20"]
        assert block["chain_heights"] == [20]
        assert block["rejected_rounds"] == [0]

    def test_long_adversarial_run_keeps_the_chain_valid(self):
        reg = small_registry(census=(12, 9, 7, 5, 4), seed=8)
        chain = Chain()
        engine = FuzzychainEngine(reg, chain, byzantine_rate=0.2)
        priv, pub = new_keypair(substream(8, "keys"))
        sel, vot, blk = (substream(8, name) for name in ("selection", "votes", "blocks"))
        appended = 0
        outcomes = set()
        for r in range(1, 301):
            tx = sign_transaction(priv, pub, 1.0, r)
            tip = chain.tip()
            u_corrupt, u_mode = blk.random(2)
            if u_corrupt < 0.3 and u_mode < 0.5:
                tampered = Transaction(tx.sender, tx.recipient, 2.0, tx.nonce, tx.signature)
                block = build_block(tip, [tampered], clock=r)
            elif u_corrupt < 0.3:
                block = make_block(tip.index + 1, r, bytes(32), (tx,))
            else:
                block = build_block(tip, [tx], clock=r)
            result = engine.run_round(block, sel, vot)
            assert result.appended == (result.accepted and result.block_valid)
            appended += result.appended
            outcomes.add((result.block_valid, result.accepted))
        assert chain.validate_all()
        assert chain.height() == appended
        # both kinds of wrong vote happened: the chain still took only valid blocks
        assert {(False, True), (True, False)} <= outcomes
