"""Round engine: panel selection, majority voting, settlement.

Each round picks an odd panel across the trusted sets (one seat per
lower set, two per each of the top two), votes on the candidate block,
rewards one uniformly chosen member of the majority bloc, and walks
every panelist's reputation. Round 1 ignores reputation (everyone
starts equal); later rounds prefer full-reputation members.

The engine works on registry (enrollment) positions throughout: panels,
votes, settlement and RoundResult. Selection draws set by set from the
registry, addressing trusted set T_{k+1} by its index k. Ids appear only in
the audit rows that experiments writes from a RoundResult.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from .ledger import Block, Chain, validate_block
from .registry import Registry


class NoPanelError(RuntimeError):
    """No active validators anywhere: selection cannot form a panel."""


def quotas(n_sets: int) -> list[int]:
    """Seats per trusted set: 1 each for T_1..T_{n-2}, 2 for the top two."""
    if n_sets < 3:
        raise ValueError("need at least three trusted sets")
    return [1] * (n_sets - 2) + [2, 2]


def _draw(members: Sequence, k: int, rng) -> list:
    """k uniform picks without replacement (k <= 2), in their order in members.

    Consumes rng exactly as sorted(rng.choice(len(members), k, replace=False))
    does: numpy runs Floyd's algorithm for k this small, then shuffles
    the picks, an order the sort discards but whose draw must still be made.
    For k = 2 Floyd's loop is written out: i from [0, n-1), then j from
    [0, n), with n - 1 standing in for a j that repeats i.
    """
    n = len(members)
    if k >= n:
        return list(members)
    if k == 1:
        return [members[rng.integers(0, n)]]
    if k != 2:
        raise ValueError(f"stream-exact draw supports 1 or 2 picks (at most 2), got {k}")
    i = rng.integers(0, n - 1)
    j = rng.integers(0, n)
    if j == i:
        j = n - 1
    rng.integers(0, 2)  # numpy's shuffle of the two picks
    return [members[i], members[j]] if i < j else [members[j], members[i]]


def _parity_repair(picks: list[list[int]], registry: Registry, rng) -> None:
    """Force an odd panel in place; picks[k] holds positions in
    registry.trusted_set(k).

    Preferred fix: one extra draw from the highest-index set that still
    has unpicked members. If every active validator is already on the
    panel, drop the most recent pick of the lowest-index set instead.
    The draw is an index into the set's unpicked members, in set order;
    trusted sets are disjoint, so only picks[k] can sit in set k.
    """
    if sum(map(len, picks)) % 2 == 1:
        return
    for k in range(len(picks) - 1, -1, -1):
        n_spare = len(registry.trusted_set(k)) - len(picks[k])
        if n_spare:
            (pos,) = _draw(range(n_spare), 1, rng)
            for picked in sorted(picks[k]):
                if picked <= pos:
                    pos += 1
            picks[k].append(pos)
            return
    for k in range(len(picks)):
        if picks[k]:
            picks[k].pop()
            return


def _assemble_panel(registry: Registry, rng, draw) -> list[int]:
    """draw(registry, k, quota, rng) -> positions in set k ([] for an empty
    set) on every set, then parity repair; returns the picks' registry
    positions, set by set."""
    picks = [draw(registry, k, quota, rng)
             for k, quota in enumerate(quotas(registry.variable.n))]
    if not any(picks):  # a draw from a non-empty set picks someone
        raise NoPanelError("every trusted set is empty")
    _parity_repair(picks, registry, rng)
    panel = []
    for k, at in enumerate(picks):
        if at:
            panel += map(registry.trusted_set(k).__getitem__, at)
    return panel


def _draw_uniform(registry: Registry, k: int, quota: int, rng) -> list[int]:
    return _draw(range(len(registry.trusted_set(k))), quota, rng)


def select_first_round(registry: Registry, rng) -> list[int]:
    """Round-1 panel: uniform draws only, since reputations are all equal."""
    return _assemble_panel(registry, rng, _draw_uniform)


def build_subsets(registry: Registry, k: int) -> tuple[memoryview, memoryview, memoryview | None]:
    """Split trusted set k into (B, A, cdf): B is the set's positions, A the
    indices into B of its reputation-1 members, so A is always a subset of B,
    and cdf the reputation_cdf over B (None when every reputation is 0). All
    three are the set's cached, read-only memoryviews (Registry.draw_views)."""
    return registry.draw_views(k)


def _weighted_pick(cdf, n: int, rng) -> int:
    """Position in n drawn from a reputation_cdf (an array or a memoryview of
    one), or uniformly when it is None (all weights zero).

    Consumes rng as rng.choice(n, p=weights / wsum) does on the weights
    behind cdf, so the pick is the same too: choice searches its cdf with
    searchsorted(u, side="right"), which is bisect_right.
    """
    if cdf is not None:
        return bisect_right(cdf, rng.random())
    return int(rng.integers(0, n))


def _select_from_group(registry: Registry, k: int, quota: int, rng) -> list[int]:
    """Reputation-aware draw for trusted set k (rounds after the first);
    returns positions in the set.

    Pool = up to 2 uniform picks from A (full reputation) plus 1
    reputation-proportional pick from B, deduplicated; the final seats
    are drawn uniformly from that pool. Members with spotless records
    therefore dominate the pool without ever monopolizing it. The draws
    index the set's cached memoryviews, so they get Python ints.
    """
    b, a, cdf = build_subsets(registry, k)
    if not b:
        return []
    pool = _draw(a, 2, rng)
    pick = _weighted_pick(cdf, len(b), rng)
    if pick not in pool:
        pool.append(pick)
    return _draw(pool, quota, rng)


def select_round_j(registry: Registry, rng) -> list[int]:
    """Panel for rounds >= 2: per-set reputation-aware pools, then parity repair."""
    return _assemble_panel(registry, rng, _select_from_group)


def cast_votes(panel, block_is_valid: bool, byzantine_rate: float, rng) -> list[bool]:
    """One accept/reject vote per panelist (True = accept).

    Each panelist independently inverts their honest vote (the block's
    true validity) with probability byzantine_rate, which lies in
    [0, 1]; FuzzychainEngine checks that range. The flips are drawn from
    the votes stream, one rng.random() per panelist in panel order (the
    stream rng.random(len(panel)) reads), for every member regardless of
    rate, so the vote stream's shape never depends on the configured rate.
    """
    honest, random = bool(block_is_valid), rng.random
    return [honest ^ (random() < byzantine_rate) for _ in panel]


def tally(votes: list[bool]):
    """Strict-majority decision, in one pass over the votes.

    Returns (accepted, successful_indices, unsuccessful_indices) where
    successful voters are the majority bloc. Vote counts are odd by the
    panel parity invariant, so a tie is unreachable.
    """
    if len(votes) % 2 == 0:
        raise AssertionError(f"even vote count {len(votes)} violates panel parity")
    accepts, rejects = [], []
    for i, v in enumerate(votes):
        (accepts if v else rejects).append(i)
    if len(accepts) * 2 > len(votes):
        return True, accepts, rejects
    return False, rejects, accepts


def pick_winner(successful: Sequence, rng):
    """Uniform choice among the majority bloc; the winner takes the round's
    whole commission."""
    if not successful:
        raise ValueError("no successful validators to reward")
    return successful[int(rng.integers(0, len(successful)))]


@dataclass(slots=True)
class RoundResult:
    """One round's record: a run keeps one per round (SingleRun.results) and
    reads its audit rows, win tables and counters from them. panel_labels
    are the labels the panel held when it was drawn, so the winner keeps
    its label even when the commission moves its stake across a label edge.
    """

    round_index: int
    panel: list[int]
    panel_labels: list[int]
    votes: list[bool]
    accepted: bool
    block_valid: bool
    winner: int
    reputation_deltas: dict[int, tuple[float, float]]  # panelists whose reputation moved
    expulsions: list[int]
    appended: bool


class FuzzychainEngine:
    """Sequential round loop over one registry and one chain.

    Each round's winner gains commission (finite, >= 0) in stake, and
    each panelist inverts their vote with probability byzantine_rate
    (in [0, 1]); the constructor raises ValueError outside those ranges.
    The engine owns no randomness: callers hand in the selection and
    vote streams, which keeps independently seeded consumers from
    perturbing each other. A stream is anything with numpy's
    integers(lo, hi) and random(): a Generator, or an rng.Stream over
    one, which draws the same numbers faster.
    """

    def __init__(self, registry: Registry, chain: Chain, *,
                 commission: float = 0.05, byzantine_rate: float = 0.0):
        if not (math.isfinite(commission) and commission >= 0):
            raise ValueError(f"commission must be finite and non-negative, got {commission}")
        if not 0.0 <= byzantine_rate <= 1.0:
            raise ValueError(f"byzantine rate must lie in [0, 1], got {byzantine_rate}")
        self.registry = registry
        self.chain = chain
        self.commission = commission
        self.byzantine_rate = byzantine_rate
        self.rounds_completed = 0

    def run_round(self, block: Block, selection_rng, vote_rng) -> RoundResult:
        """Scaling -> selection -> voting -> settlement for one block.

        Labels are re-derived from current stakes on every stake change
        (see Registry.set_stake), which is equivalent to rescaling here
        and much cheaper. The block is checked once, with the chain's curve;
        it joins the chain only when the vote accepts it AND the check passed.
        """
        j = self.rounds_completed + 1
        registry = self.registry
        select = select_first_round if j == 1 else select_round_j
        panel = select(registry, selection_rng)
        stake, label, reputation, excluded = registry.columns()
        labels = [label[i] for i in panel]

        block_valid = validate_block(self.chain, block)
        votes = cast_votes(panel, block_valid, self.byzantine_rate, vote_rng)
        accepted, succ_idx, _ = tally(votes)

        winner = pick_winner([panel[i] for i in succ_idx], selection_rng)

        deltas: dict[int, tuple[float, float]] = {}
        expulsions: list[int] = []
        settle = registry.apply_vote_outcome
        for seq, vote in zip(panel, votes):
            before = reputation[seq]
            settle(seq, vote == accepted)  # the majority bloc voted with the decision
            after = reputation[seq]
            if after != before:
                deltas[seq] = (before, after)
            # panels come from the active trusted sets, so an excluded panelist was just expelled
            if excluded[seq]:
                expulsions.append(seq)
        registry.set_stake(winner, stake[winner] + self.commission)

        appended = accepted and block_valid
        if appended:
            # unchecked append is safe: nothing moved the tip since the check, and Block is frozen
            self.chain.blocks.append(block)

        self.rounds_completed = j
        return RoundResult(j, panel, labels, votes, accepted, block_valid, winner, deltas,
                           expulsions, appended)
