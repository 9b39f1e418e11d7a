"""Round engine: panel selection, majority voting, settlement.

Each round picks an odd panel across the trusted sets (one seat per
lower set, two per each of the top two), votes on the candidate block,
rewards one uniformly chosen member of the majority bloc, and walks
every panelist's reputation. Round 1 ignores reputation (everyone
starts equal); later rounds prefer full-reputation members.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ledger import Block, Chain, validate_block
from .registry import Participant, Registry, TrustedSet


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
    """
    n = len(members)
    if k >= n:
        return list(members)
    if k > 2:
        raise ValueError(f"stream-exact draw supports at most 2 picks, got {k}")
    picks: list[int] = []
    for j in range(n - k, n):
        i = int(rng.integers(0, j + 1))
        picks.append(j if i in picks else i)
    if k == 2:
        rng.integers(0, 2)  # numpy's shuffle of the two picks
    return [members[i] for i in sorted(picks)]


def _parity_repair(picks: list[list[int]], groups, rng) -> None:
    """Force an odd panel in place; picks[i] holds positions in groups[i].

    Preferred fix: one extra draw from the highest-index set that still
    has unpicked members. If every active validator is already on the
    panel, drop the most recent pick of the lowest-index set instead.
    The draw is an index into the set's unpicked members, in set order;
    trusted sets are disjoint, so only picks[i] can sit in groups[i].
    """
    total = sum(len(p) for p in picks)
    if total % 2 == 1:
        return
    for i in range(len(groups) - 1, -1, -1):
        n_spare = len(groups[i]) - len(picks[i])
        if n_spare:
            (pos,) = _draw(range(n_spare), 1, rng)
            for picked in sorted(picks[i]):
                if picked <= pos:
                    pos += 1
            picks[i].append(pos)
            return
    for i in range(len(groups)):
        if picks[i]:
            picks[i].pop()
            return


def _assemble_panel(groups: list[TrustedSet], rng, draw) -> list[Participant]:
    """draw(set, quota, rng) -> positions, on every non-empty set, then parity repair."""
    if not any(groups):
        raise NoPanelError("every trusted set is empty")
    q = quotas(len(groups))
    picks = [draw(g, q[i], rng) if g else [] for i, g in enumerate(groups)]
    _parity_repair(picks, groups, rng)
    return [g[pos] for g, p in zip(groups, picks) for pos in p]


def _draw_uniform(group: TrustedSet, quota: int, rng) -> list[int]:
    return _draw(range(len(group)), quota, rng)


def select_first_round(groups: list[TrustedSet], rng) -> list[Participant]:
    """Round-1 panel: uniform draws only, since reputations are all equal."""
    return _assemble_panel(groups, rng, _draw_uniform)


def build_subsets(group: TrustedSet) -> tuple[np.ndarray, TrustedSet]:
    """Split a trusted set into (A, B): A holds the positions of the
    reputation-1 members, B is the whole set, so A is always a subset of B."""
    return group.selection()[0], group


def _weighted_pick(cdf: np.ndarray | None, n: int, rng) -> int:
    """Position in n drawn from a reputation_cdf, or uniformly when it is
    None (all weights zero).

    Consumes rng as rng.choice(n, p=weights / wsum) does on the weights
    behind cdf, so the pick is the same too.
    """
    if cdf is not None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    return int(rng.integers(0, n))


def _select_from_group(group: TrustedSet, quota: int, rng) -> list[int]:
    """Reputation-aware draw for one trusted set (rounds after the first);
    returns positions in the set.

    Pool = up to 2 uniform picks from A (full reputation) plus 1
    reputation-proportional pick from B, deduplicated; the final seats
    are drawn uniformly from that pool. Members with spotless records
    therefore dominate the pool without ever monopolizing it.
    """
    a, b = build_subsets(group)
    pool = dict.fromkeys(int(i) for i in _draw(a, 2, rng))
    pool[_weighted_pick(b.selection()[1], len(b), rng)] = None
    return _draw(list(pool), quota, rng)


def select_round_j(groups: list[TrustedSet], rng) -> list[Participant]:
    """Panel for rounds >= 2: per-set reputation-aware pools, then parity repair."""
    return _assemble_panel(groups, rng, _select_from_group)


def cast_votes(panel, block_is_valid: bool, byzantine_rate: float, rng) -> list[bool]:
    """One accept/reject vote per panelist (True = accept).

    Each panelist independently inverts their honest vote (the block's
    true validity) with probability byzantine_rate, which lies in
    [0, 1]; FuzzychainEngine checks that range. Flips are drawn for
    every member regardless of rate so the vote stream's shape never
    depends on the configured rate.
    """
    flips = rng.random(len(panel)) < byzantine_rate
    return [bool(block_is_valid) ^ bool(f) for f in flips]


def tally(votes: list[bool]):
    """Strict-majority decision.

    Returns (accepted, successful_indices, unsuccessful_indices) where
    successful voters are the majority bloc. Vote counts are odd by the
    panel parity invariant, so a tie is unreachable.
    """
    if len(votes) % 2 == 0:
        raise AssertionError(f"even vote count {len(votes)} violates panel parity")
    accepts = sum(votes)
    accepted = accepts * 2 > len(votes)
    successful = [i for i, v in enumerate(votes) if v == accepted]
    unsuccessful = [i for i, v in enumerate(votes) if v != accepted]
    return accepted, successful, unsuccessful


def pick_winner(successful: list[Participant], rng) -> Participant:
    """Uniform choice among the majority bloc; the winner takes the round's
    whole commission."""
    if not successful:
        raise ValueError("no successful validators to reward")
    return successful[int(rng.integers(0, len(successful)))]


@dataclass
class RoundResult:
    """Everything the audit log wants to know about one round."""

    round_index: int
    panel_ids: list[str]
    panel_labels: list[int]
    votes: list[bool]
    accepted: bool
    block_valid: bool
    winner_id: str
    winner_seq: int  # the winner's enrollment position
    reputation_deltas: dict[str, tuple[float, float]]
    expulsions: list[str]
    appended: bool


class FuzzychainEngine:
    """Sequential round loop over one registry and one chain.

    Each round's winner gains commission (finite, >= 0) in stake, and
    each panelist inverts their vote with probability byzantine_rate
    (in [0, 1]); the constructor raises ValueError outside those ranges.
    The engine owns no randomness: callers hand in the selection and
    vote streams, which keeps independently seeded consumers from
    perturbing each other.
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
        groups = self.registry.trusted_sets()
        if j == 1:
            panel = select_first_round(groups, selection_rng)
        else:
            panel = select_round_j(groups, selection_rng)
        labels = [m.label_index for m in panel]

        block_valid = validate_block(self.chain, block)
        votes = cast_votes(panel, block_valid, self.byzantine_rate, vote_rng)
        accepted, succ_idx, _ = tally(votes)

        winner = pick_winner([panel[i] for i in succ_idx], selection_rng)

        succ = set(succ_idx)
        deltas: dict[str, tuple[float, float]] = {}
        expulsions: list[str] = []
        for i, member in enumerate(panel):
            before = member.reputation
            self.registry.apply_vote_outcome(member.id, i in succ)
            after = member.reputation
            if after != before:
                deltas[member.id] = (before, after)
            # panels come from the active trusted sets, so an excluded panelist was just expelled
            if member.excluded:
                expulsions.append(member.id)
        self.registry.set_stake(winner.id, winner.stake + self.commission)

        appended = accepted and block_valid
        if appended:
            # unchecked append is safe: nothing moved the tip since the check, and Block is frozen
            self.chain.blocks.append(block)

        self.rounds_completed += 1
        return RoundResult(
            round_index=j,
            panel_ids=[m.id for m in panel],
            panel_labels=labels,
            votes=votes,
            accepted=accepted,
            block_valid=block_valid,
            winner_id=winner.id,
            winner_seq=winner.seq,
            reputation_deltas=deltas,
            expulsions=expulsions,
            appended=appended,
        )
