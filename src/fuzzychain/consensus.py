"""Round engine: panel selection, majority voting, settlement.

Each round picks an odd panel across the trusted sets (one seat per
lower set, two per each of the top two), votes on the candidate block,
rewards one uniformly chosen member of the majority bloc, and walks
every panelist's reputation. Round 1 ignores reputation (everyone
starts equal); later rounds prefer full-reputation members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ledger import Block, Chain, validate_block
from .registry import Participant, Registry


class NoPanelError(RuntimeError):
    """No active validators anywhere: selection cannot form a panel."""


def quotas(n_sets: int) -> list[int]:
    """Seats per trusted set: 1 each for T_1..T_{n-2}, 2 for the top two."""
    if n_sets < 3:
        raise ValueError("need at least three trusted sets")
    return [1] * (n_sets - 2) + [2, 2]


def _draw(members: list[Participant], k: int, rng) -> list[Participant]:
    # uniform without replacement, preserving rng-stream determinism
    if k >= len(members):
        return list(members)
    idx = rng.choice(len(members), size=k, replace=False)
    return [members[i] for i in sorted(int(i) for i in idx)]


def _parity_repair(picks: list[list[Participant]], groups, rng) -> None:
    """Force an odd panel in place.

    Preferred fix: one extra draw from the highest-index set that still
    has unpicked members. If every active validator is already on the
    panel, drop the most recent pick of the lowest-index set instead.
    """
    total = sum(len(p) for p in picks)
    if total % 2 == 1:
        return
    picked_ids = {m.id for p in picks for m in p}
    for i in range(len(groups) - 1, -1, -1):
        spare = [m for m in groups[i] if m.id not in picked_ids]
        if spare:
            picks[i].extend(_draw(spare, 1, rng))
            return
    for i in range(len(groups)):
        if picks[i]:
            picks[i].pop()
            return


def _assemble_panel(groups: list[list[Participant]], rng, draw) -> list[Participant]:
    """draw(set, quota, rng) on every non-empty set, then parity repair."""
    if not any(groups):
        raise NoPanelError("every trusted set is empty")
    q = quotas(len(groups))
    picks = [draw(g, q[i], rng) if g else [] for i, g in enumerate(groups)]
    _parity_repair(picks, groups, rng)
    return [m for p in picks for m in p]


def select_first_round(groups: list[list[Participant]], rng) -> list[Participant]:
    """Round-1 panel: uniform draws only, since reputations are all equal."""
    return _assemble_panel(groups, rng, _draw)


def build_subsets(group: list[Participant]):
    """Split a trusted set into (A, B): A holds the reputation-1 members,
    B is the whole set, so A is always a subset of B."""
    a = [m for m in group if m.reputation == 1.0]
    return a, list(group)


def _select_from_group(group: list[Participant], quota: int, rng) -> list[Participant]:
    """Reputation-aware draw for one trusted set (rounds after the first).

    Pool = up to 2 uniform picks from A (full reputation) plus 1
    reputation-proportional pick from B, deduplicated; the final seats
    are drawn uniformly from that pool. Members with spotless records
    therefore dominate the pool without ever monopolizing it.
    """
    a, b = build_subsets(group)
    pool: dict[str, Participant] = {}
    for m in _draw(a, 2, rng):
        pool[m.id] = m
    weights = np.array([m.reputation for m in b], dtype=float)
    wsum = weights.sum()
    if wsum > 0:
        p = weights / wsum
        j = int(rng.choice(len(b), p=p))
    else:
        j = int(rng.choice(len(b)))
    pool[b[j].id] = b[j]
    members = list(pool.values())
    return _draw(members, quota, rng)


def select_round_j(groups: list[list[Participant]], rng) -> list[Participant]:
    """Panel for rounds >= 2: per-set reputation-aware pools, then parity repair."""
    return _assemble_panel(groups, rng, _select_from_group)


@dataclass(frozen=True)
class ByzantineModel:
    """Vote corruption: each panelist independently inverts their honest
    vote with probability rate."""

    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("byzantine rate must lie in [0, 1]")


def cast_votes(panel, block_is_valid: bool, model: ByzantineModel, rng) -> list[bool]:
    """One accept/reject vote per panelist (True = accept).

    Honest members vote the block's true validity; byzantine flips are
    drawn for every member regardless of rate so the vote stream's
    shape never depends on the configured rate.
    """
    flips = rng.random(len(panel)) < model.rate
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
    return successful[int(rng.choice(len(successful)))]


@dataclass
class ConsensusParams:
    commission: float = 0.05
    byzantine: ByzantineModel = field(default_factory=ByzantineModel)

    def __post_init__(self):
        if self.commission < 0:
            raise ValueError("commission must be non-negative")


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
    reputation_deltas: dict[str, tuple[float, float]]
    expulsions: list[str]
    appended: bool


class FuzzychainEngine:
    """Sequential round loop over one registry and one chain.

    The engine owns no randomness: callers hand in the selection and
    vote streams, which keeps independently seeded consumers from
    perturbing each other.
    """

    def __init__(self, registry: Registry, chain: Chain, params: ConsensusParams | None = None):
        self.registry = registry
        self.chain = chain
        self.params = params or ConsensusParams()
        self.rounds_completed = 0

    def run_round(self, block: Block, selection_rng, vote_rng) -> RoundResult:
        """Scaling -> selection -> voting -> settlement for one block.

        Labels are re-derived from current stakes on every stake change
        (see Registry.set_stake), which is equivalent to rescaling here
        and much cheaper. The block joins the chain only when the vote
        accepts it AND it independently validates.
        """
        j = self.rounds_completed + 1
        groups = self.registry.trusted_sets()
        if j == 1:
            panel = select_first_round(groups, selection_rng)
        else:
            panel = select_round_j(groups, selection_rng)
        labels = [m.label_index for m in panel]

        block_valid = validate_block(self.chain, block)
        votes = cast_votes(panel, block_valid, self.params.byzantine, vote_rng)
        accepted, succ_idx, unsucc_idx = tally(votes)

        winner = pick_winner([panel[i] for i in succ_idx], selection_rng)

        succ = set(succ_idx)
        deltas: dict[str, tuple[float, float]] = {}
        expulsions: list[str] = []
        for i, member in enumerate(panel):
            before = member.reputation
            was_excluded = member.excluded
            self.registry.apply_vote_outcome(member.id, i in succ)
            after = member.reputation
            if after != before:
                deltas[member.id] = (before, after)
            if member.excluded and not was_excluded:
                expulsions.append(member.id)
        self.registry.set_stake(winner.id, winner.stake + self.params.commission)

        appended = False
        if accepted and block_valid:
            self.chain.append(block)
            appended = True

        self.rounds_completed += 1
        return RoundResult(
            round_index=j,
            panel_ids=[m.id for m in panel],
            panel_labels=labels,
            votes=votes,
            accepted=accepted,
            block_valid=block_valid,
            winner_id=winner.id,
            reputation_deltas=deltas,
            expulsions=expulsions,
            appended=appended,
        )
