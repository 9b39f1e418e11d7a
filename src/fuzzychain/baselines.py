"""Winner-selection baselines: PoW, PoS, DPoS.

Each simulator maps (participants, rounds, rng) to a FrequencyTable of
win counts. PoW is modeled as a race of exponentials — the winner
distribution is exactly proportional to hash power, identical to
actually hashing, at desk-scale cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import FrequencyTable


@dataclass(frozen=True)
class Miner:
    id: str
    hash_power: float

    def __post_init__(self):
        if self.hash_power <= 0:
            raise ValueError(f"hash_power must be positive, got {self.hash_power}")


@dataclass(frozen=True)
class StakeValidator:
    id: str
    stake: float

    def __post_init__(self):
        if self.stake <= 0:
            raise ValueError(f"stake must be positive, got {self.stake}")


@dataclass(frozen=True)
class Delegate:
    id: str
    stake: float
    reputation: float

    def __post_init__(self):
        if self.stake <= 0:
            raise ValueError(f"stake must be positive, got {self.stake}")
        if not 0 < self.reputation <= 1:
            raise ValueError(f"reputation must lie in (0, 1], got {self.reputation}")


def run_pow(miners: list[Miner], rounds: int, rng) -> FrequencyTable:
    """Each round every miner draws an exponential solve time with rate
    proportional to hash power; the minimum solves first and wins."""
    if not miners or rounds < 1:
        raise ValueError("need at least one miner and one round")
    powers = np.array([m.hash_power for m in miners], dtype=float)
    # scale = 1/rate; argmin along the miner axis picks each round's winner
    times = rng.exponential(1.0 / powers, size=(rounds, len(miners)))
    winners = np.argmin(times, axis=1)
    return FrequencyTable.tally([m.id for m in miners], winners)


def run_pos(validators: list[StakeValidator], rounds: int, rng) -> FrequencyTable:
    """Winner each round drawn categorically with probability stake/total."""
    if not validators or rounds < 1:
        raise ValueError("need at least one validator and one round")
    stakes = np.array([v.stake for v in validators], dtype=float)
    winners = rng.choice(len(validators), size=rounds, p=stakes / stakes.sum())
    return FrequencyTable.tally([v.id for v in validators], winners)


def run_dpos(delegates: list[Delegate], rounds: int, rng) -> FrequencyTable:
    """Winner weight is stake x reputation; reputations stay fixed within a run."""
    if not delegates or rounds < 1:
        raise ValueError("need at least one delegate and one round")
    weights = np.array([d.stake * d.reputation for d in delegates], dtype=float)
    winners = rng.choice(len(delegates), size=rounds, p=weights / weights.sum())
    return FrequencyTable.tally([d.id for d in delegates], winners)
