"""Winner-selection baselines: PoW, PoS, DPoS.

Each race maps (ids, weight vectors, rounds, rng) to a FrequencyTable of
win counts over ids, any sequence of distinct ids. exp2 passes
EnrollmentIds, which the table keeps as its categories and which spell
an id only when frequencies.csv (or an error message) reads it. The
weights are float vectors aligned with ids, and every weight must be
finite and above 0. PoW is modeled as a race of exponentials — the
winner distribution is exactly proportional to hash power, identical to
actually hashing, at desk-scale cost. PoS draws each round's winner
categorically with probability stake/total; DPoS is the same draw on
stake x reputation.
"""

from __future__ import annotations

import numpy as np

from .metrics import FrequencyTable

POW_BLOCK_DRAWS = 1 << 16  # solve times held at once by run_pow (512 KiB)


def _weights(name: str, ids, weights, rounds: int) -> np.ndarray:
    """weights as a float vector, checked against ids and rounds.

    :raises ValueError: without a participant or a round, on a shape other
        than (len(ids),), or (naming the weight) on a weight that is not
        finite and above 0.
    """
    if not len(ids) or rounds < 1:
        raise ValueError("need at least one participant and one round")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(ids),):
        raise ValueError(f"{name}: expected shape ({len(ids)},) to match the ids, got {w.shape}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must be finite and positive, got {w[i]} for {ids[i]}")
    return w


def run_pow(ids, powers, rounds: int, rng) -> FrequencyTable:
    """Each round every miner draws an exponential solve time with rate
    proportional to hash power; the minimum solves first and wins."""
    powers = _weights("hash_power", ids, powers, rounds)
    # scale = 1/rate, times the largest power so that subnormal powers cannot
    # overflow; argmin along the miner axis picks each round's winner. Blocks
    # of rounds draw the same stream as one draw, in bounded memory. numpy's
    # exponential(scale) is scale x standard_exponential() element by element,
    # so standard draws scaled in place are the same times, in one array a block.
    scale = powers.max() / powers
    step = max(1, POW_BLOCK_DRAWS // len(ids))
    winners = []
    for r in range(0, rounds, step):
        times = rng.standard_exponential(size=(min(step, rounds - r), len(ids)))
        times *= scale
        winners.append(np.argmin(times, axis=1))
    return FrequencyTable.tally(ids, np.concatenate(winners))


def run_pos(ids, stakes, rounds: int, rng) -> FrequencyTable:
    """Winner each round drawn categorically with probability stake/total."""
    stakes = _weights("stake", ids, stakes, rounds)
    winners = rng.choice(len(ids), size=rounds, p=stakes / stakes.sum())
    return FrequencyTable.tally(ids, winners)


def run_dpos(ids, stakes, reputations, rounds: int, rng) -> FrequencyTable:
    """PoS on stake x reputation, with each reputation in (0, 1] and fixed
    within a run."""
    stakes = _weights("stake", ids, stakes, rounds)
    reputations = _weights("reputation", ids, reputations, rounds)
    i = int(np.argmax(reputations))
    if reputations[i] > 1:
        raise ValueError(f"reputation must be at most 1, got {reputations[i]} for {ids[i]}")
    return run_pos(ids, stakes * reputations, rounds, rng)
