"""Validator registry: stakes, linguistic labels, reputation, expulsion.

Participants are enrolled with a stake, classified into trusted sets
T_1..T_n by the linguistic variable, and carry a reputation in [0, 1]
that moves with their voting record. Reputation near-misses caused by
float accumulation are snapped back to exactly 1.0, because "reputation
equals 1" is a membership test for the preferred selection pool.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .fuzzy import LinguisticVariable, classify_batch, classify_stake

REPUTATION_SNAP_TOL = 1e-9


class Participant:
    """One registered validator.

    reputation starts at 1.0 and never leaves [0, 1]. label_index is
    1-based (set on enrollment; refreshed by set_stake()). Writes to
    reputation, label_index and excluded reach the trusted sets of the
    registry that enrolled the participant, whoever makes them; a
    participant built by hand belongs to no registry. seq is the
    enrollment position, which that registry sets.
    """

    __slots__ = ("id", "stake", "_reputation", "_label_index", "_excluded",
                 "seq", "_registry")

    def __init__(self, id: str, stake: float, reputation: float = 1.0,
                 label_index: int = 0, excluded: bool = False):
        self.id = id
        self.stake = stake
        self._reputation = reputation
        self._label_index = label_index
        self._excluded = excluded
        self.seq = 0
        self._registry = None  # weak reference, so a registry is never part of a cycle

    def __repr__(self) -> str:
        return (f"Participant(id={self.id!r}, stake={self.stake!r}, "
                f"reputation={self._reputation!r}, label_index={self._label_index!r}, "
                f"excluded={self._excluded!r})")

    def _trusted_set(self, label_index: int | None = None) -> TrustedSet | None:
        """The enrolling registry's set for this (or the given) label, if any."""
        registry = self._registry() if self._registry is not None else None
        if registry is None:
            return None
        return registry._set_of(self._label_index if label_index is None else label_index)

    @property
    def reputation(self) -> float:
        return self._reputation

    @reputation.setter
    def reputation(self, value: float) -> None:
        if value != self._reputation and not self._excluded:
            group = self._trusted_set()
            if group is not None:
                group._set_reputation(self, value)
        self._reputation = value

    @property
    def label_index(self) -> int:
        return self._label_index

    @label_index.setter
    def label_index(self, value: int) -> None:
        if value != self._label_index and not self._excluded:
            target = self._trusted_set(value)  # an unknown label raises before anything moves
            if target is not None:
                self._trusted_set()._remove(self)
                target._insert(self)
        self._label_index = value

    @property
    def excluded(self) -> bool:
        return self._excluded

    @excluded.setter
    def excluded(self, value: bool) -> None:
        if bool(value) != bool(self._excluded):
            group = self._trusted_set()
            if group is not None:
                (group._remove if value else group._insert)(self)
        self._excluded = value

    def expulsion_rate(self) -> float:
        """E = 1 - reputation, so a perfect record has no expulsion risk."""
        return 1.0 - self._reputation


_ENROLLMENT_ORDER = attrgetter("seq")


class TrustedSet:
    """The active members of one trusted set T_i, in enrollment order, and
    their reputations as a read-only float64 array in the same order.

    A registry keeps its sets up to date as its participants change; a set
    built by hand from a member list is a snapshot of that list. The set
    also caches its selection state (see selection()), which every change
    made through its own methods clears.
    """

    __slots__ = ("members", "reputations", "_selection")

    def __init__(self, members=()):
        self.members: list[Participant] = []
        self.reputations = np.zeros(0)
        self._extend(list(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Participant:
        return self.members[i]

    def selection(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(A, cdf): the positions of the reputation-1 members, and
        reputation_cdf of the reputations; computed on the first call
        after a change, then cached. Both arrays are read-only."""
        if self._selection is None:
            a = np.flatnonzero(self.reputations == 1.0)
            cdf = reputation_cdf(self.reputations)
            for arr in (a, cdf):
                if arr is not None:
                    arr.flags.writeable = False
            self._selection = (a, cdf)
        return self._selection

    def _store(self, reputations: np.ndarray) -> None:
        reputations.flags.writeable = False
        self.reputations = reputations
        self._selection = None

    def _extend(self, members: list[Participant]) -> None:
        """Append members that come after every current one in enrollment order."""
        self.members.extend(members)
        self._store(np.concatenate(
            [self.reputations, np.array([m.reputation for m in members], dtype=float)]
        ))

    def _position(self, p: Participant) -> int:
        return bisect_left(self.members, p.seq, key=_ENROLLMENT_ORDER)

    def _insert(self, p: Participant) -> None:
        i = self._position(p)
        self.members.insert(i, p)
        self._store(np.insert(self.reputations, i, p.reputation))

    def _remove(self, p: Participant) -> None:
        i = self._position(p)
        del self.members[i]
        self._store(np.delete(self.reputations, i))

    def _set_reputation(self, p: Participant, value: float) -> None:
        """Write a member's reputation in place (the array keeps its identity)."""
        self.reputations.flags.writeable = True
        self.reputations[self._position(p)] = value
        self.reputations.flags.writeable = False
        self._selection = None


def reputation_cdf(weights: np.ndarray) -> np.ndarray | None:
    """The cdf that rng.choice(len(weights), p=weights / wsum) searches,
    built with the same floating-point steps, or None when every weight is 0."""
    wsum = weights.sum()
    if wsum > 0:
        cdf = (weights / wsum).cumsum()
        cdf /= cdf[-1]
        return cdf
    return None


@dataclass
class ReputationParams:
    """Knobs for the reputation walk.

    eta: penalty per unsuccessful vote; the reward per successful vote
    is eta / l_divisor, so recovery is l_divisor times slower than loss.
    epsilon: expulsion threshold — a participant whose expulsion rate
    exceeds it is excluded from future rounds.
    """

    eta: float = 0.1
    l_divisor: float = 20.0
    epsilon: float = 0.25

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.l_divisor <= 0:
            raise ValueError("l_divisor must be positive")
        if not 0 <= self.epsilon < 1:
            raise ValueError("epsilon must lie in [0, 1)")


def update_reputation(rep: float, successful: bool, params: ReputationParams) -> float:
    """One reputation step after a vote.

    Successful voters creep back toward 1 by eta/l_divisor (capped at
    1); unsuccessful voters drop by the full eta (floored at 0). Steps
    are rounded at the 12th decimal so repeated +/- eta walks stay on
    exact grid values instead of accumulating float fuzz.
    """
    if successful:
        if rep >= 1.0:
            return 1.0
        rep = min(1.0, rep + params.eta / params.l_divisor)
    else:
        rep = max(0.0, rep - params.eta)
    rep = round(rep, 12)
    if abs(rep - 1.0) < REPUTATION_SNAP_TOL:
        rep = 1.0
    return rep


class Registry:
    """All enrolled participants, grouped into trusted sets by label.

    Enrollment classifies every stake through the linguistic variable.
    The registry keeps the *active* (non-excluded) members of each T_i
    indexed as a TrustedSet, which trusted_sets() hands out as it stands.
    """

    def __init__(self, variable: LinguisticVariable, params: ReputationParams | None = None):
        self.variable = variable
        self.params = params or ReputationParams()
        # nothing is ever removed, so insertion order is enrollment order
        self._participants: dict[str, Participant] = {}
        self._sets = [TrustedSet() for _ in range(variable.n)]
        self._ref = weakref.ref(self)

    def _set_of(self, label_index: int) -> TrustedSet:
        if not 1 <= label_index <= len(self._sets):
            raise ValueError(f"label index {label_index} outside 1..{len(self._sets)}")
        return self._sets[label_index - 1]

    def _enroll(self, ids: list[str], stakes) -> list[Participant]:
        """Classify stakes in one batch and enroll them under ids, in order.

        All or nothing: a NaN or below-floor stake (OutOfUniverseError) or
        an id that is already enrolled (ValueError) enrolls none of them.
        """
        stakes = np.asarray(stakes, dtype=float)
        labels, _ = classify_batch(self.variable, stakes)
        for pid in ids:
            if pid in self._participants:
                raise ValueError(f"participant {pid!r} already enrolled")
        new = [
            Participant(pid, stake, label_index=label)
            for pid, stake, label in zip(ids, stakes.tolist(), labels.tolist())
        ]
        for seq, p in enumerate(new, start=len(self._participants)):
            p.seq = seq
            p._registry = self._ref
        self._participants.update((p.id, p) for p in new)
        for label, group in enumerate(self._sets, start=1):
            group._extend([new[i] for i in np.flatnonzero(labels == label).tolist()])
        return new

    def enroll(self, pid: str, stake: float) -> Participant:
        return self._enroll([pid], [stake])[0]

    def enroll_many(self, stakes) -> list[Participant]:
        """Enroll stakes in one pass (see _enroll), each as "v" and its
        zero-padded enrollment position: v0000, v0001, ... in a first batch."""
        first = len(self._participants)
        end = first + len(stakes)
        width = max(4, len(str(end)))
        return self._enroll(["v" + str(i).zfill(width) for i in range(first, end)], stakes)

    def __len__(self) -> int:
        return len(self._participants)

    def __contains__(self, pid: str) -> bool:
        return pid in self._participants

    def get(self, pid: str) -> Participant:
        return self._participants[pid]

    def ids(self) -> tuple[str, ...]:
        """Every enrolled id, excluded ones included, in enrollment order."""
        return tuple(self._participants)

    def participants(self) -> list[Participant]:
        """Every enrolled participant, excluded ones included, in enrollment order."""
        return list(self._participants.values())

    def trusted_sets(self) -> list[TrustedSet]:
        """Active members of T_1..T_n, each in enrollment order.

        The sets are the registry's own index, not copies: they follow
        later changes, and callers must not modify them (their
        reputation arrays are read-only).
        """
        return list(self._sets)

    def apply_vote_outcome(self, pid: str, successful: bool) -> Participant:
        """Update one voter's reputation and re-check their expulsion status."""
        p = self._participants[pid]
        p.reputation = update_reputation(p.reputation, successful, self.params)
        if p.expulsion_rate() > self.params.epsilon:
            p.excluded = True
        return p

    def set_stake(self, pid: str, stake: float) -> Participant:
        """Change a stake (e.g. after a commission payout) and reclassify.

        A rejected stake (NaN, below the floor) leaves the participant as it was.
        """
        p = self._participants[pid]
        label_index = classify_stake(self.variable, stake).label_index
        p.stake = float(stake)
        p.label_index = label_index
        return p


def trusted_sets_required(n_labels: int) -> int:
    """Minimum number of trusted sets that must stay trustworthy,
    floor((n - 2) / 2) + 1, for the honest-majority argument to hold.

    Reported alongside run results; the engine itself does not act on
    it.
    """
    if n_labels < 3 or n_labels % 2 == 0:
        raise ValueError("need an odd number (>= 3) of trusted sets")
    return (n_labels - 2) // 2 + 1
