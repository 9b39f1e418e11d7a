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
from functools import lru_cache

import numpy as np

from .fuzzy import LinguisticVariable, classify_batch, classify_stake

REPUTATION_SNAP_TOL = 1e-9
_DTYPES = (float, np.int64, float, bool)  # of the stake, label, reputation and excluded columns


@lru_cache(maxsize=1)
def _enrollment_ids(first: int, end: int) -> tuple[str, ...]:
    """v0000, v0001, ...: "v" and each zero-padded position; one census's repetitions share them."""
    width = max(4, len(str(end)))
    return tuple("v" + str(i).zfill(width) for i in range(first, end))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Storage:
    """Participant columns in enrollment order, and trusted sets over them.

    stake, label, reputation and excluded are memoryviews of numpy arrays,
    so a scalar read gives a Python float, int or bool. Set k is its
    members' sorted positions and reputations, plus its cached selection
    state: in an indexed storage (a registry's), the active rows labelled
    k + 1; in a snapshot, every row. Views are held weakly (no cycles).
    rows: (id, stake, label_index, reputation, excluded) tuples to start with.
    """

    __slots__ = ("ids", "index", "stake", "label", "reputation", "excluded", "indexed",
                 "positions", "reputations", "selections", "_views")

    def __init__(self, n_sets: int, indexed: bool, rows=()):
        self.ids, self.index, self.indexed, self._views = (), {}, indexed, {}
        self.stake, self.label, self.reputation, self.excluded = (
            memoryview(np.zeros(0, dtype)) for dtype in _DTYPES)
        self.positions = [memoryview(_read_only(np.zeros(0, np.intp)))] * n_sets
        self.reputations = [_read_only(np.zeros(0))] * n_sets
        self.selections: list[tuple | None] = [None] * n_sets
        if rows:
            self.append(*zip(*rows))

    def append(self, ids, *columns) -> None:
        """Add rows (ids, then one value list per column) after every current one;
        each set gains its new rows at its end."""
        first = len(self.ids)
        self.ids += tuple(ids)
        self.index.update(zip(self.ids[first:], range(first, len(self.ids))))
        new = [np.asarray(col, dtype) for col, dtype in zip(columns, _DTYPES)]
        self.stake, self.label, self.reputation, self.excluded = (
            memoryview(np.concatenate([old, col])) for old, col in
            zip((self.stake, self.label, self.reputation, self.excluded), new))
        _, label, reputation, excluded = new
        for k in range(len(self.positions)):
            rows = (np.flatnonzero((label == k + 1) & ~excluded) if self.indexed
                    else np.arange(len(label)))
            self._set(k, np.concatenate([self.positions[k], rows + first]),
                      np.concatenate([self.reputations[k], reputation[rows]]))

    def _set(self, k: int, positions: np.ndarray, reputations: np.ndarray) -> None:
        self.positions[k] = memoryview(_read_only(positions))
        self.reputations[k] = _read_only(reputations)
        self.selections[k] = None

    def set_reputation(self, i: int, value: float) -> None:
        if value != self.reputation[i] and self.indexed and not self.excluded[i]:
            k = self.label[i] - 1
            reputations = self.reputations[k]
            reputations.flags.writeable = True  # in place: the array keeps its identity
            reputations[bisect_left(self.positions[k], i)] = value
            reputations.flags.writeable = False
            self.selections[k] = None
        self.reputation[i] = value

    def set_label(self, i: int, value: int) -> None:
        if self.indexed and not 1 <= value <= len(self.positions):  # before anything moves
            raise ValueError(f"label index {value} outside 1..{len(self.positions)}")
        if value != self.label[i]:
            excluded = self.excluded[i]
            self.set_excluded(i, True)  # out of the old label's set, if in one,
            self.label[i] = value
            self.set_excluded(i, excluded)  # and into the new one's

    def set_excluded(self, i: int, value: bool) -> None:
        """Remove row i from (or insert it into) the set of its label, in order."""
        if bool(value) == self.excluded[i]:
            return
        self.excluded[i] = value
        if self.indexed:
            k = self.label[i] - 1
            positions, reputations = self.positions[k], self.reputations[k]
            j = bisect_left(positions, i)
            if value:
                self._set(k, np.delete(positions, j), np.delete(reputations, j))
            else:
                self._set(k, np.insert(positions, j, i),
                          np.insert(reputations, j, self.reputation[i]))

    def view(self, i: int) -> Participant:
        """The view of row i: the same object while a reference to it is alive."""
        p = self._views[i]() if i in self._views else None  # a dead entry is replaced below
        if p is None:
            p = Participant.__new__(Participant)
            p._store, p._seq, p.id = self, i, self.ids[i]
            self._views[i] = weakref.ref(p)
        return p


class Participant:
    """One registered validator: a view of one row of a registry's columns.

    reputation starts at 1.0 and never leaves [0, 1]; label_index is 1-based
    and follows Registry.set_stake. Reads give Python floats, ints and bools;
    writes reach the trusted sets. seq is the read-only enrollment position.
    A view holds the columns, not the registry, so it outlives the registry.
    One built by hand is a snapshot of its arguments, with seq 0.
    """

    __slots__ = ("_store", "_seq", "id", "__weakref__")

    def __init__(self, id: str, stake: float, reputation: float = 1.0,
                 label_index: int = 0, excluded: bool = False):
        self._store = _Storage(1, False, [(id, stake, label_index, reputation, excluded)])
        self._seq, self.id = 0, id

    def __repr__(self) -> str:
        return (f"Participant(id={self.id!r}, stake={self.stake!r}, "
                f"reputation={self.reputation!r}, label_index={self.label_index!r}, "
                f"excluded={self.excluded!r})")

    seq = property(lambda self: self._seq)
    stake = property(lambda self: self._store.stake[self._seq])
    reputation = property(lambda self: self._store.reputation[self._seq],
                          lambda self, value: self._store.set_reputation(self._seq, value))
    label_index = property(lambda self: self._store.label[self._seq],
                           lambda self, value: self._store.set_label(self._seq, value))
    excluded = property(lambda self: self._store.excluded[self._seq],
                        lambda self, value: self._store.set_excluded(self._seq, value))

    def expulsion_rate(self) -> float:
        """E = 1 - reputation, so a perfect record has no expulsion risk."""
        return 1.0 - self.reputation


class TrustedSet:
    """The active members of one trusted set T_i, in enrollment order.

    positions and reputations are theirs, read-only; indexing or iterating makes
    views. A registry's set follows the registry; one built by hand is a snapshot.
    """

    __slots__ = ("_store", "_k")

    def __init__(self, members=(), *, _store: _Storage | None = None, _k: int = 0):
        self._store = _store or _Storage(
            1, False, [(m.id, m.stake, m.label_index, m.reputation, m.excluded) for m in members])
        self._k = _k

    positions = property(lambda self: self._store.positions[self._k])
    reputations = property(lambda self: self._store.reputations[self._k])
    members = property(lambda self: list(self), doc="The members as views, in a new list.")

    def __len__(self) -> int:
        return len(self._store.positions[self._k])

    def __iter__(self):
        return map(self._store.view, self.positions)

    def __getitem__(self, i: int) -> Participant:
        return self._store.view(self._store.positions[self._k][i])

    def selection(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(A, cdf): the positions in this set of the reputation-1 members and
        reputation_cdf of the reputations, cached until the set changes (read-only)."""
        store, k = self._store, self._k
        if store.selections[k] is None:
            reps = store.reputations[k]
            a, cdf = np.flatnonzero(reps == 1.0), reputation_cdf(reps)
            store.selections[k] = (_read_only(a), cdf if cdf is None else _read_only(cdf))
        return store.selections[k]


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

    Enrollment (of stakes, and by enroll and enroll_many) classifies each
    stake and stores it as columns, building no per-participant object;
    get, participants and the sets make views on demand. The active
    members of each T_i are indexed as a TrustedSet (see trusted_sets()).
    """

    def __init__(self, variable: LinguisticVariable, params: ReputationParams | None = None,
                 stakes=()):
        self.variable = variable
        self.params = params or ReputationParams()
        self._store = _Storage(variable.n, indexed=True)
        self._sets = [TrustedSet(_store=self._store, _k=k) for k in range(variable.n)]
        if len(stakes):
            self._enroll(stakes)

    def _enroll(self, stakes, ids=None) -> range:
        """Classify stakes in one batch and enroll them in order under ids (by
        default _enrollment_ids); returns their positions. All or nothing: a NaN or
        below-floor stake (OutOfUniverseError) or a taken id (ValueError) enrolls none."""
        stakes = np.asarray(stakes, dtype=float)
        labels, _ = classify_batch(self.variable, stakes)
        store = self._store
        first, end = len(store.ids), len(store.ids) + len(stakes)
        ids = _enrollment_ids(first, end) if ids is None else ids
        if not store.index.keys().isdisjoint(ids):
            taken = next(pid for pid in ids if pid in store.index)
            raise ValueError(f"participant {taken!r} already enrolled")
        store.append(ids, stakes, labels, np.ones(len(stakes)), np.zeros(len(stakes)))
        return range(first, end)

    def enroll(self, pid: str, stake: float) -> Participant:
        return self._store.view(self._enroll([stake], [pid])[0])

    def enroll_many(self, stakes) -> list[Participant]:
        """Enroll stakes in one pass (see _enroll) and return their views."""
        return [self._store.view(i) for i in self._enroll(stakes)]

    def __len__(self) -> int:
        return len(self._store.ids)

    def __contains__(self, pid: str) -> bool:
        return pid in self._store.index

    def get(self, pid: str) -> Participant:
        return self._store.view(self._store.index[pid])

    def ids(self) -> tuple[str, ...]:
        """Every enrolled id, excluded ones included, in enrollment order."""
        return self._store.ids

    def participants(self) -> list[Participant]:
        """Every enrolled participant, excluded ones included, in enrollment order."""
        return [self._store.view(i) for i in range(len(self))]

    def trusted_sets(self) -> list[TrustedSet]:
        """Active members of T_1..T_n, each in enrollment order: the registry's
        own index, not copies, so they follow later changes (and are read-only)."""
        return list(self._sets)

    def apply_vote_outcome(self, pid: str, successful: bool) -> None:
        """Update one voter's reputation and re-check their expulsion status."""
        store, i = self._store, self._store.index[pid]
        rep = update_reputation(store.reputation[i], successful, self.params)
        store.set_reputation(i, rep)
        if 1.0 - rep > self.params.epsilon:  # the expulsion rate E = 1 - reputation
            store.set_excluded(i, True)

    def set_stake(self, pid: str, stake: float) -> None:
        """Change a stake (e.g. after a commission payout) and reclassify; a
        rejected stake (NaN, below the floor) leaves the participant as it was."""
        store, i = self._store, self._store.index[pid]
        label_index = classify_stake(self.variable, stake).label_index
        store.stake[i] = stake
        store.set_label(i, label_index)


def trusted_sets_required(n_labels: int) -> int:
    """Minimum number of trusted sets that must stay trustworthy,
    floor((n - 2) / 2) + 1, for the honest-majority argument to hold.

    Reported alongside run results; the engine itself does not act on
    it.
    """
    if n_labels < 3 or n_labels % 2 == 0:
        raise ValueError("need an odd number (>= 3) of trusted sets")
    return (n_labels - 2) // 2 + 1
