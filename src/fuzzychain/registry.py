"""Validator registry: stakes, linguistic labels, reputation, expulsion.

A registry is built whole from its participants' stakes: each stake is
classified into a trusted set T_1..T_n by the linguistic variable's label
edges (or arrives with its label, from a census drawn per label), and each
participant carries a reputation in [0, 1] that moves with their voting
record. Reputation near-misses caused by float accumulation are snapped
back to exactly 1.0, because "reputation equals 1" is a membership test for
the preferred selection pool.

The registry stores its participants as columns, one row each. Trusted set
T_i (i = k + 1) is addressed by its index k: trusted_set(k) and draw_views(k)
derive it from the columns, cache it, and rebuild it when a write makes it
stale. Expulsion is one-way: an expelled participant sits out every later
round.

A participant is its enrollment position: the round engine selects, votes
and settles on positions, and a participant's id is its position spelled
out ("v" and the zero-padded position), spelled only where a caller reads
it through ids() (the audit log and frequencies.csv). A label follows the
stake: it changes only through set_stake, which classifies the stake with
one search among the edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuzzy import LinguisticVariable, classify_batch, classify_stake
from .ids import EnrollmentIds

REPUTATION_SNAP_TOL = 1e-9


def reputation_cdf(weights: np.ndarray) -> np.ndarray | None:
    """The cdf that rng.choice(len(weights), p=weights / wsum) searches,
    built with the same floating-point steps, or None when every weight is 0."""
    wsum = np.add.reduce(weights)
    if wsum > 0:
        cdf = np.divide(weights, wsum)
        np.add.accumulate(cdf, out=cdf)
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

    The constructor classifies each stake and builds the columns, with no
    per-participant object; no participant joins later. The active members of
    each T_i are derived from the columns by set index (trusted_set(k),
    draw_views(k)). Reads (columns()), settlement (apply_vote_outcome,
    set_stake) and the two direct writes (set_reputation, expel) address
    participants by position; ids() spells each position out, and nothing
    looks an id up.

    The columns are memoryviews of numpy arrays, so a scalar read gives a
    Python float, int or bool. Each set caches its positions and one
    (positions, A, cdf) entry of read-only memoryviews: an expulsion or a
    label move drops both, and a reputation write to an active row only the
    entry, so it never rescans the population.
    """

    def __init__(self, variable: LinguisticVariable, stakes, params: ReputationParams | None = None,
                 *, labels=None):
        """Build the registry of a one-dimensional batch of stakes, enrolled in
        order, each under its position's id (see ids()) and classified into its
        label. All or nothing: stakes of another shape (ValueError, naming it)
        or with a NaN or below-floor stake (OutOfUniverseError) build no
        registry. labels, when given, must be the stakes' classify_batch
        labels: they and the stakes are then taken unchecked, with no
        classification."""
        stakes = np.array(stakes, dtype=float)  # a copy: no caller's array is a column
        if stakes.ndim != 1:
            raise ValueError(f"stakes of shape {stakes.shape}: need a one-dimensional batch")
        if labels is None:
            labels = classify_batch(variable, stakes)
        n = len(stakes)
        self.variable = variable
        self.params = params or ReputationParams()
        self._ids = EnrollmentIds(n)
        self._reputation_array = np.ones(n)  # the reputation column, as draw_views gathers it
        self._stake, self._label, self._reputation, self._excluded = map(memoryview, (
            stakes, np.asarray(labels, np.int64), self._reputation_array, np.zeros(n, bool)))
        self._columns = tuple(col.toreadonly() for col in
                              (self._stake, self._label, self._reputation, self._excluded))
        self._positions, self._selections = [None] * variable.n, [None] * variable.n

    def _row(self, seq: int) -> int:
        """seq itself, once checked to be an enrolled position (no negative wrap-around)."""
        if not 0 <= seq < len(self._stake):
            raise IndexError(f"no participant at position {seq}")
        return seq

    def _drop(self, k: int) -> None:
        self._positions[k] = self._selections[k] = None

    def _set_reputation(self, i: int, value: float) -> None:
        if value != self._reputation[i] and not self._excluded[i]:
            self._selections[self._label[i] - 1] = None
        self._reputation[i] = value

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> EnrollmentIds:
        """Every enrolled id, excluded ones included, in enrollment order: the
        id at position i is "v" and i zero-padded to one width, max(4, the
        digits of len(self)) (see fuzzychain.ids). A lazy sequence that spells
        each id when it is read, made by the constructor and never changed."""
        return self._ids

    def participants(self) -> range:
        """Every enrolled position, excluded ones included, in enrollment order."""
        return range(len(self))

    def trusted_set(self, k: int) -> memoryview:
        """Positions of the active members of T_{k+1} (the rows labelled k + 1
        and not excluded), in enrollment order: a read-only memoryview, cached
        until a write drops it."""
        if self._positions[k] is None:
            active = (np.asarray(self._label) == k + 1) & ~np.asarray(self._excluded)
            self._positions[k] = memoryview(np.flatnonzero(active)).toreadonly()
        return self._positions[k]

    def draw_views(self, k: int) -> tuple[memoryview, memoryview, memoryview | None]:
        """(positions, A, cdf) of T_{k+1}: positions is trusted_set(k), A the
        indices into it of the reputation-1 members and cdf reputation_cdf of
        the members' reputations (None when all are 0), cached until the set
        changes. Indexing these read-only memoryviews gives Python ints and
        floats, as the round's draws want."""
        if self._selections[k] is None:
            positions = self.trusted_set(k)
            reps = self._reputation_array.take(positions)
            cdf = reputation_cdf(reps)
            self._selections[k] = (positions, memoryview((reps == 1.0).nonzero()[0]).toreadonly(),
                                   None if cdf is None else memoryview(cdf).toreadonly())
        return self._selections[k]

    def trusted_sets(self) -> list[memoryview]:
        """trusted_set(k) of every set, T_1..T_n in order."""
        return [self.trusted_set(k) for k in range(self.variable.n)]

    def columns(self) -> tuple[memoryview, memoryview, memoryview, memoryview]:
        """Read-only (stake, label, reputation, excluded) columns, indexed by
        position, made by the constructor. Settlement writes show through them."""
        return self._columns

    def apply_vote_outcome(self, seq: int, successful: bool) -> None:
        """Update the reputation of the voter at position seq and re-check
        their expulsion status."""
        i = self._row(seq)
        rep = self._reputation[i]
        if successful and rep == 1.0:
            return  # a spotless record stays spotless, and the member stays in
        rep = update_reputation(rep, successful, self.params)
        self._set_reputation(i, rep)
        if 1.0 - rep > self.params.epsilon:  # the expulsion rate E = 1 - reputation
            self.expel(i)

    def set_reputation(self, seq: int, value: float) -> None:
        """Write the reputation at position seq; a value outside [0, 1], NaN
        included, raises ValueError before anything moves."""
        i = self._row(seq)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"reputation {value!r} outside [0, 1]")
        self._set_reputation(i, value)

    def expel(self, seq: int) -> None:
        """Exclude the participant at position seq from every later round; one
        already excluded stays so, and nothing moves."""
        i = self._row(seq)
        if not self._excluded[i]:
            self._excluded[i] = True
            self._drop(self._label[i] - 1)

    def set_stake(self, seq: int, stake: float) -> None:
        """Change the stake at position seq (e.g. after a commission payout) and
        relabel it by classify_stake's label, no degree; a rejected stake (NaN,
        below the floor) leaves the participant as it was."""
        i = self._row(seq)
        label = classify_stake(self.variable, stake)
        self._stake[i] = stake
        if label != self._label[i]:
            if not self._excluded[i]:
                self._drop(self._label[i] - 1)
                self._drop(label - 1)
            self._label[i] = label


def trusted_sets_required(n_labels: int) -> int:
    """Minimum number of trusted sets that must stay trustworthy,
    floor((n - 2) / 2) + 1, for the honest-majority argument to hold.

    Reported alongside run results; the engine itself does not act on
    it.
    """
    if n_labels < 3 or n_labels % 2 == 0:
        raise ValueError("need an odd number (>= 3) of trusted sets")
    return (n_labels - 2) // 2 + 1
