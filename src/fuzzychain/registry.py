"""Validator registry: stakes, linguistic labels, reputation, expulsion.

Participants are enrolled with a stake, classified into trusted sets
T_1..T_n by the linguistic variable, and carry a reputation in [0, 1]
that moves with their voting record. Reputation near-misses caused by
float accumulation are snapped back to exactly 1.0, because "reputation
equals 1" is a membership test for the preferred selection pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fuzzy import LinguisticVariable, classify_stake

REPUTATION_SNAP_TOL = 1e-9


@dataclass
class Participant:
    """One registered validator.

    reputation starts at 1.0 and never leaves [0, 1]. label_index is
    1-based (set on enrollment; refreshed by set_stake()).
    """

    id: str
    stake: float
    reputation: float = 1.0
    label_index: int = 0
    excluded: bool = False

    def expulsion_rate(self) -> float:
        """E = 1 - reputation, except a perfect record has no expulsion risk."""
        return 0.0 if self.reputation == 1.0 else 1.0 - self.reputation


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

    Construction classifies every stake through the linguistic variable;
    trusted_sets() then returns the *active* (non-excluded) members of
    each T_i in enrollment order.
    """

    def __init__(self, variable: LinguisticVariable, params: ReputationParams | None = None):
        self.variable = variable
        self.params = params or ReputationParams()
        # nothing is ever removed, so insertion order is enrollment order
        self._participants: dict[str, Participant] = {}

    def _place(self, p: Participant, stake: float) -> Participant:
        """Give p this stake and its label; a rejected stake leaves p unchanged.

        classify_stake raises OutOfUniverseError (a ValueError) for NaN and
        below-floor stakes before anything is written.
        """
        label_index = classify_stake(self.variable, stake).label_index
        p.stake = float(stake)
        p.label_index = label_index
        return p

    def enroll(self, pid: str, stake: float) -> Participant:
        if pid in self._participants:
            raise ValueError(f"participant {pid!r} already enrolled")
        p = self._place(Participant(id=pid, stake=0.0), stake)
        self._participants[pid] = p
        return p

    def enroll_many(self, stakes, prefix: str = "v") -> list[Participant]:
        width = max(4, len(str(len(stakes))))
        return [
            self.enroll(f"{prefix}{i:0{width}d}", s) for i, s in enumerate(stakes)
        ]

    def __len__(self) -> int:
        return len(self._participants)

    def __contains__(self, pid: str) -> bool:
        return pid in self._participants

    def get(self, pid: str) -> Participant:
        return self._participants[pid]

    def participants(self) -> list[Participant]:
        """Every enrolled participant, excluded ones included, in enrollment order."""
        return list(self._participants.values())

    def trusted_sets(self) -> list[list[Participant]]:
        """Active members of T_1..T_n, each in enrollment order."""
        sets: list[list[Participant]] = [[] for _ in range(self.variable.n)]
        for p in self._participants.values():
            if not p.excluded:
                sets[p.label_index - 1].append(p)
        return sets

    def apply_vote_outcome(self, pid: str, successful: bool) -> Participant:
        """Update one voter's reputation and re-check their expulsion status."""
        p = self._participants[pid]
        p.reputation = update_reputation(p.reputation, successful, self.params)
        if p.expulsion_rate() > self.params.epsilon:
            p.excluded = True
        return p

    def set_stake(self, pid: str, stake: float) -> Participant:
        """Change a stake (e.g. after a commission payout) and reclassify."""
        return self._place(self._participants[pid], stake)


def trusted_sets_required(n_labels: int) -> int:
    """Minimum number of trusted sets that must stay trustworthy,
    floor((n - 2) / 2) + 1, for the honest-majority argument to hold.

    Reported alongside run results; the engine itself does not act on
    it.
    """
    if n_labels < 3 or n_labels % 2 == 0:
        raise ValueError("need an odd number (>= 3) of trusted sets")
    return (n_labels - 2) // 2 + 1
