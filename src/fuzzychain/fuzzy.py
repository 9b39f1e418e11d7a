"""Linguistic variables over a stake universe.

A stake value is classified into one of n ordered linguistic labels
(e.g. VL, L, M, H, VH) by evaluating every label's membership function
and keeping the highest degree (HMDF). The default construction is a
uniform Ruspini partition: triangular interior sets with shouldered end
sets, so degrees sum to 1 everywhere on the universe and every stake
gets a label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEGREE_TOL = 1e-9

SHOULDER_LEFT = "shoulder-left"
INTERIOR = "interior"
SHOULDER_RIGHT = "shoulder-right"
_SHAPES = (SHOULDER_LEFT, INTERIOR, SHOULDER_RIGHT)


class OutOfUniverseError(ValueError):
    """Raised when a value to classify lies outside [universe_lo, universe_hi]."""


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership function with feet a, c and peak b.

    Shouldered variants clamp the outer flank to full membership:
    shoulder-left returns 1 for x <= b, shoulder-right returns 1 for
    x >= b.
    """

    a: float
    b: float
    c: float
    shape: str = INTERIOR

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown membership shape {self.shape!r}")
        if not self.a <= self.b <= self.c:
            raise ValueError(f"feet and peak must be ordered: a={self.a} b={self.b} c={self.c}")


def membership(mf: MembershipFunction, x: float) -> float:
    """Degree of membership of x, piecewise linear in [0, 1].

    Values outside [a, c] are allowed and map to 0 (or to 1 beyond a
    shoulder's flat side).
    """
    if mf.shape == SHOULDER_LEFT and x <= mf.b:
        return 1.0
    if mf.shape == SHOULDER_RIGHT and x >= mf.b:
        return 1.0
    if x < mf.a or x > mf.c:
        return 0.0
    if x <= mf.b:
        return (x - mf.a) / (mf.b - mf.a) if mf.b > mf.a else 1.0
    return (mf.c - x) / (mf.c - mf.b) if mf.c > mf.b else 1.0


def membership_array(mf: MembershipFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized membership; elementwise identical to membership()."""
    xs = np.asarray(xs, dtype=float)
    # a vertical flank is a step, so the degree is 0 outside [a, c] either way
    rising = (xs - mf.a) / (mf.b - mf.a) if mf.b > mf.a else (xs >= mf.a).astype(float)
    falling = (mf.c - xs) / (mf.c - mf.b) if mf.c > mf.b else (xs <= mf.c).astype(float)
    deg = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    if mf.shape == SHOULDER_LEFT:
        deg = np.where(xs <= mf.b, 1.0, deg)
    elif mf.shape == SHOULDER_RIGHT:
        deg = np.where(xs >= mf.b, 1.0, deg)
    return deg


@dataclass(frozen=True)
class LabelAssignment:
    """Outcome of classifying one stake: 1-based label index and its degree."""

    label_index: int
    degree: float


@dataclass(frozen=True)
class LinguisticVariable:
    """Named, ordered family of labeled membership functions on [lo, hi].

    Requires an odd label count (>= 3) and a Ruspini partition: degrees
    sum to 1 at every point of the universe (checked on a dense grid).
    """

    name: str
    labels: tuple[str, ...]
    universe_lo: float
    universe_hi: float
    mfs: tuple[MembershipFunction, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "mfs", tuple(self.mfs))
        n = len(self.labels)
        if n != len(self.mfs):
            raise ValueError(f"{n} labels but {len(self.mfs)} membership functions")
        if n < 3 or n % 2 == 0:
            raise ValueError("odd label count required")
        if not self.universe_lo < self.universe_hi:
            raise ValueError("universe_lo must be strictly below universe_hi")
        xs = np.linspace(self.universe_lo, self.universe_hi, 1001)
        total = sum(membership_array(mf, xs) for mf in self.mfs)
        worst = float(np.max(np.abs(total - 1.0)))
        if worst > DEGREE_TOL:
            raise ValueError(f"not a Ruspini partition: degree sum deviates by {worst:.3g}")

    @property
    def n(self) -> int:
        return len(self.labels)


def make_uniform_partition(name: str, labels, lo: float, hi: float) -> LinguisticVariable:
    """Uniform partition: peaks evenly spaced from lo to hi, feet at the
    neighboring peaks, shouldered end sets.

    Label count must be odd and at least 3.
    """
    labels = tuple(labels)
    n = len(labels)
    if n < 3 or n % 2 == 0:
        raise ValueError("odd label count required")
    if not lo < hi:
        raise ValueError("lo must be strictly below hi")
    peaks = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    mfs = []
    for i, p in enumerate(peaks):
        if i == 0:
            mfs.append(MembershipFunction(p, p, peaks[1], SHOULDER_LEFT))
        elif i == n - 1:
            mfs.append(MembershipFunction(peaks[i - 1], p, p, SHOULDER_RIGHT))
        else:
            mfs.append(MembershipFunction(peaks[i - 1], p, peaks[i + 1], INTERIOR))
    return LinguisticVariable(name, labels, float(lo), float(hi), tuple(mfs))


def hmdf(var: LinguisticVariable, x: float) -> LabelAssignment:
    """Highest membership degree function: the label where x belongs most.

    Ties at flank crossovers go to the lowest label index, so repeated
    calls are deterministic. x must lie inside the universe (NaN does not).
    """
    if not var.universe_lo <= x <= var.universe_hi:
        raise OutOfUniverseError(
            f"{x} outside universe [{var.universe_lo}, {var.universe_hi}]"
        )
    best_i, best_deg = 0, -1.0
    for i, mf in enumerate(var.mfs):
        deg = membership(mf, x)
        if deg > best_deg:
            best_i, best_deg = i, deg
    return LabelAssignment(best_i + 1, best_deg)


def classify_stake(var: LinguisticVariable, stake: float) -> LabelAssignment:
    """hmdf after clamping stakes that outgrew the universe back to its top."""
    return hmdf(var, min(stake, var.universe_hi))


def classify_batch(var: LinguisticVariable, stakes) -> tuple[np.ndarray, np.ndarray]:
    """classify_stake over a batch in one vectorized pass.

    Returns the 1-based label indices and their degrees, elementwise equal
    to classify_stake: stakes above the universe top are clamped, ties go
    to the lowest label, and a NaN or below-floor stake raises
    OutOfUniverseError before anything is returned.
    """
    xs = np.asarray(stakes if isinstance(stakes, np.ndarray) else list(stakes), dtype=float)
    xs = np.minimum(xs, var.universe_hi)
    outside = xs[~(xs >= var.universe_lo)]
    if outside.size:
        raise OutOfUniverseError(
            f"stake {outside[0]} outside universe [{var.universe_lo}, {var.universe_hi}]"
        )
    # a running argmax: a later label takes a stake only with a strictly higher
    # degree, so ties stay with the lowest label and one degree array is alive at a time
    best = membership_array(var.mfs[0], xs)
    labels = np.ones(xs.size, dtype=np.intp)
    for label, mf in enumerate(var.mfs[1:], start=2):
        degree = membership_array(mf, xs)
        higher = degree > best
        np.copyto(best, degree, where=higher)
        np.copyto(labels, label, where=higher)
        del degree, higher
    return labels, best


def scale_stakes(var: LinguisticVariable, stakes) -> list[LabelAssignment]:
    """Classify a batch of stakes, preserving order (see classify_batch)."""
    labels, degrees = classify_batch(var, stakes)
    return [
        LabelAssignment(label, degree)
        for label, degree in zip(labels.tolist(), degrees.tolist())
    ]


def hmdf_win_intervals(var: LinguisticVariable) -> list[tuple[float, float]]:
    """Per label, the interval of the universe where that label wins hmdf.

    For a Ruspini partition the boundaries are the flank crossovers,
    i.e. the midpoints between adjacent peaks.
    """
    peaks = [mf.b for mf in var.mfs]
    edges = [var.universe_lo]
    for left, right in zip(peaks, peaks[1:]):
        edges.append((left + right) / 2.0)
    edges.append(var.universe_hi)
    return list(zip(edges, edges[1:]))
