"""Linguistic variables over a stake universe.

A stake is classified into one of n ordered linguistic labels (e.g. VL,
L, M, H, VH): the label of highest membership degree (HMDF). A partition
is its peaks: a left shoulder, triangular interior sets and a right
shoulder, each foot on the neighbouring peak (a Ruspini partition, and
the one shape built), so the label is a step function of the stake.
Its n - 1 steps, the label edges, are found once per partition with
hmdf's own arithmetic; classifying searches them, and only hmdf gives degrees.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SHOULDER_LEFT = "shoulder-left"
INTERIOR = "interior"
SHOULDER_RIGHT = "shoulder-right"
_SHAPES = (SHOULDER_LEFT, INTERIOR, SHOULDER_RIGHT)
_F64, _U64 = struct.Struct("<d"), struct.Struct("<Q")


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


@dataclass(frozen=True)
class LabelAssignment:
    """Outcome of classifying one stake: 1-based label index and its degree."""

    label_index: int
    degree: float


def _argmax(mfs, x: float) -> tuple[int, float]:
    """hmdf's arithmetic at any x: the 1-based label of the highest degree,
    ties going to the lowest, and that degree."""
    best_i, best_deg = 0, -1.0
    for i, mf in enumerate(mfs, start=1):
        deg = membership(mf, x)
        if deg > best_deg:
            best_i, best_deg = i, deg
    return best_i, best_deg


def _triangles(feet) -> tuple[MembershipFunction, ...]:
    """A left shoulder, interior triangles and a right shoulder peaking at
    feet[1:-1], each foot on the neighbouring peak or, outermost, feet[0] and feet[-1]."""
    shapes = [SHOULDER_LEFT] + [INTERIOR] * (len(feet) - 4) + [SHOULDER_RIGHT]
    return tuple(MembershipFunction(*feet[i:i + 3], shape) for i, shape in enumerate(shapes))


def _ordinal(x: float) -> int:
    """x's place among the floats: adjacent floats differ by 1, -0.0 and 0.0 are 0."""
    bits = _U64.unpack(_F64.pack(x))[0]
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _float(ordinal: int) -> float:
    return _F64.unpack(_U64.pack(ordinal if ordinal >= 0 else (1 << 63) - ordinal))[0]


@dataclass(frozen=True)
class LinguisticVariable:
    """Named, ordered labels on [lo, hi], partitioned by their peaks.

    Label i's membership function peaks at peaks[i]: a left shoulder,
    interior triangles and a right shoulder, each foot on the neighbouring
    peak. Requires an odd label count (>= 3), one finite peak per label,
    strictly increasing, and a finite sum of each adjacent pair, whose
    half is where their labels' draw intervals meet.
    """

    name: str
    labels: tuple[str, ...]
    universe_lo: float
    universe_hi: float
    peaks: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "peaks", tuple(map(float, self.peaks)))
        n, peaks = len(self.labels), self.peaks
        if n != len(peaks):
            raise ValueError(f"{n} labels but {len(peaks)} peaks")
        if n < 3 or n % 2 == 0:
            raise ValueError("odd label count required")
        if not self.universe_lo < self.universe_hi:
            raise ValueError("universe_lo must be strictly below universe_hi")
        if not (all(map(math.isfinite, peaks)) and all(p < q for p, q in zip(peaks, peaks[1:]))):
            raise ValueError(f"peaks must be finite and strictly increasing, got {list(peaks)}")
        if not all(math.isfinite(p + q) for p, q in zip(peaks, peaks[1:])):
            raise ValueError(f"adjacent peaks must have a finite sum, got {list(peaks)}")

    @cached_property
    def mfs(self) -> tuple[MembershipFunction, ...]:
        """The labels' membership functions, derived once per partition."""
        return _triangles([self.peaks[0], *self.peaks, self.peaks[-1]])

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def edges(self) -> tuple[float, ...]:
        """e_2..e_n, e_k the least float where hmdf's label reaches k: x has
        label bisect_right(edges, x) + 1. A rounded rising flank never falls
        and a falling one never rises, so the label never falls as x grows;
        it is k - 1 at peak k - 1 and k at peak k, and bisecting the floats
        between them finds e_k exactly, galloping up from just below their
        midpoint, where it usually is. Computed once per partition."""
        peaks, edges = self.peaks, []
        for k in range(2, self.n + 1):
            lo, hi = _ordinal(peaks[k - 2]), _ordinal(peaks[k - 1])  # labels k - 1 and k
            x, step = max(lo + 1, _ordinal((peaks[k - 2] + peaks[k - 1]) / 2) - 1), 1
            while x < hi and _argmax(self.mfs, _float(x))[0] < k:
                lo, x, step = x, x + step, 2 * step
            hi = min(hi, x)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if _argmax(self.mfs, _float(mid))[0] < k else (lo, mid)
            edges.append(_float(hi))
        return tuple(edges)


def make_uniform_partition(name: str, labels, lo: float, hi: float) -> LinguisticVariable:
    """Uniform partition: peaks evenly spaced from lo to hi, feet at the
    neighboring peaks, shouldered end sets; an odd label count of at least 3."""
    labels = tuple(labels)
    n = len(labels)
    if n < 3 or n % 2 == 0:
        raise ValueError("odd label count required")
    peaks = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    return LinguisticVariable(name, labels, float(lo), float(hi), peaks)


def _outside(var: LinguisticVariable, x) -> OutOfUniverseError:
    return OutOfUniverseError(f"{x} outside universe [{var.universe_lo}, {var.universe_hi}]")


def hmdf(var: LinguisticVariable, x: float) -> LabelAssignment:
    """Highest membership degree function: the label where x belongs most, by
    every label's membership function, ties going to the lowest label. x must
    lie inside the universe (NaN does not)."""
    if not var.universe_lo <= x <= var.universe_hi:
        raise _outside(var, x)
    return LabelAssignment(*_argmax(var.mfs, x))


def classify_stake(var: LinguisticVariable, stake: float) -> int:
    """hmdf's label after clamping stakes that outgrew the universe back to its
    top, by one search among the partition's edges; no membership function is
    evaluated. A NaN or below-floor stake raises OutOfUniverseError."""
    x = min(stake, var.universe_hi)
    if not var.universe_lo <= x:
        raise _outside(var, x)
    return bisect_right(var.edges, x) + 1


def classify_batch(var: LinguisticVariable, stakes) -> np.ndarray:
    """classify_stake's labels over a batch, by one search among the edges:
    stakes above the universe top are clamped, and a NaN or below-floor stake
    raises OutOfUniverseError, naming the first, before anything is returned.
    Besides the labels, it allocates one clamped copy of the stakes."""
    xs = np.array(stakes if isinstance(stakes, np.ndarray) else list(stakes), dtype=float)
    np.minimum(xs, var.universe_hi, out=xs)
    if xs.size and not xs.min() >= var.universe_lo:  # a NaN fails this too
        raise _outside(var, f"stake {xs[np.argmin(xs >= var.universe_lo)]}")
    labels = np.searchsorted(var.edges, xs, side="right")
    labels += 1
    return labels


def scale_stakes(var: LinguisticVariable, stakes) -> list[LabelAssignment]:
    """hmdf over a batch clamped to the universe top, preserving order; a NaN
    or below-floor stake raises OutOfUniverseError before anything is returned."""
    xs = np.asarray(stakes if isinstance(stakes, np.ndarray) else list(stakes), dtype=float)
    return [hmdf(var, min(x, var.universe_hi)) for x in xs.tolist()]


def hmdf_win_intervals(var: LinguisticVariable) -> list[tuple[float, float]]:
    """Per label, the interval the census sampler draws it from: bounded by
    the universe's ends and the midpoints of adjacent peaks, where the flanks
    cross. A label edge lies at its midpoint or a few ulps above it, so a draw
    in that gap strays to the label below, and a draw that rounds up onto its
    interval's top strays to the label above where that top is the next label
    edge; the sampler redraws strays."""
    peaks = var.peaks
    bounds = [var.universe_lo, *((p + q) / 2.0 for p, q in zip(peaks, peaks[1:])), var.universe_hi]
    return list(zip(bounds, bounds[1:]))
