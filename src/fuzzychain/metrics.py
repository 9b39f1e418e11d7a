"""Inequality and shape statistics over selection outcomes.

All statistics are population statistics (no sample bias correction):
they describe exactly the counts handed in, which for a simulation run
are the whole population of interest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class DegenerateDistributionError(ValueError):
    """Raised when a statistic is undefined for the given values."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    return arr


def gini(values) -> float:
    """Gini coefficient of non-negative values.

    0 means perfectly even, 1 means one holder has everything (in the
    large-n limit). Mean absolute difference form, computed on the
    sorted array in O(n log n):

        G = sum_i sum_j |x_i - x_j| / (2 n^2 mean)

    :raises DegenerateDistributionError: on empty input or all-zero totals.
    :raises ValueError: if any value is negative.
    """
    arr = _as_array(values)
    if arr.size == 0:
        raise DegenerateDistributionError("gini of empty sequence")
    if np.any(arr < 0):
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        raise DegenerateDistributionError("gini undefined when all values are zero")
    srt = np.sort(arr)
    n = srt.size
    # sum_i (2i - n - 1) x_(i) equals the double sum over |x_i - x_j|
    coef = 2.0 * np.arange(1, n + 1) - n - 1
    return float(np.dot(coef, srt) / (n * total))


def _central_moments(values, statistic: str):
    """(m2, m3, m4) of the values; raises where statistic is undefined."""
    arr = _as_array(values)
    if arr.size == 0:
        raise DegenerateDistributionError(f"{statistic} of empty sequence")
    dev = arr - arr.mean()
    m2 = np.mean(dev**2)
    if m2 == 0:
        raise DegenerateDistributionError(f"{statistic} undefined for zero variance")
    return m2, np.mean(dev**3), np.mean(dev**4)


def skewness(values) -> float:
    """Population skewness g1 = m3 / m2^(3/2).

    :raises DegenerateDistributionError: when variance is zero (fewer
        than two distinct values), where skewness is undefined.
    """
    m2, m3, _ = _central_moments(values, "skewness")
    return float(m3 / m2**1.5)


def kurtosis(values) -> float:
    """Population excess kurtosis g2 = m4 / m2^2 - 3 (normal -> 0).

    :raises DegenerateDistributionError: when variance is zero.
    """
    m2, _, m4 = _central_moments(values, "kurtosis")
    return float(m4 / m2**2 - 3.0)


@dataclass
class FrequencyTable:
    """Win counts keyed by category (validator id, or linguistic label).

    Iteration order of counts/values follows the category order given at
    construction, so metrics are reproducible independent of dict
    insertion history.
    """

    categories: tuple
    _counts: Counter

    def __init__(self, categories):
        self.categories = tuple(categories)
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate categories")
        self._counts = Counter()

    def record(self, category, weight: int = 1) -> None:
        if category not in self._counts and category not in self.categories:
            raise KeyError(f"unknown category {category!r}")
        self._counts[category] += weight

    def count(self, category) -> int:
        return self._counts.get(category, 0)

    def counts(self) -> list[int]:
        return [self._counts.get(c, 0) for c in self.categories]

    def total(self) -> int:
        return sum(self._counts.values())

    def as_dict(self) -> dict:
        return {c: self._counts.get(c, 0) for c in self.categories}

    def merge(self, other: "FrequencyTable") -> None:
        if other.categories != self.categories:
            raise ValueError("cannot merge tables with different categories")
        self._counts.update(other._counts)


def summarize_counts(counts) -> dict:
    """Gini/skewness/kurtosis plus mean and std for a count vector.

    Shape statistics are reported as None when degenerate (e.g. every
    category won equally often) instead of raising, since a flat table
    is a legitimate — indeed ideal — outcome for a fair selection rule.
    """
    arr = _as_array(counts)
    out = {
        "mean": float(arr.mean()) if arr.size else None,
        "std": float(arr.std()) if arr.size else None,
    }
    for name, statistic in (("gini", gini), ("skewness", skewness), ("kurtosis", kurtosis)):
        try:
            out[name] = statistic(arr)
        except DegenerateDistributionError:
            out[name] = None
    return out
