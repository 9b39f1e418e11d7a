"""Win-count tables and the inequality and shape statistics over them.

A FrequencyTable is one int64 count vector in category order, built by
FrequencyTable.tally from the category positions of a run's winners.
All statistics are population statistics (no sample bias correction):
they describe exactly the counts handed in, which for a simulation run
are the whole population of interest.
"""

from __future__ import annotations

import numpy as np

from .ids import EnrollmentIds


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
    # sum_i (2i - n - 1) x_(i) equals the double sum over |x_i - x_j|; summed by
    # numpy's own reduction, not BLAS, so the bits do not depend on its thread count.
    # The terms are built in place, in one float vector; each step is exact for
    # counts (integers below 2**53)
    terms = np.arange(1, n + 1, dtype=float)
    terms *= 2.0
    terms -= n
    terms -= 1
    terms *= srt
    del srt
    return float(terms.sum() / (n * total))


def _shape_statistics(values, statistic: str) -> tuple[float, float]:
    """(skewness, kurtosis) from one pass over the central moments m2, m3
    and m4; raises where statistic is undefined."""
    arr = _as_array(values)
    if arr.size == 0:
        raise DegenerateDistributionError(f"{statistic} of empty sequence")
    dev = arr - arr.mean()
    m2 = np.mean(dev**2)
    if m2 == 0:
        raise DegenerateDistributionError(f"{statistic} undefined for zero variance")
    # integer counts take few distinct values: raise those, then scatter them back.
    # The distinct values come from one sort, and searchsorted finds each value's
    # place among them: no argsort (np.unique's return_inverse), and no lazy
    # numpy.ma import on the first call (np.unique's plain path)
    srt = np.sort(dev)
    u = srt[np.concatenate(([True], srt[1:] != srt[:-1]))]
    del srt
    inv = u.searchsorted(dev)
    del dev
    m3, m4 = np.mean((u**3)[inv]), np.mean((u**4)[inv])
    return float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)


def skewness(values) -> float:
    """Population skewness g1 = m3 / m2^(3/2).

    :raises DegenerateDistributionError: when variance is zero (fewer
        than two distinct values), where skewness is undefined.
    """
    return _shape_statistics(values, "skewness")[0]


def kurtosis(values) -> float:
    """Population excess kurtosis g2 = m4 / m2^2 - 3 (normal -> 0).

    :raises DegenerateDistributionError: when variance is zero.
    """
    return _shape_statistics(values, "kurtosis")[1]


class FrequencyTable:
    """Win counts over a fixed category order (validator ids, or linguistic labels).

    Holds the categories, which must be distinct (a registry's EnrollmentIds,
    kept as they are, or a tuple of anything else), and one read-only int64
    count vector in that order, so every read is reproducible whatever
    order the wins came in. tally() is the one way wins become counts:
    each win is given as its category's position. Tables over the same
    categories pool by summing their count vectors.
    """

    def __init__(self, categories, counts):
        """counts: integer vector of shape (len(categories),), in category order,
        of which the table keeps its own copy.

        :raises ValueError: on duplicate categories or a count vector of the wrong shape.
        """
        self._take(categories, counts, copy=True)

    @classmethod
    def tally(cls, categories, positions) -> "FrequencyTable":
        """Count wins given as positions in categories, one per win.

        :raises ValueError: on a negative position, or (naming the count
            vector's shape) a position past the last category.
        """
        table = cls.__new__(cls)
        table._take(categories, np.bincount(positions, minlength=len(categories)), copy=False)
        return table

    def _take(self, categories, counts, copy: bool) -> None:
        """Hold categories and counts as int64, copied only when copy is set or
        the dtype differs, and made read-only."""
        if isinstance(categories, EnrollmentIds):
            self.categories = categories  # distinct by construction
        else:
            self.categories = tuple(categories)
            if len(set(self.categories)) != len(self.categories):
                raise ValueError("duplicate categories")
        counts = np.asarray(counts)
        if counts.size == 0:  # np.asarray([]) is float64, which the safe cast refuses
            counts = counts.astype(np.int64)
        if counts.shape != (len(self.categories),):
            raise ValueError(f"counts of shape {counts.shape} for {len(self.categories)} categories")
        self._counts = counts.astype(np.int64, casting="safe", copy=copy)
        self._counts.flags.writeable = False

    def counts(self) -> np.ndarray:
        return self._counts

    def total(self) -> int:
        return int(self._counts.sum())

    def as_dict(self) -> dict:
        return dict(zip(self.categories, self._counts.tolist()))


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
    try:
        out["gini"] = gini(arr)
    except DegenerateDistributionError:
        out["gini"] = None
    try:
        out["skewness"], out["kurtosis"] = _shape_statistics(arr, "shape statistics")
    except DegenerateDistributionError:
        out["skewness"] = out["kurtosis"] = None
    return out
