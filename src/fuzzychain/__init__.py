"""Deterministic simulation lab for the Fuzzychain consensus algorithm.

Fuzzy stake scaling feeds a reputation-weighted validator selection;
block decisions go to majority vote, and the committed history lives in
a minimal signed ledger. PoW/PoS/DPoS baselines and inequality metrics
(Gini, skewness, kurtosis) make selection-fairness comparisons runnable
from one seeded config.
"""

from .fuzzy import (
    LinguisticVariable,
    MembershipFunction,
    classify_stake,
    hmdf,
    make_uniform_partition,
    membership,
    scale_stakes,
)
from .metrics import FrequencyTable, gini, kurtosis, skewness
from .registry import Registry
from .consensus import FuzzychainEngine, RoundResult

__all__ = [
    "LinguisticVariable",
    "MembershipFunction",
    "classify_stake",
    "hmdf",
    "make_uniform_partition",
    "membership",
    "scale_stakes",
    "FrequencyTable",
    "gini",
    "kurtosis",
    "skewness",
    "Registry",
    "FuzzychainEngine",
    "RoundResult",
]

__version__ = "0.1.0"
