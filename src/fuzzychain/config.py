"""Experiment configuration: defaults, file parsing, validation.

The whole harness is driven by one ExperimentConfig value; a run is a
pure function of (config, seed inside it). Parsing collects *all*
field-level problems before failing so a config file can be fixed in
one pass.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .ledger import CURVES, DEFAULT_CURVE

EXPERIMENTS = ("exp1", "exp2", "custom")
GRANULARITIES = ("per-label", "per-participant")

# defaults: 990 validators split VL-heavy, five labels on [0, 10]
DEFAULT_LABELS = ("VL", "L", "M", "H", "VH")
DEFAULT_POPULATION = {"VL": 500, "L": 300, "M": 150, "H": 30, "VH": 10}

DIST_PARAMS = {
    "lognormal": ("mu", "sigma"),
    "pareto": ("shape", "scale"),
    "uniform": ("lo", "hi"),
    "constant": ("value",),
}


class ConfigError(ValueError):
    """Invalid configuration; .errors lists every field-level problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config: " + "; ".join(self.errors))


def sample_dist(spec: dict, n: int, rng) -> np.ndarray:
    """Draw n values from a distribution spec (see DIST_PARAMS for shapes)."""
    kind = spec["type"]
    if kind == "lognormal":
        return rng.lognormal(mean=spec["mu"], sigma=spec["sigma"], size=n)
    if kind == "pareto":
        return (rng.pareto(spec["shape"], size=n) + 1.0) * spec["scale"]
    if kind == "uniform":
        return rng.uniform(spec["lo"], spec["hi"], size=n)
    if kind == "constant":
        return np.full(n, float(spec["value"]))
    raise ConfigError([f"distribution type {kind!r} not one of {sorted(DIST_PARAMS)}"])


def _number(errors: list[str], name: str, value) -> bool:
    """True if value is a finite real number; otherwise record why not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return True
    errors.append(f"{name}: expected a finite number, got {value!r}")
    return False


def _is_count(value, least: int) -> bool:
    """True if value is an integer (not a bool) no smaller than least."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_dist(name: str, spec, errors: list[str]) -> None:
    if not isinstance(spec, dict) or "type" not in spec:
        errors.append(f"{name}: expected an object with a 'type' key")
        return
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in DIST_PARAMS:
        errors.append(f"{name}.type: {kind!r} not one of {sorted(DIST_PARAMS)}")
        return
    extra = set(spec) - {"type", *DIST_PARAMS[kind]}
    if extra:
        errors.append(f"{name}: unknown keys {sorted(extra)} for type {kind!r}")
        return
    for p in DIST_PARAMS[kind]:
        if p not in spec:
            errors.append(f"{name}.{p}: required for type {kind!r}")
            return
        if not _number(errors, f"{name}.{p}", spec[p]):
            return
    if kind == "lognormal" and spec["sigma"] <= 0:
        errors.append(f"{name}.sigma: must be positive")
    if kind == "pareto" and (spec["shape"] <= 0 or spec["scale"] <= 0):
        errors.append(f"{name}: shape and scale must be positive")
    if kind == "uniform" and not 0 < spec["lo"] < spec["hi"]:
        errors.append(f"{name}: lo must be positive and strictly below hi")
    if kind == "constant" and spec["value"] <= 0:
        errors.append(f"{name}.value: must be positive")


@dataclass(frozen=True)
class BaselineConfig:
    """PoW/PoS/DPoS population shapes for the comparison experiment."""

    participants: int = 100
    rounds: int = 100
    pow_power_dist: dict = field(
        default_factory=lambda: {"type": "lognormal", "mu": 0.0, "sigma": 2.0}
    )
    pos_stake_dist: dict = field(
        default_factory=lambda: {"type": "lognormal", "mu": 0.0, "sigma": 1.0}
    )
    dpos_stake_dist: dict = field(
        default_factory=lambda: {"type": "constant", "value": 1.0}
    )
    dpos_reputation_dist: dict = field(
        default_factory=lambda: {"type": "uniform", "lo": 0.5, "hi": 1.0}
    )


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "exp1"
    seed: int = 42
    universe_lo: float = 0.0
    universe_hi: float = 10.0
    labels: tuple = DEFAULT_LABELS
    population_per_label: dict = field(default_factory=lambda: dict(DEFAULT_POPULATION))
    rounds: tuple = (100,)
    repetitions: int = 20
    eta: float = 0.1
    l_divisor: float = 20.0
    epsilon: float = 0.25
    commission: float = 0.05
    byzantine_rate: float = 0.0
    invalid_block_rate: float = 0.0
    fuzzychain_rounds: int = 500  # rounds for the fuzzy side of the comparison run
    granularity: str = "per-label"
    curve: str = DEFAULT_CURVE
    baselines: BaselineConfig = field(default_factory=BaselineConfig)

    def validate(self) -> "ExperimentConfig":
        errors: list[str] = []
        if self.experiment not in EXPERIMENTS:
            errors.append(f"experiment: {self.experiment!r} not one of {EXPERIMENTS}")
        if not _is_count(self.seed, 0):
            errors.append(f"seed: expected a non-negative integer, got {self.seed!r}")
        lo_ok = _number(errors, "universe_lo", self.universe_lo)
        hi_ok = _number(errors, "universe_hi", self.universe_hi)
        labels_ok = isinstance(self.labels, (list, tuple)) and all(
            isinstance(lab, str) for lab in self.labels
        )
        if lo_ok and hi_ok:
            lo, hi = self.universe_lo, self.universe_hi
            # the partition puts peak i at lo + i * (hi - lo) / (n - 1), and a label's
            # interval ends halfway between two peaks: each step must stay finite
            steps = max(len(self.labels) - 1, 1) if labels_ok else 1
            if not lo < hi:
                errors.append("universe_lo: must be strictly below universe_hi")
            elif not math.isfinite((hi - lo) * steps):
                errors.append(f"universe_hi - universe_lo: must be finite times {steps} (the label"
                              f" count less one), got {hi - lo!r}")
            elif not math.isfinite(2.0 * max(-lo, hi)):
                errors.append(f"universe_lo, universe_hi: twice each must be finite, got {lo!r},"
                              f" {hi!r}")
        if not labels_ok:
            errors.append(f"labels: expected a list of names, got {self.labels!r}")
        else:
            n = len(self.labels)
            if n < 3 or n % 2 == 0:
                errors.append(f"labels: odd count >= 3 required, got {n}")
            if len(set(self.labels)) != n:
                errors.append("labels: duplicates not allowed")
            # labels go into frequencies.csv and plots.svg: csv.writer leaves a CR
            # unquoted, an LF spreads a record over two lines, a NUL makes the SVG malformed
            for lab in self.labels:
                if not lab or not lab.isprintable():
                    errors.append(f"labels: {lab!r} must be non-empty and printable")
        pop = self.population_per_label
        if not isinstance(pop, dict):
            errors.append(f"population_per_label: expected a key-value object, got {pop!r}")
        else:
            if labels_ok:
                extra = set(pop) - set(self.labels)
                missing = set(self.labels) - set(pop)
                if extra:
                    errors.append(f"population_per_label: unknown labels {sorted(extra)}")
                if missing:
                    errors.append(f"population_per_label: missing labels {sorted(missing)}")
            for k, v in pop.items():
                if not _is_count(v, 0):
                    errors.append(f"population_per_label.{k}: expected an integer >= 0, got {v!r}")
            if all(_is_count(v, 0) for v in pop.values()) and not sum(pop.values()):
                errors.append("population_per_label: at least one validator required")
        if not isinstance(self.rounds, (list, tuple)):
            errors.append(f"rounds: expected a list of round counts, got {self.rounds!r}")
        elif not self.rounds:
            errors.append("rounds: at least one round count required")
        elif self.experiment == "exp2" and tuple(self.rounds) != ExperimentConfig.rounds:
            # exp2 runs fuzzychain_rounds, so any other rounds would only be echoed unused
            errors.append(f"rounds: exp2 runs fuzzychain_rounds rounds instead, so it takes only"
                          f" the default {list(ExperimentConfig.rounds)}, got {list(self.rounds)}")
        else:
            bad_rounds = [r for r in self.rounds if not _is_count(r, 1)]
            for r in bad_rounds:
                errors.append(f"rounds: every entry must be an integer >= 1, got {r!r}")
            # each round count keys its own random streams, so a repeat would rerun a sweep
            if not bad_rounds and len(set(self.rounds)) < len(self.rounds):
                errors.append(f"rounds: duplicates not allowed, got {list(self.rounds)}")
        if not _is_count(self.repetitions, 1):
            errors.append(f"repetitions: expected an integer >= 1, got {self.repetitions!r}")
        if _number(errors, "eta", self.eta) and not 0 < self.eta <= 1:
            errors.append(f"eta: must lie in (0, 1], got {self.eta}")
        if _number(errors, "l_divisor", self.l_divisor) and self.l_divisor <= 0:
            errors.append(f"l_divisor: must be positive, got {self.l_divisor}")
        if _number(errors, "epsilon", self.epsilon) and not 0 <= self.epsilon < 1:
            errors.append(f"epsilon: must lie in [0, 1), got {self.epsilon}")
        if _number(errors, "commission", self.commission) and self.commission < 0:
            errors.append(f"commission: must be non-negative, got {self.commission}")
        for rate_name in ("byzantine_rate", "invalid_block_rate"):
            rate = getattr(self, rate_name)
            if _number(errors, rate_name, rate) and not 0 <= rate <= 1:
                errors.append(f"{rate_name}: must lie in [0, 1], got {rate}")
        if not _is_count(self.fuzzychain_rounds, 1):
            errors.append(f"fuzzychain_rounds: expected an integer >= 1, got {self.fuzzychain_rounds!r}")
        if self.granularity not in GRANULARITIES:
            errors.append(f"granularity: {self.granularity!r} not one of {GRANULARITIES}")
        if not isinstance(self.curve, str) or self.curve not in CURVES:
            errors.append(f"curve: {self.curve!r} not one of {sorted(CURVES)}")
        b = self.baselines
        if not isinstance(b, BaselineConfig):
            errors.append(f"baselines: expected a BaselineConfig, got {b!r}")
        else:
            for name in ("participants", "rounds"):
                if not _is_count(getattr(b, name), 1):
                    errors.append(f"baselines.{name}: expected an integer >= 1, got {getattr(b, name)!r}")
            for dist_name in ("pow_power_dist", "pos_stake_dist", "dpos_stake_dist",
                              "dpos_reputation_dist"):
                _check_dist(f"baselines.{dist_name}", getattr(b, dist_name), errors)
        if errors:
            raise ConfigError(errors)
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["labels"] = list(self.labels)
        d["rounds"] = list(self.rounds)
        return d


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a parsed key-value document."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a key-value object"])
    errors: list[str] = []
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        errors.append(f"unknown keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            continue
        if key == "labels":
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        elif key == "rounds":
            kwargs[key] = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        elif key == "baselines":
            if not isinstance(value, dict):
                errors.append("baselines: expected a key-value object")
                continue
            bknown = {f.name for f in fields(BaselineConfig)}
            bunknown = set(value) - bknown
            if bunknown:
                errors.append(f"baselines: unknown keys {sorted(bunknown)}")
                continue
            kwargs[key] = BaselineConfig(**value)
        else:
            kwargs[key] = value
    cfg = ExperimentConfig(**kwargs)
    try:
        cfg.validate()
    except ConfigError as e:
        errors.extend(e.errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError([f"config file not found: {p}"])
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError([f"config file is not valid JSON: {e}"])
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError([f"config file cannot be read: {p}: {e}"])
    return config_from_dict(data)
