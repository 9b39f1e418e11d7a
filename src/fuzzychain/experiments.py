"""Experiment drivers.

Two presets mirror the headline experiments: a frequency study of the
fuzzy consensus run over a 990-validator population (exp1), and a
four-way fairness comparison against PoW/PoS/DPoS (exp2). `custom`
reuses the exp1 driver with arbitrary config values.

Every run is a pure function of the config: all randomness flows
through named substreams of the config seed, and repetitions run one
after another in a single serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import run_dpos, run_pos, run_pow
from .config import ExperimentConfig, sample_dist
from .consensus import FuzzychainEngine
from .fuzzy import (  # noqa: F401  (scale_stakes: bench/tracer.py times it under this name)
    LinguisticVariable,
    classify_batch,
    hmdf_win_intervals,
    make_uniform_partition,
    scale_stakes,
)
from .ledger import Chain, Transaction, build_block, make_block, new_keypair, sign_transaction
from .metrics import FrequencyTable, summarize_counts
from .registry import Registry, ReputationParams, trusted_sets_required
from .rng import Stream, substream

N_WALLETS = 4
BASELINE_ALGOS = ("pow", "pos", "dpos")
EXPECTED_GINI_ORDER = ("fuzzychain", "dpos", "pos", "pow")


def build_variable(config: ExperimentConfig) -> LinguisticVariable:
    return make_uniform_partition(
        "stake", config.labels, config.universe_lo, config.universe_hi
    )


def sample_stakes_for_census(var: LinguisticVariable, census, rng) -> np.ndarray:
    """Stakes drawn uniformly inside each label's winning interval.

    A draw can land exactly on an interval boundary, where the tie
    resolves to the lower label; those are redrawn so the resulting
    per-label census is exact, not just approximate.
    """
    intervals = hmdf_win_intervals(var)
    chunks = []
    for i, k in enumerate(census):
        lo, hi = intervals[i]
        vals = rng.uniform(lo, hi, size=int(k))
        while True:
            labels, _ = classify_batch(var, vals)
            bad = np.flatnonzero(labels != i + 1)
            if not bad.size:
                break
            vals[bad] = rng.uniform(lo, hi, size=len(bad))
        chunks.append(vals)
    return np.concatenate(chunks) if chunks else np.array([])


def build_registry(config: ExperimentConfig, var: LinguisticVariable, stakes_rng) -> Registry:
    census = [config.population_per_label[lab] for lab in config.labels]
    stakes = sample_stakes_for_census(var, census, stakes_rng)
    # the sampler redraws until each stake classifies into its census label: no second pass
    return Registry(var, stakes, ReputationParams(config.eta, config.l_divisor, config.epsilon),
                    labels=np.repeat(np.arange(1, var.n + 1), census))


@dataclass
class SingleRun:
    """One seeded consensus simulation at one round count."""

    rounds: int
    repetition: int
    label_table: FrequencyTable
    participant_table: FrequencyTable
    audit_rows: list
    chain_height: int
    rejected_rounds: int
    expelled: int

    def table(self, granularity: str) -> FrequencyTable:
        return self.label_table if granularity == "per-label" else self.participant_table


def run_fuzzychain_once(config: ExperimentConfig, rounds_value: int, rep: int) -> SingleRun:
    """One full consensus simulation: registry, chain, rounds_value rounds.

    Block contents are synthetic wallet-to-wallet transfers; a block is
    corrupted (bad signature or broken linkage, 50/50) with probability
    invalid_block_rate so the reject path gets exercised.
    """
    var = build_variable(config)
    path = (config.experiment, rounds_value, rep)
    registry = build_registry(config, var, substream(config.seed, *path, "stakes"))

    keys_rng = substream(config.seed, *path, "keys")
    wallets = [new_keypair(keys_rng, config.curve) for _ in range(N_WALLETS)]
    selection_rng, votes_rng, blocks_rng = (
        Stream(substream(config.seed, *path, name)) for name in ("selection", "votes", "blocks"))

    chain = Chain(config.curve)
    engine = FuzzychainEngine(
        registry, chain, commission=config.commission, byzantine_rate=config.byzantine_rate
    )
    id_of = registry.ids().speller()  # positions become ids only in the audit rows
    labels, invalid_block_rate = config.labels, config.invalid_block_rate
    winner_labels, winners = [], []  # label and enrollment positions
    audit_rows = []
    rejected = expelled = 0

    for r in range(1, rounds_value + 1):
        priv, _pub = wallets[(r - 1) % N_WALLETS]
        _, recipient = wallets[r % N_WALLETS]
        amount = round(blocks_rng.uniform(0.0, 100.0), 6)
        tx = sign_transaction(priv, recipient, amount, nonce=r)
        u_corrupt = blocks_rng.random()
        u_mode = blocks_rng.random()
        tip = chain.tip()
        if u_corrupt < invalid_block_rate:
            if u_mode < 0.5:
                # tamper the amount after signing: signature check must fail
                tx = Transaction(tx.sender, tx.recipient,
                                 round(tx.amount + 1e-6, 6), tx.nonce, tx.signature)
                block = build_block(tip, [tx], clock=r)
            else:
                # break linkage: hash is self-consistent but points past the tip
                bad_prev = bytes([tip.hash[0] ^ 0x01]) + tip.hash[1:]
                block = make_block(tip.index + 1, r, bad_prev, (tx,))
        else:
            block = build_block(tip, [tx], clock=r)

        result = engine.run_round(block, selection_rng, votes_rng)
        panel, panel_labels, winner = result.panel, result.panel_labels, result.winner
        winner_label = panel_labels[panel.index(winner)] - 1
        winner_labels.append(winner_label)
        winners.append(winner)
        if not result.appended:
            rejected += 1
        deltas, expulsions = result.reputation_deltas, result.expulsions
        expelled += len(expulsions)
        audit_rows.append({
            "rounds": rounds_value,
            "repetition": rep,
            "round": result.round_index,
            "panel": list(map(id_of, panel)),
            "panel_labels": [labels[i - 1] for i in panel_labels],
            "votes": "".join(["A" if v else "R" for v in result.votes]),
            "decision": "accepted" if result.accepted else "rejected",
            "block_valid": result.block_valid,
            "winner": id_of(winner),
            "winner_label": labels[winner_label],
            "reputation_deltas": {
                id_of(i): [round(b, 9), round(a, 9)] for i, (b, a) in deltas.items()
            } if deltas else {},
            "expulsions": list(map(id_of, expulsions)) if expulsions else [],
            "appended": result.appended,
        })

    return SingleRun(
        rounds=rounds_value,
        repetition=rep,
        label_table=FrequencyTable.tally(config.labels, winner_labels),
        participant_table=FrequencyTable.tally(registry.ids(), winners),
        audit_rows=audit_rows,
        chain_height=chain.height(),
        rejected_rounds=rejected,
        expelled=expelled,
    )


def _aggregate_counts(categories, counts: np.ndarray) -> dict:
    """Per-category mean/std/min/max of a repetitions × categories count matrix."""
    matrix = counts.astype(float)
    return {
        str(cat): {
            "mean": float(matrix[:, i].mean()),
            "std": float(matrix[:, i].std()),
            "min": float(matrix[:, i].min()),
            "max": float(matrix[:, i].max()),
        }
        for i, cat in enumerate(categories)
    }


def _metrics_block(tables: list[FrequencyTable]) -> dict:
    return {
        "per_repetition": [summarize_counts(t.counts()) for t in tables],
        "pooled": summarize_counts(sum(t.counts() for t in tables)),
    }


@dataclass
class Exp1Report:
    config: ExperimentConfig
    runs: list  # SingleRun, ordered by (rounds position, repetition)

    def runs_at(self, rounds_value: int) -> list:
        return [r for r in self.runs if r.rounds == rounds_value]

    def label_counts(self, rounds_value: int) -> np.ndarray:
        """Repetitions × labels win counts at one round count."""
        return np.array([r.label_table.counts() for r in self.runs_at(rounds_value)])

    def summary_dict(self) -> dict:
        results = {}
        for rv in self.config.rounds:
            runs = self.runs_at(rv)
            metric_tables = [r.table(self.config.granularity) for r in runs]
            results[str(rv)] = {
                "aggregates": _aggregate_counts(self.config.labels, self.label_counts(rv)),
                "metrics": dict(_metrics_block(metric_tables),
                                granularity=self.config.granularity),
                "chain_heights": [r.chain_height for r in runs],
                "rejected_rounds": [r.rejected_rounds for r in runs],
                "expelled": [r.expelled for r in runs],
            }
        return {
            "experiment": self.config.experiment,
            "config": self.config.to_dict(),
            "trusted_sets_required": trusted_sets_required(len(self.config.labels)),
            "results": results,
        }

    def frequency_tables(self) -> tuple[tuple, list[tuple]]:
        """(header, [(lead, table)]) of frequencies.csv, one row per category
        of each table: lead + (category, count); a rounds column only for a sweep."""
        key_col = "label" if self.config.granularity == "per-label" else "participant"
        multi = len(self.config.rounds) > 1
        tables = [((run.rounds, run.repetition) if multi else (run.repetition,),
                   run.table(self.config.granularity)) for run in self.runs]
        lead_cols = ("rounds", "repetition") if multi else ("repetition",)
        return lead_cols + (key_col, "count"), tables

    def audit_rows(self) -> list[dict]:
        return [row for run in self.runs for row in run.audit_rows]


def run_experiment1(config: ExperimentConfig) -> Exp1Report:
    """Frequency experiment: the consensus loop per (round count, repetition)."""
    return Exp1Report(
        config=config,
        runs=[
            run_fuzzychain_once(config, rv, rep)
            for rv in config.rounds
            for rep in range(config.repetitions)
        ],
    )


def _baseline_populations(config: ExperimentConfig):
    """(algo, race, ids and weight vectors) per baseline, in BASELINE_ALGOS
    order, drawn once per experiment."""
    b = config.baselines
    n = b.participants
    powers = sample_dist(b.pow_power_dist,
                         n, substream(config.seed, "exp2", "participants", "pow"))
    stakes = sample_dist(b.pos_stake_dist,
                         n, substream(config.seed, "exp2", "participants", "pos"))
    drng = substream(config.seed, "exp2", "participants", "dpos")
    dstakes = sample_dist(b.dpos_stake_dist, n, drng)
    dreps = np.minimum(sample_dist(b.dpos_reputation_dist, n, drng), 1.0)
    m, s, d = ([f"{prefix}{i:04d}" for i in range(n)] for prefix in "msd")
    return (("pow", run_pow, (m, powers)),
            ("pos", run_pos, (s, stakes)),
            ("dpos", run_dpos, (d, dstakes, dreps)))


@dataclass
class Exp2Report:
    config: ExperimentConfig
    fuzzy_runs: list  # SingleRun per repetition
    baseline_tables: dict  # algo -> list[FrequencyTable] per repetition

    @cached_property
    def algorithm_metrics(self) -> dict:
        """summary.json's per-algorithm blocks, in fuzzychain, pow, pos, dpos
        order (the fuzzy side at config granularity), computed once."""
        algos = {"fuzzychain": dict(
            _metrics_block([r.table(self.config.granularity) for r in self.fuzzy_runs]),
            granularity=self.config.granularity,
            rounds=self.config.fuzzychain_rounds,
        )}
        for algo in BASELINE_ALGOS:
            algos[algo] = dict(
                _metrics_block(self.baseline_tables[algo]),
                granularity="per-participant",
                rounds=self.config.baselines.rounds,
            )
        return algos

    def gini_by_algo(self) -> dict:
        """Per-repetition Gini per algorithm, read from algorithm_metrics."""
        return {name: [m["gini"] for m in block["per_repetition"]]
                for name, block in self.algorithm_metrics.items()}

    def ordering_satisfied(self) -> list[bool]:
        """Per repetition: does fuzzychain < dpos < pos < pow hold on Gini?"""
        g = self.gini_by_algo()
        out = []
        for i in range(len(self.fuzzy_runs)):
            chain = [g[a][i] for a in EXPECTED_GINI_ORDER]
            out.append(all(x < y for x, y in zip(chain, chain[1:])))
        return out

    def mean_gini(self) -> dict:
        """Mean of the per-repetition Gini per algorithm."""
        return {name: float(np.mean(g)) for name, g in self.gini_by_algo().items()}

    def summary_dict(self) -> dict:
        satisfied = self.ordering_satisfied()
        return {
            "experiment": "exp2",
            "config": self.config.to_dict(),
            "trusted_sets_required": trusted_sets_required(len(self.config.labels)),
            "fuzzychain_label_aggregates": _aggregate_counts(
                self.config.labels, np.array([r.label_table.counts() for r in self.fuzzy_runs])
            ),
            "algorithms": self.algorithm_metrics,
            "mean_gini": self.mean_gini(),
            "ordering": {
                "expected": list(EXPECTED_GINI_ORDER),
                "satisfied_per_repetition": satisfied,
                "satisfied_count": sum(satisfied),
                "repetitions": len(satisfied),
            },
        }

    def frequency_tables(self) -> tuple[tuple, list[tuple]]:
        """(header, [(lead, table)]) of frequencies.csv: the fuzzy runs, then
        each baseline."""
        tables = [(("fuzzychain", run.repetition), run.table(self.config.granularity))
                  for run in self.fuzzy_runs]
        tables += [((algo, rep), table) for algo in BASELINE_ALGOS
                   for rep, table in enumerate(self.baseline_tables[algo])]
        return ("algorithm", "repetition", "key", "count"), tables

    def audit_rows(self) -> list[dict]:
        return [row for run in self.fuzzy_runs for row in run.audit_rows]


def run_experiment2(config: ExperimentConfig) -> Exp2Report:
    """Fairness comparison: fuzzy consensus vs the three baselines.

    Baseline populations are drawn once per experiment; each repetition
    replays the winner races with its own substreams.
    """
    races = _baseline_populations(config)
    b_rounds = config.baselines.rounds
    fuzzy_runs = []
    baseline_tables = {algo: [] for algo in BASELINE_ALGOS}
    for rep in range(config.repetitions):
        fuzzy_runs.append(run_fuzzychain_once(config, config.fuzzychain_rounds, rep))
        for algo, race, population in races:
            baseline_tables[algo].append(
                race(*population, b_rounds, substream(config.seed, "exp2", rep, algo)))
    return Exp2Report(
        config=config,
        fuzzy_runs=fuzzy_runs,
        baseline_tables=baseline_tables,
    )


def run_configured(config: ExperimentConfig, workers: int = 1):
    """Dispatch on config.experiment ('custom' runs the frequency driver).

    workers is ignored: repetitions always run serially, and the output
    does not depend on it. It stays because the benchmark's child
    process (bench/child.py) passes it.
    """
    if config.experiment == "exp2":
        return run_experiment2(config)
    return run_experiment1(config)
