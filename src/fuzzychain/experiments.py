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

import numpy as np

from .baselines import Delegate, Miner, StakeValidator, run_dpos, run_pos, run_pow
from .config import ExperimentConfig, sample_dist
from .consensus import ByzantineModel, ConsensusParams, FuzzychainEngine
from .fuzzy import LinguisticVariable, hmdf_win_intervals, make_uniform_partition, scale_stakes
from .ledger import Chain, Transaction, build_block, make_block, new_keypair, sign_transaction
from .metrics import FrequencyTable, summarize_counts
from .registry import Registry, ReputationParams, trusted_sets_required
from .rng import substream

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
            got = [a.label_index for a in scale_stakes(var, vals)]
            bad = [j for j, lab in enumerate(got) if lab != i + 1]
            if not bad:
                break
            vals[bad] = rng.uniform(lo, hi, size=len(bad))
        chunks.append(vals)
    return np.concatenate(chunks) if chunks else np.array([])


def build_registry(config: ExperimentConfig, var: LinguisticVariable, stakes_rng) -> Registry:
    census = [config.population_per_label[lab] for lab in config.labels]
    stakes = sample_stakes_for_census(var, census, stakes_rng)
    registry = Registry(
        var, ReputationParams(config.eta, config.l_divisor, config.epsilon)
    )
    registry.enroll_many(stakes)
    return registry


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
    selection_rng = substream(config.seed, *path, "selection")
    votes_rng = substream(config.seed, *path, "votes")
    blocks_rng = substream(config.seed, *path, "blocks")

    chain = Chain(config.curve)
    engine = FuzzychainEngine(
        registry,
        chain,
        ConsensusParams(config.commission, ByzantineModel(config.byzantine_rate)),
    )
    label_table = FrequencyTable(config.labels)
    participant_table = FrequencyTable([p.id for p in registry.participants()])
    audit_rows = []
    rejected = 0

    for r in range(1, rounds_value + 1):
        priv, _pub = wallets[(r - 1) % N_WALLETS]
        _, recipient = wallets[r % N_WALLETS]
        amount = round(float(blocks_rng.uniform(0.0, 100.0)), 6)
        tx = sign_transaction(priv, recipient, amount, nonce=r)
        u_corrupt = float(blocks_rng.random())
        u_mode = float(blocks_rng.random())
        tip = chain.tip()
        if u_corrupt < config.invalid_block_rate:
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
        w = result.panel_ids.index(result.winner_id)
        winner_label = config.labels[result.panel_labels[w] - 1]
        label_table.record(winner_label)
        participant_table.record(result.winner_id)
        if not result.appended:
            rejected += 1
        audit_rows.append({
            "rounds": rounds_value,
            "repetition": rep,
            "round": result.round_index,
            "panel": result.panel_ids,
            "panel_labels": [config.labels[i - 1] for i in result.panel_labels],
            "votes": "".join("A" if v else "R" for v in result.votes),
            "decision": "accepted" if result.accepted else "rejected",
            "block_valid": result.block_valid,
            "winner": result.winner_id,
            "winner_label": winner_label,
            "reputation_deltas": {
                pid: [round(b, 9), round(a, 9)]
                for pid, (b, a) in result.reputation_deltas.items()
            },
            "expulsions": result.expulsions,
            "appended": result.appended,
        })

    return SingleRun(
        rounds=rounds_value,
        repetition=rep,
        label_table=label_table,
        participant_table=participant_table,
        audit_rows=audit_rows,
        chain_height=chain.height(),
        rejected_rounds=rejected,
        expelled=sum(1 for p in registry.participants() if p.excluded),
    )


def _aggregate_tables(tables: list[FrequencyTable]) -> dict:
    """Per-category mean/std/min/max across repetitions."""
    cats = tables[0].categories
    matrix = np.array([t.counts() for t in tables], dtype=float)
    return {
        str(cat): {
            "mean": float(matrix[:, i].mean()),
            "std": float(matrix[:, i].std()),
            "min": float(matrix[:, i].min()),
            "max": float(matrix[:, i].max()),
        }
        for i, cat in enumerate(cats)
    }


def _metrics_block(tables: list[FrequencyTable]) -> dict:
    per_rep = [summarize_counts(t.counts()) for t in tables]
    pooled = FrequencyTable(tables[0].categories)
    for t in tables:
        pooled.merge(t)
    return {
        "per_repetition": per_rep,
        "pooled": summarize_counts(pooled.counts()),
    }


@dataclass
class Exp1Report:
    config: ExperimentConfig
    runs: list  # SingleRun, ordered by (rounds position, repetition)
    trusted_sets: int

    def runs_at(self, rounds_value: int) -> list:
        return [r for r in self.runs if r.rounds == rounds_value]

    def summary_dict(self) -> dict:
        results = {}
        for rv in self.config.rounds:
            runs = self.runs_at(rv)
            label_tables = [r.label_table for r in runs]
            metric_tables = [r.table(self.config.granularity) for r in runs]
            results[str(rv)] = {
                "aggregates": _aggregate_tables(label_tables),
                "metrics": dict(_metrics_block(metric_tables),
                                granularity=self.config.granularity),
                "chain_heights": [r.chain_height for r in runs],
                "rejected_rounds": [r.rejected_rounds for r in runs],
                "expelled": [r.expelled for r in runs],
            }
        return {
            "experiment": self.config.experiment,
            "config": self.config.to_dict(),
            "trusted_sets_required": self.trusted_sets,
            "results": results,
        }

    def frequency_rows(self) -> list[dict]:
        key_col = "label" if self.config.granularity == "per-label" else "participant"
        multi = len(self.config.rounds) > 1
        rows = []
        for run in self.runs:
            table = run.table(self.config.granularity)
            for cat, count in table.as_dict().items():
                row = {}
                if multi:
                    row["rounds"] = run.rounds
                row["repetition"] = run.repetition
                row[key_col] = str(cat)
                row["count"] = count
                rows.append(row)
        return rows

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
        trusted_sets=trusted_sets_required(len(config.labels)),
    )


def _baseline_populations(config: ExperimentConfig):
    b = config.baselines
    n = b.participants
    powers = sample_dist(b.pow_power_dist,
                         n, substream(config.seed, "exp2", "participants", "pow"))
    stakes = sample_dist(b.pos_stake_dist,
                         n, substream(config.seed, "exp2", "participants", "pos"))
    drng = substream(config.seed, "exp2", "participants", "dpos")
    dstakes = sample_dist(b.dpos_stake_dist, n, drng)
    dreps = sample_dist(b.dpos_reputation_dist, n, drng)
    miners = [Miner(f"m{i:04d}", float(p)) for i, p in enumerate(powers)]
    validators = [StakeValidator(f"s{i:04d}", float(s)) for i, s in enumerate(stakes)]
    delegates = [
        Delegate(f"d{i:04d}", float(s), float(min(r, 1.0)))
        for i, (s, r) in enumerate(zip(dstakes, dreps))
    ]
    return miners, validators, delegates


@dataclass
class Exp2Report:
    config: ExperimentConfig
    fuzzy_runs: list  # SingleRun per repetition
    baseline_tables: dict  # algo -> list[FrequencyTable] per repetition
    trusted_sets: int

    def gini_by_algo(self) -> dict:
        """Per-repetition Gini per algorithm (fuzzy side at config granularity)."""
        out = {"fuzzychain": [
            summarize_counts(r.table(self.config.granularity).counts())["gini"]
            for r in self.fuzzy_runs
        ]}
        for algo in BASELINE_ALGOS:
            out[algo] = [
                summarize_counts(t.counts())["gini"] for t in self.baseline_tables[algo]
            ]
        return out

    def ordering_satisfied(self) -> list[bool]:
        """Per repetition: does fuzzychain < dpos < pos < pow hold on Gini?"""
        g = self.gini_by_algo()
        out = []
        for i in range(len(self.fuzzy_runs)):
            chain = [g[a][i] for a in EXPECTED_GINI_ORDER]
            out.append(all(x < y for x, y in zip(chain, chain[1:])))
        return out

    def summary_dict(self) -> dict:
        algos = {}
        fz_tables = [r.table(self.config.granularity) for r in self.fuzzy_runs]
        algos["fuzzychain"] = dict(
            _metrics_block(fz_tables),
            granularity=self.config.granularity,
            rounds=self.config.fuzzychain_rounds,
        )
        for algo in BASELINE_ALGOS:
            algos[algo] = dict(
                _metrics_block(self.baseline_tables[algo]),
                granularity="per-participant",
                rounds=self.config.baselines.rounds,
            )
        mean_gini = {
            name: float(np.mean([m["gini"] for m in block["per_repetition"]]))
            for name, block in algos.items()
        }
        satisfied = self.ordering_satisfied()
        return {
            "experiment": "exp2",
            "config": self.config.to_dict(),
            "trusted_sets_required": self.trusted_sets,
            "fuzzychain_label_aggregates": _aggregate_tables(
                [r.label_table for r in self.fuzzy_runs]
            ),
            "algorithms": algos,
            "mean_gini": mean_gini,
            "ordering": {
                "expected": list(EXPECTED_GINI_ORDER),
                "satisfied_per_repetition": satisfied,
                "satisfied_count": sum(satisfied),
                "repetitions": len(satisfied),
            },
        }

    def frequency_rows(self) -> list[dict]:
        rows = []
        for run in self.fuzzy_runs:
            table = run.table(self.config.granularity)
            for cat, count in table.as_dict().items():
                rows.append({"algorithm": "fuzzychain", "repetition": run.repetition,
                             "key": str(cat), "count": count})
        for algo in BASELINE_ALGOS:
            for rep, table in enumerate(self.baseline_tables[algo]):
                for cat, count in table.as_dict().items():
                    rows.append({"algorithm": algo, "repetition": rep,
                                 "key": str(cat), "count": count})
        return rows

    def audit_rows(self) -> list[dict]:
        return [row for run in self.fuzzy_runs for row in run.audit_rows]


def run_experiment2(config: ExperimentConfig) -> Exp2Report:
    """Fairness comparison: fuzzy consensus vs the three baselines.

    Baseline populations are drawn once per experiment; each repetition
    replays the winner races with its own substreams.
    """
    miners, validators, delegates = _baseline_populations(config)
    b_rounds = config.baselines.rounds
    races = (("pow", run_pow, miners), ("pos", run_pos, validators),
             ("dpos", run_dpos, delegates))
    fuzzy_runs = []
    baseline_tables = {algo: [] for algo in BASELINE_ALGOS}
    for rep in range(config.repetitions):
        fuzzy_runs.append(run_fuzzychain_once(config, config.fuzzychain_rounds, rep))
        for algo, race, population in races:
            baseline_tables[algo].append(
                race(population, b_rounds, substream(config.seed, "exp2", rep, algo)))
    return Exp2Report(
        config=config,
        fuzzy_runs=fuzzy_runs,
        baseline_tables=baseline_tables,
        trusted_sets=trusted_sets_required(len(config.labels)),
    )


def run_configured(config: ExperimentConfig, workers: int = 1):
    """Dispatch on config.experiment ('custom' runs the frequency driver).

    workers is accepted for existing callers and ignored: repetitions
    always run serially, and the output does not depend on it.
    """
    if config.experiment == "exp2":
        return run_experiment2(config)
    return run_experiment1(config)
