"""Experiment drivers.

Two presets mirror the headline experiments: a frequency study of the
fuzzy consensus run over a 990-validator population (exp1), and a
four-way fairness comparison against PoW/PoS/DPoS (exp2). `custom`
reuses the exp1 driver with arbitrary config values.

Every run is a pure function of the config: all randomness flows
through named substreams of the config seed, and repetitions run one
after another in a single serial loop. A registry's census is drawn
inside each label's interval and checked against the partition's label
edges, so set-up classifies no stake. A repetition keeps each round's
RoundResult (SingleRun.results), and reads its win tables, counters and
audit rows from them, the rows only as audit.jsonl is written.

A round's transaction depends on no consensus state, so a repetition
draws its blocks stream first and signs and verifies every round's
transaction before round 1, on the main thread and one helper thread
(ECDSA releases the GIL). The rounds read the verdicts the transactions
keep; the outputs do not depend on how the threads interleave.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import run_dpos, run_pos, run_pow
from .config import ExperimentConfig, sample_dist
from .consensus import FuzzychainEngine
# scale_stakes: bench/tracer.py times it under this name
from .fuzzy import LinguisticVariable, hmdf_win_intervals, scale_stakes  # noqa: F401
from .ids import EnrollmentIds
from .ledger import Chain, Transaction, build_block, make_block, new_keypair, sign_transaction
from .metrics import FrequencyTable, summarize_counts
from .registry import Registry, ReputationParams, trusted_sets_required
from .rng import Stream, substream, uniform_array

N_WALLETS = 4
BASELINE_ALGOS = ("pow", "pos", "dpos")
EXPECTED_GINI_ORDER = ("fuzzychain", "dpos", "pos", "pow")


def build_variable(config: ExperimentConfig) -> LinguisticVariable:
    """The config's stake partition (ExperimentConfig.partition): the config
    builds it once, and every repetition and registry of the run shares it."""
    return config.partition


def sample_stakes_for_census(var: LinguisticVariable, census, rng) -> np.ndarray:
    """Stakes drawn uniformly inside each label's interval (hmdf_win_intervals),
    as rng.uniform would draw them label by label.

    A stake has label i exactly when e_i <= stake < e_{i+1}, with e_1 the
    universe's floor, e_{n+1} infinity and the rest the partition's label
    edges. A draw can leave its label in two ways: in the gap between an
    interval's floor and its label edge it ties or leans to the label
    below, and a draw that rounds up onto its interval's top has the
    label above where that top is the next label edge. Such strays are
    redrawn so the per-label census is exact, not just approximate.

    Labels are drawn in census order. Each label's batch is checked with
    two reductions against its edges, and its strays (about 2**-53 per
    draw) are redrawn in place before the next label is drawn.
    """
    intervals, edges = hmdf_win_intervals(var), (var.universe_lo, *var.edges, np.inf)
    stakes, end = np.empty(sum(int(k) for k in census)), 0
    for i, k in enumerate(census):
        start, end = end, end + int(k)
        vals = uniform_array(rng, *intervals[i], end - start, out=stakes[start:end])
        floor, top = edges[i], edges[i + 1]
        while k and not (floor <= vals.min() and vals.max() < top):
            bad = np.flatnonzero((vals < floor) | (vals >= top))
            vals[bad] = uniform_array(rng, *intervals[i], bad.size)
    return stakes


def build_registry(config: ExperimentConfig, var: LinguisticVariable, stakes_rng) -> Registry:
    census = [config.population_per_label[lab] for lab in config.labels]
    stakes = sample_stakes_for_census(var, census, stakes_rng)
    # the sampler redraws stakes that stray below or above their label's edges: no classification
    return Registry(var, stakes, ReputationParams(config.eta, config.l_divisor, config.epsilon),
                    labels=np.repeat(np.arange(1, var.n + 1), census))


@dataclass
class SingleRun:
    """One seeded consensus simulation at one round count, kept as its RoundResults."""

    rounds: int
    repetition: int
    label_table: FrequencyTable
    participant_table: FrequencyTable
    results: list  # RoundResult per round
    chain_height: int

    @property
    def rejected_rounds(self) -> int:
        return sum(not result.appended for result in self.results)

    @property
    def expelled(self) -> int:
        return sum(len(result.expulsions) for result in self.results)

    def table(self, granularity: str) -> FrequencyTable:
        return self.label_table if granularity == "per-label" else self.participant_table

    def audit_rows(self):
        """audit.jsonl's row of each round, in round order, made as it is read."""
        id_of = self.participant_table.categories.speller()
        labels = self.label_table.categories
        for result in self.results:
            yield {
                "rounds": self.rounds,
                "repetition": self.repetition,
                "round": result.round_index,
                "panel": list(map(id_of, result.panel)),
                "panel_labels": [labels[i - 1] for i in result.panel_labels],
                "votes": "".join(["A" if v else "R" for v in result.votes]),
                "decision": "accepted" if result.accepted else "rejected",
                "block_valid": result.block_valid,
                "winner": id_of(result.winner),
                "winner_label": labels[_winner_label(result)],
                "reputation_deltas": {id_of(i): [round(b, 9), round(a, 9)]
                                      for i, (b, a) in result.reputation_deltas.items()},
                "expulsions": list(map(id_of, result.expulsions)),
                "appended": result.appended,
            }


def _winner_label(result) -> int:
    return result.panel_labels[result.panel.index(result.winner)] - 1


def run_fuzzychain_once(config: ExperimentConfig, rounds_value: int, rep: int) -> SingleRun:
    """One full consensus simulation: registry, chain, rounds_value rounds.

    Block contents are synthetic wallet-to-wallet transfers; a block is
    corrupted (bad signature or broken linkage, 50/50) with probability
    invalid_block_rate so the reject path gets exercised. Every round's
    transaction is signed and checked before round 1
    (sign_round_transactions).
    """
    var = build_variable(config)
    path = (config.experiment, rounds_value, rep)
    registry = build_registry(config, var, substream(config.seed, *path, "stakes"))

    keys_rng = substream(config.seed, *path, "keys")
    wallets = [new_keypair(keys_rng, config.curve) for _ in range(N_WALLETS)]
    selection_rng, votes_rng, blocks_rng = (
        Stream(substream(config.seed, *path, name)) for name in ("selection", "votes", "blocks"))
    invalid_block_rate = config.invalid_block_rate
    plan = []  # per round: amount, tamper the amount, break the linkage
    for _ in range(rounds_value):
        amount = round(blocks_rng.uniform(0.0, 100.0), 6)
        u_corrupt, u_mode = blocks_rng.random(), blocks_rng.random()
        corrupt = u_corrupt < invalid_block_rate
        plan.append((amount, corrupt and u_mode < 0.5, corrupt and u_mode >= 0.5))
    txs = sign_round_transactions(wallets, plan, config.curve)

    chain = Chain(config.curve)
    engine = FuzzychainEngine(
        registry, chain, commission=config.commission, byzantine_rate=config.byzantine_rate
    )
    results = []
    for r, tx, (*_, unlink) in zip(range(1, rounds_value + 1), txs, plan):
        tip = chain.tip()
        if unlink:
            # break linkage: hash is self-consistent but points past the tip
            bad_prev = bytes([tip.hash[0] ^ 0x01]) + tip.hash[1:]
            block = make_block(tip.index + 1, r, bad_prev, (tx,))
        else:
            block = build_block(tip, [tx], clock=r)
        results.append(engine.run_round(block, selection_rng, votes_rng))

    return SingleRun(
        rounds=rounds_value,
        repetition=rep,
        label_table=FrequencyTable.tally(config.labels, list(map(_winner_label, results))),
        participant_table=FrequencyTable.tally(registry.ids(), [r.winner for r in results]),
        results=results,
        chain_height=chain.height(),
    )


def sign_round_transactions(wallets, plan, curve: str) -> list:
    """The rounds' transactions, round r's sent by wallet r - 1 to wallet r
    (mod N_WALLETS) with nonce r, each signed once and checked under curve.

    plan holds (amount, tamper, unlink) per round. A tampered transaction
    gains 1e-6 in amount after signing, so its signature must fail. An
    unlinked round's block is refused at its linkage, before any signature
    is read, so its transaction is not verified.

    The main thread takes the odd rounds and one helper thread the even
    ones: ECDSA signing and verifying release the GIL, so the two overlap
    on two cores. The helper's exception is raised here after the join, and
    the join runs whatever happens, so no thread outlives the call.
    """
    txs = [None] * len(plan)

    def sign_rounds(start: int) -> None:
        for i in range(start, len(plan), 2):
            amount, tamper, unlink = plan[i]
            tx = sign_transaction(wallets[i % N_WALLETS][0], wallets[(i + 1) % N_WALLETS][1],
                                  amount, nonce=i + 1)
            if tamper:
                tx = Transaction(tx.sender, tx.recipient,
                                 round(tx.amount + 1e-6, 6), tx.nonce, tx.signature)
            if not unlink:
                tx.verified(curve)
            txs[i] = tx

    helper_error = []

    def helper() -> None:
        try:
            sign_rounds(1)
        except BaseException as e:  # re-raised in the caller after the join
            helper_error.append(e)

    thread = threading.Thread(target=helper, name="sign-rounds")
    thread.start()
    try:
        sign_rounds(0)
    finally:
        thread.join()
    if helper_error:
        raise helper_error[0]
    return txs


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
        return [row for run in self.runs for row in run.audit_rows()]


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
    # m0000.., s0000.., d0000..: spelled only when frequencies.csv is written
    m, s, d = (EnrollmentIds(n, prefix, 4) for prefix in "msd")
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
        return [row for run in self.fuzzy_runs for row in run.audit_rows()]


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
