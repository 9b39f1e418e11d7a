"""Acceptance gate: one test per shipping criterion.

Each test states its tolerance and wall-clock budget inline and the
terminal summary prints one PASS/FAIL line per criterion (conftest).
These are end-to-end checks over the public API — nothing in here
reaches into module internals.
"""

import dataclasses
import math
import struct
import time

import numpy as np
import pytest

from fuzzychain.cli import main
from fuzzychain.config import ExperimentConfig
from fuzzychain.consensus import (
    FuzzychainEngine,
    NoPanelError,
    select_first_round,
    select_round_j,
)
from fuzzychain.experiments import (
    run_experiment1,
    run_experiment2,
    sample_stakes_for_census,
)
from fuzzychain.fuzzy import hmdf, make_uniform_partition, membership_array, scale_stakes
from fuzzychain.ledger import (
    Chain,
    LedgerError,
    Transaction,
    build_block,
    make_block,
    new_keypair,
    sign_transaction,
    block_rejection_reason,
    verify_transaction,
)
from fuzzychain.metrics import gini, kurtosis, skewness
from fuzzychain.registry import Registry, ReputationParams, trusted_sets_required, update_reputation
from fuzzychain.rng import substream

LABELS = ("VL", "L", "M", "H", "VH")


def test_c01_reputation_arithmetic():
    t0 = time.perf_counter()
    params = ReputationParams(eta=0.1, l_divisor=20.0)
    assert update_reputation(1.0, True, params) == 1.0
    assert update_reputation(0.9, True, params) == 0.905
    assert update_reputation(0.95, False, params) == 0.85
    assert update_reputation(0.05, False, params) == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_c02_trusted_set_threshold():
    t0 = time.perf_counter()
    assert trusted_sets_required(5) == 2
    assert trusted_sets_required(7) == 3
    assert trusted_sets_required(9) == 4
    assert time.perf_counter() - t0 < 1.0


def test_c03_partition_properties():
    t0 = time.perf_counter()
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)

    xs = np.linspace(0.0, 10.0, 10_000)
    total = sum(membership_array(mf, xs) for mf in var.mfs)
    assert np.abs(total - 1.0).max() <= 1e-9

    a = hmdf(var, 6.0)
    assert (a.label_index, a.degree) == (3, 0.6)
    assert var.labels[a.label_index - 1] == "M"

    stakes = np.sort(substream(7, "stakes").uniform(0.0, 10.0, size=1_000))
    idx = [s.label_index for s in scale_stakes(var, stakes)]
    assert all(i <= j for i, j in zip(idx, idx[1:]))
    assert time.perf_counter() - t0 < 1.0


def test_c04_panel_parity_fuzz():
    t0 = time.perf_counter()
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    rng = substream(2718, "selection")
    checked = 0
    for trial in range(10_000):
        sizes = rng.integers(0, 7, size=5)
        stakes = sample_stakes_for_census(var, sizes, rng)
        registry = Registry(var, stakes, ReputationParams())
        for seq in registry.participants():
            u = rng.random()
            if u < 0.2:
                registry.set_reputation(seq, float(rng.uniform(0.0, 1.0)))
            if u > 0.85:
                registry.expel(seq)
        select = select_first_round if trial % 2 == 0 else select_round_j
        if not any(registry.trusted_sets()):
            with pytest.raises(NoPanelError):
                select(registry, rng)
            continue
        panel = select(registry, rng)
        ids = [registry.ids()[seq] for seq in panel]
        excluded = registry.columns()[3]
        assert len(panel) % 2 == 1
        assert len(set(ids)) == len(ids)
        assert not any(excluded[seq] for seq in panel)
        checked += 1
    assert checked > 5_000  # the fuzz must mostly exercise real panels
    assert time.perf_counter() - t0 < 30.0


def test_c05_frequency_experiment_100_rounds():
    t0 = time.perf_counter()
    counts = []
    shares_in_band = 0
    for seed in range(1, 21):
        cfg = ExperimentConfig(experiment="exp1", seed=seed,
                               rounds=(100,), repetitions=1).validate()
        table = run_experiment1(cfg).runs[0].label_table
        row = np.array(table.counts(), dtype=float)
        assert row.sum() == 100
        assert row.mean() == 20.0
        share = (row[3] + row[4]) / 100.0  # H + VH winner share
        if 0.45 <= share <= 0.80:
            shares_in_band += 1
        counts.append(row)
    pooled_std = float(np.array(counts).std())
    assert 3.0 <= pooled_std <= 12.0
    assert shares_in_band >= 18
    assert time.perf_counter() - t0 < 60.0


def test_c06_frequency_experiment_500_rounds():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="exp1", seed=42,
                           rounds=(500,), repetitions=20).validate()
    aggregates = run_experiment1(cfg).summary_dict()["results"]["500"]["aggregates"]
    assert 120.0 <= aggregates["VH"]["mean"] <= 170.0
    assert 45.0 <= aggregates["M"]["mean"] <= 95.0
    assert time.perf_counter() - t0 < 300.0


def test_c07_gini_ordering():
    t0 = time.perf_counter()
    satisfied = 0
    for seed in range(1, 21):
        cfg = ExperimentConfig(experiment="exp2", seed=seed,
                               repetitions=1).validate()
        report = run_experiment2(cfg)
        satisfied += report.ordering_satisfied()[0]
        assert report.gini_by_algo()["fuzzychain"][0] < 0.30
    assert satisfied >= 18
    assert time.perf_counter() - t0 < 120.0


def test_c08_metrics_oracles():
    t0 = time.perf_counter()

    def gini_double_sum(values):
        v = np.asarray(values, dtype=float)
        return float(np.abs(v[:, None] - v[None, :]).sum() / (2 * len(v) * v.sum()))

    assert gini([1, 0, 0, 0]) == pytest.approx(gini_double_sum([1, 0, 0, 0]), abs=1e-12)
    assert gini([1, 0, 0, 0]) == pytest.approx(0.75, abs=1e-12)
    assert skewness([0, 0, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert kurtosis([0, 1, 0, 1]) == pytest.approx(-2.0, abs=1e-12)

    rng = substream(31, "stakes")
    for _ in range(1_000):
        v = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 9)))
        if v.sum() == 0.0:
            continue
        g = gini(v)
        assert g == pytest.approx(gini_double_sum(v), abs=1e-12)
        scale = float(rng.uniform(0.1, 10.0))
        assert gini(v * scale) == pytest.approx(g, abs=1e-9)
        # Pigou-Dalton: moving value from a richer to a poorer entry
        # (without overshooting the gap) must not increase inequality
        hi, lo = int(np.argmax(v)), int(np.argmin(v))
        if hi == lo:
            continue
        d = float(rng.uniform(0.0, (v[hi] - v[lo]) / 2.0))
        w = v.copy()
        w[hi] -= d
        w[lo] += d
        assert gini(w) <= g + 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_c09_ledger_integrity():
    t0 = time.perf_counter()
    rng = substream(97, "blocks")
    keys_rng = substream(97, "keys")
    wallets = [new_keypair(keys_rng) for _ in range(3)]

    chain = Chain()

    def fresh_candidate(clock):
        priv, _ = wallets[clock % 3]
        _, recipient = wallets[(clock + 1) % 3]
        txs = [
            sign_transaction(priv, recipient, round(float(rng.uniform(0, 50)), 6), nonce=k)
            for k in range(1 + clock % 2)
        ]
        return build_block(chain.tip(), txs, clock=clock)

    detected = 0
    for trial in range(1_000):
        clock = trial // 250 + 1
        block = fresh_candidate(clock)
        tx = block.transactions[0]
        field = trial % 8
        rebuild = trial % 3 == 0 and field < 5
        if field == 0:
            mutated_tx = dataclasses.replace(
                tx, sender=_flip_bit(tx.sender, rng))
        elif field == 1:
            mutated_tx = dataclasses.replace(
                tx, recipient=_flip_bit(tx.recipient, rng))
        elif field == 2:
            units = round(tx.amount * 1e6)
            units ^= 1 << int(rng.integers(0, 40))
            mutated_tx = dataclasses.replace(tx, amount=units / 1e6)
        elif field == 3:
            mutated_tx = dataclasses.replace(
                tx, nonce=tx.nonce ^ (1 << int(rng.integers(0, 63))))
        elif field == 4:
            mutated_tx = dataclasses.replace(
                tx, signature=_flip_bit(tx.signature, rng))
        else:
            mutated_tx = None

        if mutated_tx is not None:
            assert not verify_transaction(mutated_tx)
            detected += 1
            txs = (mutated_tx,) + block.transactions[1:]
            if rebuild:  # self-consistent hash; the bad signature must still surface
                candidate = make_block(block.index, block.timestamp, block.prev_hash, txs)
            else:
                candidate = dataclasses.replace(block, transactions=txs)
        elif field == 5:
            bad = struct.unpack(">Q", _flip_bit(struct.pack(">Q", block.index), rng))[0]
            candidate = dataclasses.replace(block, index=bad)
        elif field == 6:
            bad = struct.unpack(">Q", _flip_bit(struct.pack(">Q", block.timestamp), rng))[0]
            candidate = dataclasses.replace(block, timestamp=bad)
        else:
            candidate = dataclasses.replace(block, prev_hash=_flip_bit(block.prev_hash, rng))

        assert block_rejection_reason(chain, candidate) is not None
        with pytest.raises(LedgerError):
            chain.append(candidate)
        if trial % 250 == 249:
            chain.append(fresh_candidate(clock))  # untouched blocks still extend
    assert detected >= 500

    # Round outcomes: a rejected round never extends the chain, an
    # accepted one extends it by exactly one block.
    var = make_uniform_partition("stake", LABELS, 0.0, 10.0)
    registry = Registry(var, sample_stakes_for_census(var, [4, 3, 3, 2, 2],
                                                      substream(97, "stakes")),
                        ReputationParams())
    engine_chain = Chain()
    engine = FuzzychainEngine(registry, engine_chain, commission=0.05, byzantine_rate=0.0)
    selection_rng = substream(97, "selection")
    votes_rng = substream(97, "votes")
    for r in range(1, 41):
        priv, _ = wallets[r % 3]
        _, recipient = wallets[(r + 1) % 3]
        tx = sign_transaction(priv, recipient, 1.5, nonce=r)
        tip = engine_chain.tip()
        if r % 2 == 0:
            tampered = Transaction(tx.sender, tx.recipient, tx.amount + 1e-6,
                                   tx.nonce, tx.signature)
            block = build_block(tip, [tampered], clock=r)
        else:
            block = build_block(tip, [tx], clock=r)
        before = engine_chain.height()
        result = engine.run_round(block, selection_rng, votes_rng)
        grew = engine_chain.height() - before
        assert grew == (1 if result.appended else 0)
        assert result.appended == (result.accepted and result.block_valid)
        assert result.block_valid == (r % 2 == 1)
    assert engine_chain.height() == 20
    assert time.perf_counter() - t0 < 10.0


def _flip_bit(data: bytes, rng) -> bytes:
    pos = int(rng.integers(0, len(data) * 8))
    b = bytearray(data)
    b[pos // 8] ^= 1 << (pos % 8)
    return bytes(b)


def test_c10_cli_determinism(tmp_path):
    outs = [tmp_path / name for name in ("run_a", "run_b", "run_c")]
    for out in outs:
        code = main(["run", "exp1", "--seed", "42", "--out", str(out)])
        assert code == 0
    for name in ("frequencies.csv", "summary.json"):
        blobs = [(out / name).read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2], f"{name} differs between runs"
