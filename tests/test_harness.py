"""Config validation, experiment drivers, output files, CLI surface."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzychain import config as config_module, experiments, ledger, outputs
from fuzzychain.cli import main
from fuzzychain.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    sample_dist,
)
from fuzzychain.experiments import (
    Exp1Report,
    Exp2Report,
    SingleRun,
    run_configured,
    run_experiment1,
    run_experiment2,
    sample_stakes_for_census,
    build_variable,
)
from fuzzychain.fuzzy import hmdf, hmdf_win_intervals, make_uniform_partition
from fuzzychain.ids import EnrollmentIds
from fuzzychain.metrics import FrequencyTable
from fuzzychain.outputs import FILES, emit_outputs, format_report, write_frequencies
from fuzzychain.rng import substream
from strategies import partitions, uniform_partitions

TINY_POP = {"VL": 12, "L": 9, "M": 7, "H": 5, "VH": 4}


def tiny(**overrides):
    base = dict(
        experiment="exp1",
        seed=11,
        population_per_label=dict(TINY_POP),
        rounds=(25,),
        repetitions=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def emitted_frequencies(report, out_dir) -> tuple[list, list]:
    """(header, rows) of the report's emitted frequencies.csv, read by csv.reader."""
    paths = emit_outputs(report, out_dir)
    with open(paths["frequencies.csv"], newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


# one wrong-typed or non-finite value per document; each test adds a range error too
WRONG_TYPED = [
    ("eta", {"eta": "x"}),
    ("universe_lo", {"universe_lo": "a"}),
    ("labels", {"labels": 5}),
    ("commission", {"commission": None}),
    ("byzantine_rate", {"byzantine_rate": "0.1"}),
    ("population_per_label", {"population_per_label": 3}),
    # JSON true is an int to Python, but never a count
    ("seed", {"seed": True}),
    ("repetitions", {"repetitions": True}),
    ("population_per_label.VL", {"population_per_label": dict(TINY_POP, VL=True)}),
    ("baselines.pow_power_dist.sigma",
     {"baselines": {"pow_power_dist": {"type": "lognormal", "mu": 0, "sigma": "2"}}}),
    ("l_divisor", {"l_divisor": float("nan")}),
    ("baselines.pos_stake_dist.sigma",
     {"baselines": {"pos_stake_dist": {"type": "lognormal", "mu": 0, "sigma": float("inf")}}}),
    # finite bounds whose span overflows (named for it, though the partition the config
    # builds reports them), whose peaks' midpoints overflow (three labels, peaks 0.9e308,
    # 1.3e308 and 1.7e308), or two ulps apart, too close for five distinct peaks
    pytest.param("universe_lo, universe_hi", {"universe_lo": -1e308, "universe_hi": 1e308},
                 id="universe_hi - universe_lo"),
    pytest.param("universe_lo, universe_hi", {"universe_lo": 0.0, "universe_hi": 1e308},
                 id="universe_hi - universe_lo"),
    ("universe_lo, universe_hi", {"universe_lo": 0.9e308, "universe_hi": 1.7e308,
                                  "labels": ["VL", "M", "VH"],
                                  "population_per_label": {"VL": 1, "M": 1, "VH": 1}}),
    ("universe_lo, universe_hi", {"universe_lo": 1.0, "universe_hi": 1.0000000000000004}),
]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.experiment == "exp1"
        assert sum(cfg.population_per_label.values()) == 990

    def test_a_universe_near_the_float_top_with_finite_midpoints_is_valid(self):
        cfg = config_from_dict({"universe_lo": 0.85e308, "universe_hi": 0.9e308})
        assert build_variable(cfg).edges[-1] < cfg.universe_hi

    def test_the_universe_is_judged_by_its_partition_only_under_valid_labels(self):
        two_ulps = {"universe_lo": 1.0, "universe_hi": 1.0000000000000004}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(labels=("A", "B"), population_per_label={"A": 1, "B": 1}, **two_ulps)
        assert exc.value.errors == ["labels: odd count >= 3 required, got 2"]

    def test_field_level_messages(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(
                experiment="exp9",
                labels=("A", "B"),
                population_per_label={"A": 1, "B": 1},
                rounds=(0,),
                epsilon=1.5,
                byzantine_rate=2.0,
            )
        text = str(exc.value)
        for fragment in ("experiment", "labels", "rounds", "epsilon", "byzantine_rate"):
            assert fragment in text
        assert len(exc.value.errors) >= 5

    def test_building_an_invalid_config_raises_one_error_listing_every_problem(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(experiment="exp2", seed=-1, rounds=(7,), repetitions=0,
                             granularity="x", curve="c")
        assert exc.value.errors == [
            "seed: expected a non-negative integer, got -1",
            "rounds: exp2 runs fuzzychain_rounds rounds instead, so it takes only the default"
            " [100], got [7]",
            "repetitions: expected an integer >= 1, got 0",
            "granularity: 'x' not one of ('per-label', 'per-participant')",
            "curve: 'c' not one of ['secp256k1', 'secp256r1', 'secp384r1']",
        ]
        with pytest.raises(ConfigError) as exc:  # a copy with changed fields is built, so checked
            dataclasses.replace(ExperimentConfig(), repetitions=0)
        assert exc.value.errors == ["repetitions: expected an integer >= 1, got 0"]

    def test_population_must_match_labels(self):
        with pytest.raises(ConfigError, match="population_per_label"):
            ExperimentConfig(population_per_label={"VL": 1, "NOPE": 2})

    def test_population_needs_a_validator(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"population_per_label": dict.fromkeys(TINY_POP, 0)})
        assert exc.value.errors == ["population_per_label: at least one validator required"]

    @pytest.mark.parametrize("bad", ["a\rb", "a\nb", "a\x00b", "a\tb", ""],
                             ids=["cr", "lf", "nul", "tab", "empty"])
    def test_unprintable_or_empty_label_rejected(self, bad):
        labels = [bad, "L", "M", "H", "VH"]
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"labels": labels,
                              "population_per_label": dict.fromkeys(labels, 2)})
        assert exc.value.errors == [f"labels: {bad!r} must be non-empty and printable"]

    @pytest.mark.parametrize("bad", ["a,b", 'say "hi"'], ids=["comma", "quote"])
    def test_label_that_csv_quotes_rejected(self, bad):
        # frequencies.csv writes every label as itself, unquoted
        labels = [bad, "L", "M", "H", "VH"]
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"labels": labels,
                              "population_per_label": dict.fromkeys(labels, 2)})
        assert exc.value.errors == [f"labels: {bad!r} must not hold ',' or '\"'"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"sead": 42})

    @pytest.mark.parametrize("dist_name, spec", [
        ("pow_power_dist", {"type": "zipf", "s": 2}),
        # baseline draws are hash powers, stakes and reputations: all must be positive
        ("pow_power_dist", {"type": "uniform", "lo": -1.0, "hi": 2.0}),
        ("dpos_reputation_dist", {"type": "uniform", "lo": 0.0, "hi": 1.0}),
        # a misspelt or foreign parameter would otherwise run and be echoed into summary.json
        ("pos_stake_dist", {"type": "lognormal", "mu": 0, "sigma": 1, "sigam": 5}),
        ("dpos_stake_dist", {"type": "constant", "value": 1.0, "mu": 0}),
    ], ids=["unknown-type", "uniform-negative-lo", "uniform-zero-lo", "misspelt-parameter",
            "parameter-of-another-type"])
    def test_bad_dist_rejected(self, dist_name, spec):
        with pytest.raises(ConfigError, match=dist_name) as exc:
            config_from_dict({"baselines": {dist_name: spec}})
        assert len(exc.value.errors) == 1

    @pytest.mark.parametrize("field, doc", WRONG_TYPED, ids=[getattr(c, "id", None) or c[0] for c in WRONG_TYPED])
    def test_wrong_typed_value_is_config_error(self, field, doc):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(dict(doc, epsilon=3))
        assert any(e.startswith(field + ":") for e in exc.value.errors)
        assert any(e.startswith("epsilon:") for e in exc.value.errors)

    def test_an_integer_beyond_the_float_range_is_a_field_error(self):
        huge = 10**400  # JSON holds it, a float cannot
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"universe_hi": huge, "commission": -huge, "baselines": {
                "dpos_stake_dist": {"type": "constant", "value": huge}}})
        assert exc.value.errors == [
            f"{field}: expected a finite number, got an integer too large for a float"
            for field in ("universe_hi", "commission", "baselines.dpos_stake_dist.value")]

    @pytest.mark.parametrize("field, value", [
        ("rounds", 5), ("rounds", "100"), ("rounds", None), ("baselines", {}),
        ("baselines", None)])
    def test_directly_built_wrong_type_is_one_config_error(self, field, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{field: value}, epsilon=3)
        # one error for the field, not one per character, alongside the other fields' errors
        assert sorted(e.split(":")[0] for e in exc.value.errors) == sorted([field, "epsilon"])

    def test_round_trip_through_dict(self):
        cfg = tiny(rounds=(25, 50), granularity="per-participant")
        again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "exp1", "seed": 3, "rounds": [10]}))
        assert load_config(p) == {"experiment": "exp1", "seed": 3, "rounds": [10]}
        cfg = config_from_dict(load_config(p))
        assert cfg.seed == 3 and cfg.rounds == (10,)
        # the reader checks nothing: config_from_dict checks the document once it is whole
        p.write_text(json.dumps({"repetitions": 0}))
        assert load_config(p) == {"repetitions": 0}

    def test_load_config_missing_or_malformed(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)

    def test_scalar_rounds_promoted(self):
        cfg = config_from_dict({"rounds": 50})
        assert cfg.rounds == (50,)

    def test_dist_shapes(self):
        rng = substream(0, "stakes")
        assert len(sample_dist({"type": "constant", "value": 2.0}, 5, rng)) == 5
        assert (sample_dist({"type": "uniform", "lo": 1, "hi": 2}, 100, rng) >= 1).all()
        assert (sample_dist({"type": "pareto", "shape": 2.0, "scale": 3.0}, 100, rng) >= 3).all()


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
ALL_ONES = (1 << 64) - 1


def force_next_raw_word(rng, word: int) -> None:
    """Set a PCG64 generator's state so that its next 64-bit output is word:
    0 makes its next uniform(lo, hi) lo exactly, ALL_ONES makes it
    lo + (hi - lo) * (1 - 2**-53), which can round up to hi. The output is the
    xor of the stepped state's two halves, rotated right by the high half's
    top six bits, which are 0 here: equal halves give 0, complementary ones
    give all ones."""
    state = rng.bit_generator.state
    high = 0x0123456789ABCDEF
    stepped = (high << 64) | (high ^ word)
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = (stepped - state["state"]["inc"]) * inverse % (1 << 128)
    state["has_uint32"] = state["uinteger"] = 0
    rng.bit_generator.state = state


def census_label_by_label(var, census, rng):
    """The census sampler as one label at a time, through Generator.uniform:
    draw the label's batch and redraw each stake that hmdf puts under
    another label, then the next label."""
    chunks = []
    for i, (k, (lo, hi)) in enumerate(zip(census, hmdf_win_intervals(var))):
        vals = rng.uniform(lo, hi, size=k)
        while bad := [j for j, x in enumerate(vals.tolist()) if hmdf(var, x).label_index != i + 1]:
            vals[bad] = rng.uniform(lo, hi, size=len(bad))
        chunks.append(vals)
    return np.concatenate(chunks) if chunks else np.array([])


class BitsOnly:
    """A substream that offers nothing but its bit generator."""

    __slots__ = ("bit_generator",)

    def __init__(self, generator):
        self.bit_generator = generator.bit_generator


def partition_and_census(var):
    """var with a census of 0 to 60 stakes per label."""
    return st.tuples(st.just(var), st.lists(st.integers(0, 60), min_size=var.n, max_size=var.n))


class TestStakeSampling:
    def assert_label_by_label(self, var, census, rng, ref):
        """The sampler's stakes and end state equal census_label_by_label's
        from an equal generator."""
        stakes = sample_stakes_for_census(var, census, rng)
        expect = census_label_by_label(var, census, ref)
        assert stakes.view(np.uint64).tolist() == expect.view(np.uint64).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state
        return stakes

    @given(uniform_partitions().flatmap(partition_and_census), st.integers(0, 2**32 - 1))
    @example((build_variable(tiny()), [0, 0, 0, 0, 0]), 0)
    @example((build_variable(tiny()), list(TINY_POP.values())), 0)
    # at least 300 examples; the exact profile's 2,000 in CI
    @settings(max_examples=max(300, settings.default.max_examples))
    def test_census_equals_the_label_by_label_loop(self, drawn, seed):
        var, census = drawn
        self.assert_label_by_label(var, census, np.random.default_rng(seed),
                                   np.random.default_rng(seed))

    @given(partitions().flatmap(partition_and_census), st.integers(0, 2**32 - 1))
    @settings(max_examples=max(300, settings.default.max_examples))
    def test_non_uniform_census_equals_the_label_by_label_loop(self, drawn, seed):
        var, census = drawn
        self.assert_label_by_label(var, census, np.random.default_rng(seed),
                                   np.random.default_rng(seed))

    @pytest.mark.parametrize("var, census, word", [
        # the first draw is its interval's floor, where ties go one label down
        pytest.param(build_variable(tiny()), [0, 3, 2, 1, 1], 0, id="zero-word-label-2"),
        pytest.param(build_variable(tiny()), [0, 0, 0, 0, 4], 0, id="zero-word-label-5"),
        # the first draw rounds up onto 7.525, its interval's top and label 3's edge
        pytest.param(make_uniform_partition("stake", ("A", "B", "C"), 0.1, 10.0), [0, 4, 2],
                     ALL_ONES, id="all-ones-word-label-2"),
    ])
    def test_a_forced_stray_is_redrawn(self, var, census, word):
        rng, ref, probe = (np.random.default_rng(9) for _ in range(3))
        for gen in (rng, ref, probe):
            force_next_raw_word(gen, word)
        first = next(i for i, k in enumerate(census) if k)
        stray = probe.uniform(*hmdf_win_intervals(var)[first])
        assert hmdf(var, stray).label_index != first + 1
        stakes = self.assert_label_by_label(var, census, rng, ref)
        assert stray not in stakes.tolist()
        labels = [hmdf(var, x).label_index for x in stakes.tolist()]
        assert labels == [i + 1 for i, k in enumerate(census) for _ in range(k)]

    def test_the_config_builds_its_partition_once(self, monkeypatch):
        cfg = tiny(repetitions=2)
        var = cfg.partition
        assert build_variable(cfg) is var
        assert var == make_uniform_partition("stake", cfg.labels, 0.0, 10.0)
        # every repetition's registry holds the config's one partition; none is rebuilt
        monkeypatch.setattr(config_module, "make_uniform_partition", None)
        registries = []
        build_registry = experiments.build_registry
        monkeypatch.setattr(experiments, "build_registry",
                            lambda *a: registries.append(build_registry(*a)) or registries[-1])
        run_experiment1(cfg)
        assert len(registries) == 2 and all(r.variable is var for r in registries)
        monkeypatch.undo()
        # not a field: to_dict, equality and config files know no partition
        assert "partition" not in cfg.to_dict()
        copy = dataclasses.replace(cfg)
        assert copy == cfg and copy.partition is not var and copy.partition == var
        with pytest.raises(ConfigError, match="unknown keys: \\['partition'\\]"):
            config_from_dict({**cfg.to_dict(), "partition": None})

    def test_census_is_exact(self):
        cfg = tiny()
        var = build_variable(cfg)
        census = [12, 9, 7, 5, 4]
        stakes = sample_stakes_for_census(var, census, substream(0, "stakes"))
        assert len(stakes) == 37
        from fuzzychain.fuzzy import scale_stakes

        got = [a.label_index for a in scale_stakes(var, stakes)]
        for i, k in enumerate(census):
            assert got.count(i + 1) == k

    def test_exp1_draws_through_its_substreams_bit_generators_only(self, monkeypatch):
        # stakes, keys and the round loop replay numpy's draws from raw PCG64 words,
        # so no Generator method is called and the run is the same
        cfg = tiny(invalid_block_rate=0.3, repetitions=2)
        expect = run_experiment1(cfg)
        substream = experiments.substream
        monkeypatch.setattr(experiments, "substream", lambda *path: BitsOnly(substream(*path)))
        got = run_experiment1(cfg)
        assert got.audit_rows() == expect.audit_rows()
        assert got.summary_dict() == expect.summary_dict()

    def test_zero_population_groups_allowed(self):
        cfg = tiny(population_per_label={"VL": 2, "L": 0, "M": 0, "H": 0, "VH": 1})
        report = run_experiment1(cfg)
        assert report.runs[0].label_table.total() == 25


class TestExperiment1:
    def test_counts_sum_to_rounds(self, tiny_config):
        report = run_experiment1(tiny_config)
        assert len(report.runs) == 3
        for run in report.runs:
            assert run.label_table.total() == 25
            assert run.participant_table.total() == 25
            assert run.chain_height + run.rejected_rounds == 25

    def test_summary_structure(self, tiny_config):
        s = run_experiment1(tiny_config).summary_dict()
        assert s["experiment"] == "exp1"
        assert s["trusted_sets_required"] == 2
        block = s["results"]["25"]
        assert set(block["aggregates"]) == set(tiny_config.labels)
        assert {"mean", "std", "min", "max"} <= set(block["aggregates"]["VL"])
        assert len(block["metrics"]["per_repetition"]) == 3
        assert block["metrics"]["granularity"] == "per-label"

    def test_frequency_rows_single_sweep(self, tiny_config, tmp_path):
        header, rows = emitted_frequencies(run_experiment1(tiny_config), tmp_path)
        assert len(rows) == 3 * 5  # repetitions x labels
        assert header == ["repetition", "label", "count"]
        assert {len(row) for row in rows} == {len(header)}

    def test_frequency_rows_multi_sweep_gain_rounds_column(self, tmp_path):
        cfg = tiny(rounds=(10, 20), repetitions=2)
        header, rows = emitted_frequencies(run_experiment1(cfg), tmp_path)
        assert len(rows) == 2 * 2 * 5
        assert header == ["rounds", "repetition", "label", "count"]
        assert {len(row) for row in rows} == {len(header)}

    def test_per_participant_granularity(self, tmp_path):
        cfg = tiny(granularity="per-participant", repetitions=1)
        report = run_experiment1(cfg)
        header, rows = emitted_frequencies(report, tmp_path)
        assert len(rows) == 37  # one per enrolled participant
        assert header == ["repetition", "participant", "count"]
        s = report.summary_dict()
        assert s["results"]["25"]["metrics"]["granularity"] == "per-participant"

    def test_invalid_blocks_always_rejected_by_honest_panels(self):
        cfg = tiny(invalid_block_rate=1.0, repetitions=1)
        run = run_experiment1(cfg).runs[0]
        assert run.chain_height == 0
        assert run.rejected_rounds == 25

    def test_mixed_injection_rate(self):
        cfg = tiny(invalid_block_rate=0.3, repetitions=1, seed=5)
        run = run_experiment1(cfg).runs[0]
        assert 0 < run.rejected_rounds < 25
        assert run.chain_height == 25 - run.rejected_rounds

    def test_expelled_counts_the_audited_expulsions(self):
        cfg = tiny(byzantine_rate=0.3, invalid_block_rate=0.3, rounds=(60,), repetitions=2)
        report = run_experiment1(cfg)
        for run in report.runs:
            assert run.expelled == sum(len(row["expulsions"]) for row in run.audit_rows())
            assert run.expelled > 0

    def test_tables_count_the_audited_winners(self):
        cfg = tiny(granularity="per-participant", byzantine_rate=0.3,
                   invalid_block_rate=0.3, rounds=(60,), repetitions=2)
        for run in run_experiment1(cfg).runs:
            assert run.participant_table.as_dict() == {
                pid: Counter(row["winner"] for row in run.audit_rows())[pid]
                for pid in run.participant_table.categories}
            assert run.label_table.as_dict() == {
                lab: Counter(row["winner_label"] for row in run.audit_rows())[lab]
                for lab in cfg.labels}

    def test_custom_experiment_uses_frequency_driver(self):
        cfg = tiny()
        cfg = dataclasses.replace(cfg, experiment="custom")
        report = run_configured(cfg)
        assert isinstance(report, Exp1Report)

    def test_workers_do_not_change_results(self, tiny_config, tmp_path):
        serial = run_experiment1(tiny_config)
        with_workers = run_configured(tiny_config, workers=4)
        assert json.dumps(serial.summary_dict(), sort_keys=True) == json.dumps(
            with_workers.summary_dict(), sort_keys=True
        )
        assert (emitted_frequencies(serial, tmp_path / "serial")
                == emitted_frequencies(with_workers, tmp_path / "workers"))


class TestSigningThreads:
    """A repetition signs and checks its transactions before round 1, on the
    main thread (odd nonces) and one helper thread (even nonces)."""

    @pytest.mark.parametrize("bad_nonce", [8, 7], ids=["helper", "main"])
    def test_a_signing_error_reaches_the_caller_and_no_thread_is_left(self, bad_nonce,
                                                                     monkeypatch):
        original = experiments.sign_transaction

        def sign(priv, recipient, amount, nonce):
            if nonce == bad_nonce:
                raise RuntimeError(f"refused nonce {nonce}")
            return original(priv, recipient, amount, nonce=nonce)

        monkeypatch.setattr(experiments, "sign_transaction", sign)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"refused nonce {bad_nonce}$"):
            run_configured(tiny(repetitions=1))
        assert threading.active_count() == before

    def test_each_transaction_is_signed_once_and_verified_at_most_once(self, monkeypatch):
        signers, verified = [], []
        sign, verify = experiments.sign_transaction, ledger.verify_transaction

        def counting_sign(priv, recipient, amount, nonce):
            signers.append((nonce, threading.get_ident()))
            return sign(priv, recipient, amount, nonce=nonce)

        def counting_verify(tx, curve):
            verified.append((tx, curve))
            return verify(tx, curve)

        monkeypatch.setattr(experiments, "sign_transaction", counting_sign)
        monkeypatch.setattr(ledger, "verify_transaction", counting_verify)
        before = threading.active_count()
        cfg = tiny(byzantine_rate=0.15, invalid_block_rate=0.3, rounds=(200,), repetitions=2)
        report = run_configured(cfg)
        assert threading.active_count() == before
        assert sorted(n for n, _ in signers) == sorted([*range(1, 201)] * 2)
        main = threading.get_ident()
        assert {ident for n, ident in signers if n % 2} == {main}
        assert main not in {ident for n, ident in signers if n % 2 == 0}
        assert max(Counter(verified).values()) == 1
        # a block whose linkage breaks is refused before its signature is read
        assert sum(r.rejected_rounds for r in report.runs) > 400 - len(verified) > 0

    def test_outputs_do_not_depend_on_thread_switching(self):
        cfg = tiny(byzantine_rate=0.15, invalid_block_rate=0.3, rounds=(60,), repetitions=2)
        expect = run_configured(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            got = run_configured(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert got.audit_rows() == expect.audit_rows()
        assert got.summary_dict() == expect.summary_dict()


def small_exp2_config(repetitions=2):
    return ExperimentConfig(
        experiment="exp2",
        seed=13,
        population_per_label=dict(TINY_POP),
        repetitions=repetitions,
        fuzzychain_rounds=40,
        baselines=dataclasses.replace(
            ExperimentConfig().baselines, participants=20, rounds=50
        ),
    )


@pytest.fixture(scope="module")
def small_exp2():
    return run_experiment2(small_exp2_config())


class TestExperiment2:
    def test_structure(self, small_exp2):
        s = small_exp2.summary_dict()
        assert set(s["algorithms"]) == {"fuzzychain", "pow", "pos", "dpos"}
        assert s["algorithms"]["pow"]["granularity"] == "per-participant"
        assert len(s["ordering"]["satisfied_per_repetition"]) == 2
        assert s["ordering"]["expected"] == ["fuzzychain", "dpos", "pos", "pow"]

    def test_baseline_counts_sum(self, small_exp2):
        for algo in ("pow", "pos", "dpos"):
            for t in small_exp2.baseline_tables[algo]:
                assert t.total() == 50

    def test_baselines_race_over_lazy_ids_kept_by_their_tables(self, small_exp2):
        races = experiments._baseline_populations(small_exp2_config())
        for (algo, _, population), prefix in zip(races, "msd"):
            ids = population[0]
            assert ids == EnrollmentIds(20, prefix, 4)
            assert list(ids)[:2] == [f"{prefix}0000", f"{prefix}0001"]
            assert FrequencyTable.tally(ids, [0, 19]).categories is ids
            first, second = small_exp2.baseline_tables[algo]
            assert first.categories == ids and second.categories is first.categories

    def test_frequency_rows_cover_all_algorithms(self, small_exp2, tmp_path):
        header, rows = emitted_frequencies(small_exp2, tmp_path)
        assert header == ["algorithm", "repetition", "key", "count"]
        algos = {r[0] for r in rows}
        assert algos == {"fuzzychain", "pow", "pos", "dpos"}
        fz = [r for r in rows if r[0] == "fuzzychain"]
        assert len(fz) == 2 * 5

    def test_audit_covers_only_consensus_rounds(self, small_exp2):
        rows = small_exp2.audit_rows()
        assert len(rows) == 2 * 40
        assert {r["repetition"] for r in rows} == {0, 1}

    def test_statistics_computed_once_per_table(self, monkeypatch, tmp_path):
        reps = 3
        report = run_experiment2(small_exp2_config(repetitions=reps))
        calls = []
        original = experiments.summarize_counts
        monkeypatch.setattr(experiments, "summarize_counts",
                            lambda counts: calls.append(1) or original(counts))
        emit_outputs(report, tmp_path / "out")
        report.gini_by_algo(), report.ordering_satisfied()  # as the comparison script reads it
        # per algorithm: one per repetition, one for the pooled counts
        assert len(calls) == 4 * reps + 4


class TestOutputs:
    def test_four_files_and_row_count(self, tiny_config, tmp_path):
        report = run_experiment1(tiny_config)
        paths = emit_outputs(report, tmp_path / "out")
        assert sorted(paths) == sorted(FILES)
        rows = read_csv(paths["frequencies.csv"])
        assert len(rows) == tiny_config.repetitions * len(tiny_config.labels)
        ET.parse(paths["plots.svg"])  # well-formed XML
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["experiment"] == "exp1"
        audit_lines = (tmp_path / "out" / "audit.jsonl").read_text().splitlines()
        assert len(audit_lines) == 3 * 25
        json.loads(audit_lines[0])

    def test_empty_report_is_an_error(self, tiny_config, tmp_path):
        report = run_experiment1(tiny_config)
        empty = Exp1Report(config=report.config, runs=[])
        with pytest.raises(ValueError, match="nothing to emit"):
            emit_outputs(empty, tmp_path / "never")

    def test_csv_round_trips_to_tables(self, tiny_config, tmp_path):
        report = run_experiment1(tiny_config)
        paths = emit_outputs(report, tmp_path / "out")
        rows = read_csv(paths["frequencies.csv"])
        # no algorithm column (a fuzzychain-only run), no rounds column (a single sweep)
        assert list(rows[0]) == ["repetition", "label", "count"]
        for run in report.runs:
            table = {r["label"]: int(r["count"]) for r in rows
                     if int(r["repetition"]) == run.repetition}
            assert table == run.label_table.as_dict()

    def test_exp2_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exp2",
            seed=3,
            population_per_label=dict(TINY_POP),
            repetitions=2,
            fuzzychain_rounds=20,
            baselines=dataclasses.replace(
                ExperimentConfig().baselines, participants=10, rounds=20
            ),
        )
        report = run_experiment2(cfg)
        paths = emit_outputs(report, tmp_path / "out2")
        assert sorted(paths) == sorted(FILES)
        ET.parse(paths["plots.svg"])
        rows = read_csv(paths["frequencies.csv"])
        assert "rounds" not in rows[0]
        pow0 = {r["key"]: int(r["count"]) for r in rows
                if r["algorithm"] == "pow" and int(r["repetition"]) == 0}
        assert pow0 == report.baseline_tables["pow"][0].as_dict()
        text = format_report(tmp_path / "out2")
        assert "mean gini" in text and "fuzzychain" in text

    def test_audit_file_is_written_run_by_run(self, tiny_config, monkeypatch, tmp_path):
        # emission reads each run's rows as they are made, never the report's list of them all
        reports = [run_experiment1(dataclasses.replace(tiny_config, invalid_block_rate=0.3,
                                                        byzantine_rate=0.3)),
                   run_experiment2(small_exp2_config())]
        want = ["".join(json.dumps(row, sort_keys=True) + "\n" for row in report.audit_rows())
                for report in reports]

        def whole_list(self):
            raise AssertionError("emission built the list of every audit row")

        monkeypatch.setattr(Exp1Report, "audit_rows", whole_list)
        monkeypatch.setattr(Exp2Report, "audit_rows", whole_list)
        for i, (report, text) in enumerate(zip(reports, want)):
            paths = emit_outputs(report, tmp_path / str(i))
            assert Path(paths["audit.jsonl"]).read_text() == text


def reference_csv(header, tables) -> str:
    """frequencies.csv as csv.writer writes it from one tuple per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for lead, table in tables:
        writer.writerows(lead + (cat, n)
                         for cat, n in zip(table.categories, table.counts().tolist()))
    return buf.getvalue()


# printable cells that hold no ',' or '"' (a valid label holds neither), biased
# towards the characters csv.writer keeps unquoted
cells = st.one_of(st.text(alphabet="' ab", min_size=1, max_size=5),
                  st.text(min_size=1, max_size=5).filter(
                      lambda c: c.isprintable() and "," not in c and '"' not in c))


@st.composite
def tables_over(draw, categories):
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 10**6)),
                           min_size=len(categories), max_size=len(categories)))
    return FrequencyTable(categories, counts)


def report_config(labels, rounds=(100,)):
    """What a report's frequency_tables() reads of its config. The drawn labels
    (1 to 6 of them, none in the census) would make an ExperimentConfig refuse itself."""
    return SimpleNamespace(labels=tuple(labels), rounds=tuple(rounds), granularity="per-label")


def fake_run(rounds, rep, table) -> SingleRun:
    return SingleRun(rounds=rounds, repetition=rep, label_table=table,
                     participant_table=table, results=[], chain_height=0)


class TestFrequencyWriter:
    @given(labels=st.lists(cells, min_size=1, max_size=6, unique=True),
           rounds=st.lists(st.integers(1, 10**4), min_size=1, max_size=3, unique=True),
           repetitions=st.integers(1, 3), data=st.data())
    def test_exp1_bytes_equal_csv_writer(self, labels, rounds, repetitions, data):
        report = Exp1Report(config=report_config(labels, rounds), runs=[
            fake_run(rv, rep, data.draw(tables_over(tuple(labels))))
            for rv in rounds for rep in range(repetitions)])
        buf = io.StringIO()
        write_frequencies(buf, *report.frequency_tables())
        assert buf.getvalue() == reference_csv(*report.frequency_tables())
        assert buf.getvalue().startswith("rounds," if len(rounds) > 1 else "repetition,")

    @given(labels=st.lists(cells, min_size=1, max_size=6, unique=True),
           ids=st.lists(cells, min_size=1, max_size=6, unique=True),
           repetitions=st.integers(1, 3), data=st.data())
    def test_exp2_bytes_equal_csv_writer(self, labels, ids, repetitions, data):
        report = Exp2Report(
            config=report_config(labels),
            fuzzy_runs=[fake_run(10, rep, data.draw(tables_over(tuple(labels))))
                        for rep in range(repetitions)],
            baseline_tables={algo: [data.draw(tables_over(tuple(ids)))
                                    for _ in range(repetitions)]
                             for algo in ("pow", "pos", "dpos")})
        buf = io.StringIO()
        write_frequencies(buf, *report.frequency_tables())
        assert buf.getvalue() == reference_csv(*report.frequency_tables())

    @pytest.mark.parametrize("granularity", ["per-label", "per-participant"])
    def test_emitted_file_equals_csv_writer(self, granularity, tmp_path):
        labels = ["low est", "say 'hi'", " lead", "M", "x'y"]
        cfg = tiny(labels=tuple(labels), rounds=(15, 30), repetitions=2,
                   granularity=granularity,
                   population_per_label=dict(zip(labels, TINY_POP.values())))
        report = run_experiment1(cfg)
        paths = emit_outputs(report, tmp_path / "out")
        with open(paths["frequencies.csv"], "rb") as fh:
            assert fh.read() == reference_csv(*report.frequency_tables()).encode()

    @given(n=st.one_of(st.integers(0, 450), st.integers(9_890, 10_120)), data=st.data())
    def test_id_tables_equal_csv_writer(self, n, data):
        ids = EnrollmentIds(n)  # on both sides of the 9,999 -> 10,000 id width change
        edges = [i for e in (0, n) for i in (e - 1, e)]
        edges += [i for h in range(0, n + 1, 100) for i in (h - 1, h)]
        edges = [i for i in edges if 0 <= i < n]
        tables = []
        for rep in range(data.draw(st.integers(1, 3))):
            counts = [0] * n
            if n:  # nonzero counts at the ends and hundred edges (so runs start mid-hundred), or none
                for i in data.draw(st.sets(st.one_of(st.sampled_from(edges),
                                                     st.integers(0, n - 1)), max_size=6)):
                    counts[i] = data.draw(st.integers(1, 10**6))
            tables.append(((250, rep), FrequencyTable(ids, counts)))
        header = ("rounds", "repetition", "participant", "count")
        buf = io.StringIO()
        write_frequencies(buf, header, tables)
        assert buf.getvalue() == reference_csv(header, tables)

    @pytest.mark.parametrize("n", [1_000, 10_001])
    @pytest.mark.parametrize("wins", [5, 3_000], ids=["sparse", "dense"])
    def test_baseline_tables_over_lazy_ids_equal_f_string_ids(self, n, wins):
        # sparse tables spell their runs from the template, dense ones spell
        # their ids once; past 9,999 the ids widen (m10000), as %04d does
        rng = np.random.default_rng(n + wins)
        header = ("algorithm", "repetition", "key", "count")
        lazy, spelled = [], []
        for algo, prefix in zip(("pow", "pos", "dpos"), "msd"):
            ids = EnrollmentIds(n, prefix, 4)
            f_ids = tuple(f"{prefix}{i:04d}" for i in range(n))
            for rep in range(2):
                winners = np.concatenate([rng.integers(0, n, size=wins), [n - 1]])
                lazy.append(((algo, rep), FrequencyTable.tally(ids, winners)))
                spelled.append(((algo, rep), FrequencyTable.tally(f_ids, winners)))
        texts = []
        for tables in (lazy, spelled):
            buf = io.StringIO()
            write_frequencies(buf, header, tables)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1] == reference_csv(header, spelled)

    def test_table_without_categories_writes_no_row(self):
        tables = [((0,), FrequencyTable((), [])), ((1,), FrequencyTable(("a",), [2]))]
        buf = io.StringIO()
        write_frequencies(buf, ("repetition", "participant", "count"), tables)
        assert buf.getvalue() == "repetition,participant,count\n1,a,2\n"
        assert buf.getvalue() == reference_csv(("repetition", "participant", "count"), tables)

    def test_peak_memory_within_twice_the_text_at_49500_validators(self):
        # the exp1_pop49500 benchmark workload: exp1 label shares x50, per-participant
        cfg = config_from_dict({
            "experiment": "custom", "seed": 42, "granularity": "per-participant",
            "population_per_label": {"VL": 25000, "L": 15000, "M": 7500, "H": 1500, "VH": 500},
            "rounds": [100], "repetitions": 2})
        header, tables = run_configured(cfg).frequency_tables()

        class NullSink:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = NullSink()
        tracemalloc.start()
        try:
            write_frequencies(sink, header, tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 1_000_000
        assert peak <= 2 * sink.chars


class TestCli:
    def test_run_exp1_writes_files(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["run", "exp1", "--seed", "11", "--rounds", "20", "--reps", "2",
                     "--out", str(out)])
        assert code == 0
        for name in FILES:
            assert (out / name).exists()
        assert "rounds = 20" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["run", "exp1", "--seed", "11", "--rounds", "15", "--reps", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trusted sets required: 2" in text
        assert "frequencies.csv: 10 rows" in text

    def test_label_with_comma_or_quote_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # frequencies.csv writes every cell as itself, so no label may be one CSV quotes
        labels = ["a,b", 'say "hi"', "m", 'x",y', "top"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "experiment": "custom",
            "seed": 9,
            "labels": labels,
            "population_per_label": dict(zip(labels, (7, 5, 4, 3, 2))),
            "rounds": [12, 30],
            "repetitions": 3,
        }))
        for granularity in ("per-label", "per-participant"):
            out = tmp_path / granularity
            assert main(["run", "custom", "--config", str(p), "--out", str(out),
                         "--granularity", granularity]) == 1
            assert capsys.readouterr().err == "config error: " + "; ".join(
                f"labels: {lab!r} must not hold ',' or '\"'"
                for lab in ("a,b", 'say "hi"', 'x",y')) + "\n"
            assert not out.exists()

    @given(st.lists(st.text(st.sampled_from("a,"), min_size=1, max_size=8), max_size=8),
           st.sampled_from([1, 2, 3, 1 << 20]))
    @example([], 1)  # an empty file
    @example(["h"], 2)  # a header alone
    def test_row_count_equals_csv_readers(self, lines, block):
        # line ends counted in blocks of any size, over files of the shape written here:
        # no quote or CR, and every line ended
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "frequencies.csv"
            path.write_bytes("".join(line + "\n" for line in lines).encode())
            with open(path, newline="") as fh:
                records = csv.reader(fh)
                next(records, None)  # header
                want = sum(1 for row in records if row)
            with mock.patch.object(outputs, "_BLOCK", block):
                assert outputs._count_rows(path) == want

    def test_label_with_cr_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # csv.writer would leave the CR unquoted, and the report would count 12 rows for these 10
        labels = ["a\rb", "L", "M", "H", "VH"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "experiment": "custom",
            "labels": labels,
            "population_per_label": dict(zip(labels, (5, 4, 3, 2, 1))),
            "rounds": [20],
            "repetitions": 2,
        }))
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'a\\rb'" in err
        assert not out.exists()

    def test_integer_literal_too_long_to_parse_exits_one_and_writes_nothing(self, tmp_path,
                                                                           capsys):
        # json.loads refuses an integer of over 4,300 digits with a plain ValueError
        p = tmp_path / "cfg.json"
        p.write_text('{"commission": 1' + "0" * 5000 + "}")
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config file ") and str(p) in err
        assert not out.exists()

    def test_duplicate_rounds_exit_one_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "dup"
        assert main(["run", "exp1", "--seed", "3", "--rounds", "10,10", "--reps", "1",
                     "--out", str(out)]) == 1
        assert "rounds: duplicates not allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_requires_config(self, capsys):
        assert main(["run", "custom"]) == 1
        assert "config" in capsys.readouterr().err

    def test_custom_with_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "experiment": "custom",
            "seed": 2,
            "rounds": [10],
            "repetitions": 1,
            "population_per_label": TINY_POP,
        }))
        out = tmp_path / "c"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_custom_runs_custom_on_a_file_without_experiment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({
            "seed": 2, "rounds": [10], "repetitions": 1, "population_per_label": TINY_POP}))
        assert main(["run", "custom", "--config", "cfg.json"]) == 0
        summary = json.loads((tmp_path / "runs" / "custom" / "summary.json").read_text())
        assert summary["experiment"] == "custom"
        assert not (tmp_path / "runs" / "exp1").exists()

    def test_custom_runs_custom_on_a_file_naming_exp2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "exp2", "seed": 2, "repetitions": 1,
                                 "population_per_label": TINY_POP}))
        out = tmp_path / "c"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "custom"
        assert list(summary["results"]) == ["100"] and "algorithms" not in summary

    def test_custom_validates_a_file_naming_exp2_as_custom(self, tmp_path, capsys):
        # the file's rounds would be refused under exp2, but the run is custom
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "exp2", "seed": 2, "rounds": [10],
                                 "repetitions": 1, "population_per_label": TINY_POP}))
        out = tmp_path / "c"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 0, (
            capsys.readouterr().err)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "custom" and list(summary["results"]) == ["10"]

    def test_exp2_validates_a_file_naming_custom_as_exp2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", "rounds": [7], "repetitions": 1,
                                 "population_per_label": TINY_POP}))
        out = tmp_path / "never"
        assert main(["run", "exp2", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: rounds: exp2 runs fuzzychain_rounds rounds instead, so it takes"
            " only the default [100], got [7]\n")
        assert not out.exists()

    def test_bad_rounds_flag_is_config_error(self, capsys):
        assert main(["run", "exp1", "--rounds", "ten"]) == 1
        assert "--rounds" in capsys.readouterr().err

    def test_rounds_flag_on_exp2_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # exp2 runs fuzzychain_rounds: --rounds would only be echoed into summary.json. The
        # flag meets the config file's rule, with its message
        out = tmp_path / "never"
        assert main(["run", "exp2", "--rounds", "7", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: rounds: exp2 runs fuzzychain_rounds rounds instead, so it takes"
            " only the default [100], got [7]\n")
        assert not out.exists()

    def test_default_rounds_flag_on_exp2_runs(self, tmp_path):
        # as a file's "rounds": [100] does
        p = tmp_path / "exp2.json"
        p.write_text(json.dumps({"population_per_label": TINY_POP, "fuzzychain_rounds": 20,
                                 "repetitions": 1, "baselines": {"participants": 10,
                                                                 "rounds": 20}}))
        out = tmp_path / "r"
        assert main(["run", "exp2", "--config", str(p), "--rounds", "100",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "exp2" and summary["config"]["rounds"] == [100]

    @pytest.mark.parametrize("rounds", ["10,,20", "10,20,", ",10", ""])
    def test_empty_rounds_entry_exits_one_and_writes_nothing(self, tmp_path, capsys, rounds):
        out = tmp_path / "never"
        assert main(["run", "exp1", "--rounds", rounds, "--reps", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: --rounds: expected comma-separated integers, got {rounds!r}\n")
        assert not out.exists()

    def test_flag_replaces_a_file_value_unchecked(self, tmp_path):
        # the file's repetitions never reach the check: --reps replaced them before it
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"population_per_label": TINY_POP, "rounds": [10],
                                 "repetitions": 0}))
        out = tmp_path / "r"
        assert main(["run", "exp1", "--config", str(p), "--reps", "1", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["config"]["repetitions"] == 1

    @pytest.mark.parametrize("flags", [[], ["--seed", "3", "--reps", "1"]],
                             ids=["file-alone", "with-flags"])
    def test_config_file_holding_a_list_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                                    flags):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps([{"seed": 3}]))
        out = tmp_path / "never"
        assert main(["run", "exp1", "--config", str(p), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: top level: expected a key-value object\n"
        assert not out.exists()

    def test_flags_a_file_or_both_give_the_same_bytes(self, tmp_path):
        # one run asked for three ways: flags alone, a file alone, and a file whose every
        # value the flags replace
        flags = ["--seed", "7", "--rounds", "5,8", "--reps", "2",
                 "--granularity", "per-participant"]
        same = tmp_path / "same.json"
        same.write_text(json.dumps({"experiment": "exp1", "seed": 7, "rounds": [5, 8],
                                    "repetitions": 2, "granularity": "per-participant"}))
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"experiment": "custom", "seed": 1, "rounds": [0],
                                     "repetitions": 0, "granularity": "per-label"}))
        runs = {"flags": flags, "file": ["--config", str(same)],
                "both": ["--config", str(other), *flags]}
        for name, args in runs.items():
            assert main(["run", "exp1", *args, "--out", str(tmp_path / name)]) == 0
        for name in FILES:
            assert len({(tmp_path / run / name).read_bytes() for run in runs}) == 1, name

    def test_rounds_in_an_exp2_config_file_exit_one_and_write_nothing(self, tmp_path, capsys):
        # exp2 runs fuzzychain_rounds: a config file's rounds would only be echoed
        p = tmp_path / "exp2.json"
        p.write_text(json.dumps({"population_per_label": TINY_POP, "rounds": [7],
                                 "fuzzychain_rounds": 20, "repetitions": 1}))
        out = tmp_path / "never"
        assert main(["run", "exp2", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: rounds: exp2 runs fuzzychain_rounds rounds instead, so it takes"
            " only the default [100], got [7]\n")
        assert not out.exists()

    def test_workers_flag_is_refused(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "exp1", "--rounds", "5", "--reps", "1", "--out", str(out),
                     "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        pytest.param(["run", "exp1", "--granularity", "bad"],
                     "argument --granularity: invalid choice: 'bad'", id="bad-choice"),
        pytest.param(["run", "exp3"], "argument experiment: invalid choice: 'exp3'",
                     id="unknown-experiment"),
        pytest.param([], "the following arguments are required: command", id="no-command"),
    ])
    def test_usage_errors_exit_one_and_write_nothing(self, tmp_path, capsys, args, message):
        out = tmp_path / "never"
        assert main([*args, "--out", str(out)] if args else args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: fuzzychain") and "\nconfig error: fuzzychain" in err
        assert message in err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fuzzychain run")

    def test_a_fresh_run_never_imports_numpy_ma(self, tmp_path):
        # np.percentile loads numpy.ma on its first call in a process, about 15 ms of
        # every fresh run; the box plots take their quartiles without it. No csv either:
        # the result files' bytes follow no csv-module quoting rule
        (tmp_path / "exp2.json").write_text(json.dumps({
            "population_per_label": TINY_POP, "fuzzychain_rounds": 40, "repetitions": 2,
            "baselines": {"participants": 20, "rounds": 50}}))
        script = (
            "import sys\n"
            "from fuzzychain.cli import main\n"
            "for args in (['run', 'exp1', '--rounds', '5', '--reps', '2', '--out', 'exp1'],\n"
            "             ['run', 'exp2', '--config', 'exp2.json', '--out', 'exp2']):\n"
            "    if main(args) != 0 or main(['report', args[-1]]) != 0:\n"
            "        sys.exit(f'{args} failed')\n"
            "    for module in ('numpy.ma', 'csv'):\n"
            "        if module in sys.modules:\n"
            "            sys.exit(f'{args} imported {module}')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        for out in ("exp1", "exp2"):
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == sorted(FILES)

    def test_invalid_config_file_exits_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", "epsilon": 3}))
        assert main(["run", "custom", "--config", str(p)]) == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        pytest.param(lambda p: p.mkdir(), id="directory"),
        pytest.param(lambda p: p.write_bytes(b"\xff\xfe{}"), id="not-utf8"),
    ])
    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, make):
        p = tmp_path / "cfg.json"
        make(p)
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "cannot be read" in err
        assert not out.exists()

    def test_wrong_typed_config_value_exits_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", "eta": "x", "commission": None}))
        assert main(["run", "custom", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "eta" in err and "commission" in err

    def test_overflowing_universe_exits_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", "universe_lo": -1e308,
                                 "universe_hi": 1e308}))
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: universe_lo, universe_hi: peaks must be finite and"
                       " strictly increasing, got [nan, inf, inf, inf, inf]\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["universe_hi", "commission"])
    def test_an_integer_beyond_the_float_range_exits_one(self, tmp_path, capsys, field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", field: 10**400}))
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"config error: {field}: expected a finite number,"
                                           " got an integer too large for a float\n")
        assert not out.exists()

    def test_a_universe_two_ulps_wide_exits_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "custom", "universe_lo": 1.0,
                                 "universe_hi": 1.0000000000000004}))
        out = tmp_path / "never"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: universe_lo, universe_hi: peaks must be finite and"
                              " strictly increasing")
        assert not out.exists()

    def test_overflowing_hash_powers_exit_two(self, tmp_path, capsys):
        # a pareto with a tiny shape overflows every hash power to inf
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "experiment": "exp2",
            "fuzzychain_rounds": 20,
            "repetitions": 1,
            "baselines": {"pow_power_dist": {"type": "pareto", "shape": 0.001, "scale": 1.0}},
        }))
        out = tmp_path / "never"
        assert main(["run", "exp2", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "hash_power must be finite and positive, got inf for m0000" in err
        assert not out.exists()

    def test_missing_run_dir_exits_two(self, capsys):
        assert main(["report", "/nonexistent/place"]) == 2
        assert "error" in capsys.readouterr().err

    def test_granularity_flag(self, tmp_path):
        out = tmp_path / "g"
        assert main(["run", "exp1", "--seed", "4", "--rounds", "10", "--reps", "1",
                     "--granularity", "per-participant", "--out", str(out)]) == 0
        rows = read_csv(out / "frequencies.csv")
        assert len(rows) == 990  # one row per enrolled validator
