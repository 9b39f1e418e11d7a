"""Config validation, experiment drivers, output files, CLI surface."""

import csv
import dataclasses
import json
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from fuzzychain import experiments
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
    run_configured,
    run_experiment1,
    run_experiment2,
    sample_stakes_for_census,
    build_variable,
)
from fuzzychain.outputs import FILES, emit_outputs, format_report
from fuzzychain.rng import substream

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
    return ExperimentConfig(**base).validate()


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig().validate()
        assert cfg.experiment == "exp1"
        assert sum(cfg.population_per_label.values()) == 990

    def test_field_level_messages(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(
                experiment="exp9",
                labels=("A", "B"),
                population_per_label={"A": 1, "B": 1},
                rounds=(0,),
                epsilon=1.5,
                byzantine_rate=2.0,
            ).validate()
        text = str(exc.value)
        for fragment in ("experiment", "labels", "rounds", "epsilon", "byzantine_rate"):
            assert fragment in text
        assert len(exc.value.errors) >= 5

    def test_population_must_match_labels(self):
        with pytest.raises(ConfigError, match="population_per_label"):
            ExperimentConfig(population_per_label={"VL": 1, "NOPE": 2}).validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"sead": 42})

    @pytest.mark.parametrize("dist_name, spec", [
        ("pow_power_dist", {"type": "zipf", "s": 2}),
        # baseline draws are hash powers, stakes and reputations: all must be positive
        ("pow_power_dist", {"type": "uniform", "lo": -1.0, "hi": 2.0}),
        ("dpos_reputation_dist", {"type": "uniform", "lo": 0.0, "hi": 1.0}),
    ], ids=["unknown-type", "uniform-negative-lo", "uniform-zero-lo"])
    def test_bad_dist_rejected(self, dist_name, spec):
        with pytest.raises(ConfigError, match=dist_name):
            config_from_dict({"baselines": {dist_name: spec}})

    @pytest.mark.parametrize("field, doc", WRONG_TYPED, ids=[f for f, _ in WRONG_TYPED])
    def test_wrong_typed_value_is_config_error(self, field, doc):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(dict(doc, epsilon=3))
        assert any(e.startswith(field + ":") for e in exc.value.errors)
        assert any(e.startswith("epsilon:") for e in exc.value.errors)

    def test_round_trip_through_dict(self):
        cfg = tiny(rounds=(25, 50), granularity="per-participant")
        again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "exp1", "seed": 3, "rounds": [10]}))
        cfg = load_config(p)
        assert cfg.seed == 3 and cfg.rounds == (10,)

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


class TestStakeSampling:
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

    def test_frequency_rows_single_sweep(self, tiny_config):
        header, rows = run_experiment1(tiny_config).frequency_rows()
        assert len(rows) == 3 * 5  # repetitions x labels
        assert header == ("repetition", "label", "count")
        assert {len(row) for row in rows} == {len(header)}

    def test_frequency_rows_multi_sweep_gain_rounds_column(self):
        cfg = tiny(rounds=(10, 20), repetitions=2)
        header, rows = run_experiment1(cfg).frequency_rows()
        assert len(rows) == 2 * 2 * 5
        assert header == ("rounds", "repetition", "label", "count")
        assert {len(row) for row in rows} == {len(header)}

    def test_per_participant_granularity(self):
        cfg = tiny(granularity="per-participant", repetitions=1)
        report = run_experiment1(cfg)
        header, rows = report.frequency_rows()
        assert len(rows) == 37  # one per enrolled participant
        assert header == ("repetition", "participant", "count")
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
            assert run.expelled == sum(len(row["expulsions"]) for row in run.audit_rows)
            assert run.expelled > 0

    def test_tables_count_the_audited_winners(self):
        cfg = tiny(granularity="per-participant", byzantine_rate=0.3,
                   invalid_block_rate=0.3, rounds=(60,), repetitions=2)
        for run in run_experiment1(cfg).runs:
            assert run.participant_table.as_dict() == {
                pid: Counter(row["winner"] for row in run.audit_rows)[pid]
                for pid in run.participant_table.categories}
            assert run.label_table.as_dict() == {
                lab: Counter(row["winner_label"] for row in run.audit_rows)[lab]
                for lab in cfg.labels}

    def test_custom_experiment_uses_frequency_driver(self):
        cfg = tiny()
        cfg = dataclasses.replace(cfg, experiment="custom").validate()
        report = run_configured(cfg)
        assert isinstance(report, Exp1Report)

    def test_workers_do_not_change_results(self, tiny_config):
        serial = run_experiment1(tiny_config)
        with_workers = run_configured(tiny_config, workers=4)
        assert json.dumps(serial.summary_dict(), sort_keys=True) == json.dumps(
            with_workers.summary_dict(), sort_keys=True
        )
        assert serial.frequency_rows() == with_workers.frequency_rows()


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
    ).validate()


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

    def test_frequency_rows_cover_all_algorithms(self, small_exp2):
        header, rows = small_exp2.frequency_rows()
        assert header == ("algorithm", "repetition", "key", "count")
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
        empty = Exp1Report(config=report.config, runs=[], trusted_sets=2)
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
        ).validate()
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

    def test_report_counts_csv_records_not_lines(self, tmp_path, capsys):
        labels = ["low,est", "mid\ndle", "top"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "experiment": "custom",
            "seed": 5,
            "labels": labels,
            "population_per_label": dict(zip(labels, (6, 4, 3))),
            "rounds": [10],
            "repetitions": 2,
        }))
        out = tmp_path / "q"
        assert main(["run", "custom", "--config", str(p), "--out", str(out)]) == 0
        # the quoted "mid\ndle" field spans two lines in each repetition
        assert len((out / "frequencies.csv").read_text().splitlines()) == 9
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "frequencies.csv: 6 rows" in capsys.readouterr().out

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

    def test_bad_rounds_flag_is_config_error(self, capsys):
        assert main(["run", "exp1", "--rounds", "ten"]) == 1
        assert "--rounds" in capsys.readouterr().err

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

    def test_missing_run_dir_exits_two(self, capsys):
        assert main(["report", "/nonexistent/place"]) == 2
        assert "error" in capsys.readouterr().err

    def test_granularity_flag(self, tmp_path):
        out = tmp_path / "g"
        assert main(["run", "exp1", "--seed", "4", "--rounds", "10", "--reps", "1",
                     "--granularity", "per-participant", "--out", str(out)]) == 0
        rows = read_csv(out / "frequencies.csv")
        assert len(rows) == 990  # one row per enrolled validator
