"""The scripts under scripts/, run as a user runs them: a subprocess,
and bench_pairs.py's summary on given numbers (no benchmark runs)."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzychain.config import ExperimentConfig
from fuzzychain.experiments import run_experiment2
from fuzzychain.outputs import FILES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_scan(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "run_exp2_comparison.py"), *args,
         "--out", str(tmp_path / "scan")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_exp2_comparison_scan(tmp_path):
    proc = run_scan(tmp_path, "--seeds", "1:2", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "scan"
    for seed in (1, 2):
        assert sorted(p.name for p in (out / f"seed{seed:04d}").iterdir()) == sorted(FILES)
    held = [
        all(run_experiment2(
            ExperimentConfig(experiment="exp2", seed=seed, repetitions=1).validate()
        ).ordering_satisfied())
        for seed in (1, 2)
    ]
    scan = json.loads((out / "scan.json").read_text())
    assert scan["seeds"] == [1, 2]
    assert scan["ordering_held"] == sum(held)
    assert [row["ordering_held"] for row in scan["rows"]] == held


def test_exp2_comparison_scan_reports_the_summary_mean_gini(tmp_path):
    proc = run_scan(tmp_path, "--seeds", "1:1", "--reps", "8")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "scan"
    summary = json.loads((out / "seed0001" / "summary.json").read_text())
    [row] = json.loads((out / "scan.json").read_text())["rows"]
    assert row["gini"] == summary["mean_gini"]


@pytest.mark.parametrize("seeds, message", [
    ("5:1", "names no seed"),
    ("1,,2", "expected lo:hi or a comma-separated list of integers"),
    ("a:3", "expected lo:hi or a comma-separated list of integers"),
    ("1,1", "duplicates not allowed, got [1, 1]"),
    ("3,1,2,1", "duplicates not allowed, got [3, 1, 2, 1]"),
    ("1,01", "duplicates not allowed, got [1, 1]"),
], ids=["empty-range", "empty-item", "non-integer", "repeated-seed", "repeated-later",
        "repeated-as-spelled-apart"])
def test_exp2_comparison_rejects_an_empty_seed_range(tmp_path, seeds, message):
    proc = run_scan(tmp_path, "--seeds", seeds)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scan").exists()


@pytest.mark.parametrize("args, message", [
    (["--seeds", "3,-1"], "seed: expected a non-negative integer, got -1"),
    (["--seeds", "1:2", "--reps", "0"], "repetitions: expected an integer >= 1, got 0"),
], ids=["negative-seed", "no-repetitions"])
def test_exp2_comparison_rejects_an_invalid_config(tmp_path, args, message):
    proc = run_scan(tmp_path, *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scan").exists()


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_in_each_direction():
    bench_pairs = load_bench_pairs()
    rates = [(100.0, 120.0), (104.0, 118.0), (98.0, 121.0), (102.0, 102.0), (101.0, 119.0)]
    setups = [(0.010, 0.009), (0.011, 0.012), (0.010, 0.010), (0.012, 0.008), (0.009, 0.010)]
    pairs = [({"rounds_per_s": r0, "setup_s": s0}, {"rounds_per_s": r1, "setup_s": s1})
             for (r0, r1), (s0, s1) in zip(rates, setups)]
    rows = bench_pairs.summarize(pairs, [("rounds_per_s", "higher", 0.25),
                                         ("setup_s", "lower", 0.25)])
    rate, setup = rows
    assert rate["metric"] == "rounds_per_s" and rate["pairs"] == 5
    assert rate["wins"] == 4  # the tied pair is no win
    q1, med, q3 = statistics.quantiles([r0 for r0, _ in rates], n=4)
    assert rate["parent"] == {"q1": q1, "median": med, "q3": q3}
    assert rate["change"]["median"] == 119.0
    assert not rate["clear"]  # 4 of 5 is under 9 in 10
    assert setup["wins"] == 2 and not setup["clear"]  # lower is better
    text = bench_pairs.format_summary(rows)
    assert "rounds_per_s" in text and "4/5" in text and "2/5" in text


def test_bench_pairs_summary_is_clear_only_past_the_parent_spread():
    bench_pairs = load_bench_pairs()
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def rows(gain):
        pairs = [({"x": p}, {"x": p + gain}) for p in parent]
        return bench_pairs.summarize(pairs, [("x", "higher", 0.25)])[0]

    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert rows(2 * (q3 - q1))["clear"]  # 10 of 10 and past the spread
    assert not rows((q3 - q1) / 2)["clear"]  # 10 of 10, inside the spread
    one = bench_pairs.summarize([({"x": 1.0}, {"x": 2.0})], [("x", "higher", 0.25)])[0]
    assert one["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0} and one["clear"]


def test_bench_pairs_verdict_measures_regressions_against_the_bound():
    bench_pairs = load_bench_pairs()
    narrow = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]

    def verdict(parent, change, better="higher", bound=0.05):
        pairs = [({"x": p}, {"x": c}) for p, c in zip(parent, change)]
        row = bench_pairs.summarize(pairs, [("x", better, bound)])[0]
        return row["verdict"], bench_pairs.format_summary([row])

    assert verdict(narrow, [p - 4 for p in narrow])[0] == "ok"  # 4% worse, inside 5%
    got, text = verdict(narrow, [p - 6 for p in narrow])
    assert got == "worse" and text.endswith("worse")  # 6% worse, past 5%
    assert verdict(narrow, [p + 6 for p in narrow], better="lower")[0] == "worse"
    assert verdict(narrow, [p - 6 for p in narrow], better="lower")[0] == "ok"
    # a parent spread of about 20 is wider than the 5-unit margin
    assert verdict(wide, [p + 1 for p in wide])[0] == "unresolved"
    assert verdict(wide, [121.0 + i for i in range(10)])[0] == "ok"  # every run beats every run
    assert verdict(wide, [p - 1 for p in wide], bound=0.25)[0] == "ok"  # spread inside 25%


def test_bench_pairs_sums_failed_runs_and_flags_a_larger_share():
    bench_pairs = load_bench_pairs()
    results = [({"attempted": 10, "failed": 0}, {"attempted": 12, "failed": 1}),
               ({"attempted": 11, "failed": 1}, {"attempted": 9, "failed": 0}),
               ({"attempted": 9, "failed": 0}, {"attempted": 10, "failed": 1})]
    parent, change = bench_pairs.run_counts(results)
    assert (parent, change) == ((30, 1), (31, 2))
    assert bench_pairs.fails_more(parent, change)  # 2/31 > 1/30
    assert bench_pairs.format_failures(parent, change) == (
        "failed runs: parent 1/30, change 2/31"
        "  FLAGGED: the change fails a larger share of runs than the parent")
    assert not bench_pairs.fails_more((30, 0), (30, 0))
    assert not bench_pairs.fails_more((40, 2), (20, 1))  # an equal share
    assert not bench_pairs.fails_more((30, 2), (30, 1))
    assert bench_pairs.fails_more((40, 0), (20, 1))
    assert bench_pairs.format_failures((30, 0), (30, 0)) == "failed runs: parent 0/30, change 0/30"


def test_bench_pairs_refuses_paths_of_unequal_length(tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    short, longer = tmp_path / "a", tmp_path / "bb"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(short), str(longer), "--workload", "exp1_paper"])
    assert exc.value.code == 2
    assert "checkout paths differ in length" in capsys.readouterr().err


@pytest.mark.parametrize("run_mb, code", [(60, 0), (-1, 1)])
def test_memory_check_exits_one_past_its_run_bound(tmp_path, run_mb, code):
    # scale 1 is exp1's own 990 validators, which stay far inside 60 MB
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_check.py"), "1", str(run_mb)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("990 validators, peak RSS:")
    assert f"bound {run_mb})" in proc.stdout and "bound 5)" in proc.stdout
