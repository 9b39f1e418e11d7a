"""The scripts under scripts/, run as a user runs them: a subprocess."""

import json
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
