"""The scripts under scripts/, run as a user runs them: a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

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


def test_exp2_comparison_rejects_an_empty_seed_range(tmp_path):
    proc = run_scan(tmp_path, "--seeds", "5:1")
    assert proc.returncode == 2
    assert "names no seed" in proc.stderr
    assert not (tmp_path / "scan").exists()
