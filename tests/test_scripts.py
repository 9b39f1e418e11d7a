"""The scripts under scripts/, run as a user runs them: a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

from fuzzychain.config import ExperimentConfig
from fuzzychain.experiments import run_experiment2
from fuzzychain.outputs import FILES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_exp2_comparison_scan(tmp_path):
    out = tmp_path / "scan"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_exp2_comparison.py"),
         "--seeds", "1:2", "--reps", "1", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
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
