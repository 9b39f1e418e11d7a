"""The names the benchmark in bench/ looks up in fuzzychain still exist,
and a benchmark run still gives the pinned result files.

bench/tracer.py wraps each (owner, attribute) of its TARGETS by reading
owner.__dict__[attribute], and bench/child.py passes workers= to
run_configured. A rename or deletion in src/ would break every traced
benchmark run without failing any other test. bench/child.py checks each
run's invariants and hashes its result files, which must equal the
digests pinned in bench/workloads.py.
"""

import importlib.util
import inspect
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzychain.experiments import run_configured

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in load_tracer().TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_run_configured_accepts_workers():
    assert "workers" in inspect.signature(run_configured).parameters


@pytest.mark.parametrize("workload", ["exp1_paper", "exp1_pop49500", "exp2_faults"])
def test_a_benchmark_run_gives_the_pinned_digests(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", "42",
         "--trace", "0", "--setup-seconds", "0.05", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["errors"] == []
    pinned = runpy.run_path(str(BENCH / "workloads.py"))["PINNED_DIGESTS"][workload]
    assert {name: result["digests"][name] for name in pinned} == pinned
    assert result["setup_s"]  # the set-up, build_registry included, was timed at least once
