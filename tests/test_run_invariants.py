"""The benchmark's own run invariants, checked in-process on small configs.

bench/child.py checks every benchmark run with check_invariants (odd panels
of distinct, never-expelled members, reputations in [0, 1], one appended
audit row per block on the chain) and, on a faults workload, fault_errors
(rejections, expulsions and short panels all occur). The benchmark runs them
on its three fixed workloads only; here they run over a tiny census across
fault rates, over a small exp2, and over configs drawn across the config
space, whose two runs must emit the same bytes.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from fuzzychain.config import config_from_dict
from fuzzychain.consensus import quotas
from fuzzychain.experiments import Exp2Report, run_configured
from fuzzychain.outputs import emit_outputs
from strategies import config_documents

BENCH = Path(__file__).resolve().parents[1] / "bench"
TINY_POP = {"VL": 12, "L": 9, "M": 7, "H": 5, "VH": 4}


@pytest.fixture(scope="module")
def child():
    """bench/child.py, imported as the benchmark starts it: bench/ on sys.path.
    Its dataclass reads its own module from sys.modules while it is built.
    Loaded once per module, so the hypothesis test below can take it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        yield module


def assert_invariants_hold(child, document: dict, faulty: bool) -> tuple:
    """(report, stats) of the document's run, once its invariants hold."""
    cfg = config_from_dict(document)
    report = run_configured(cfg)
    runs = report.fuzzy_runs if isinstance(report, Exp2Report) else report.runs
    errors, stats = child.check_invariants(runs, report.audit_rows(),
                                           sum(quotas(len(cfg.labels))))
    if faulty:
        errors += child.fault_errors(stats)
    assert errors == []
    return report, stats


@pytest.mark.parametrize("invalid_block_rate", [0.0, 0.3])
@pytest.mark.parametrize("byzantine_rate", [0.0, 0.15, 0.3])
def test_exp1_runs_keep_the_benchmark_invariants(child, byzantine_rate, invalid_block_rate):
    _, stats = assert_invariants_hold(child, {
        "experiment": "exp1", "seed": 42, "population_per_label": TINY_POP,
        "rounds": [150], "repetitions": 2, "byzantine_rate": byzantine_rate,
        "invalid_block_rate": invalid_block_rate,
    }, faulty=byzantine_rate > 0 and invalid_block_rate > 0)
    assert stats["rounds"] == 300


def test_exp2_faults_keep_the_benchmark_invariants(child):
    _, stats = assert_invariants_hold(child, {
        "experiment": "exp2", "seed": 42, "population_per_label": TINY_POP,
        "repetitions": 2, "fuzzychain_rounds": 150, "byzantine_rate": 0.15,
        "invalid_block_rate": 0.3, "baselines": {"participants": 20, "rounds": 50},
    }, faulty=True)
    assert stats["rounds"] == 300


@settings(max_examples=120)
@given(config_documents())
def test_drawn_configs_keep_the_invariants_and_emit_the_same_bytes(child, document):
    # a run never raises NoPanelError: a panel's majority keeps its seats, so the
    # active population never empties
    reports = [assert_invariants_hold(child, document, faulty=False)[0],
               run_configured(config_from_dict(document))]
    emitted = []
    for report in reports:
        with tempfile.TemporaryDirectory() as out:
            emitted.append({name: Path(path).read_bytes()
                            for name, path in emit_outputs(report, out).items()})
    assert emitted[0] == emitted[1]
