"""One measured fuzzychain run, in a process of its own.

    python3 bench/child.py --workload exp1_paper --seed 42 --workers 1 --trace 0 --out DIR

Goes through the path `fuzzychain run ... --config` takes
(config_from_dict -> run_configured -> emit_outputs) and times it.
Afterwards it checks invariants on the report and its audit rows,
hashes the result files and, if asked, times what one repetition pays
before round 1, several times. Before and after all that it times a
fixed calibration job, which gauges the host's speed. Prints one JSON
object on stdout; bench/run.py starts this script and reads it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fuzzychain import experiments  # noqa: E402
from fuzzychain.config import config_from_dict  # noqa: E402
from fuzzychain.consensus import quotas  # noqa: E402
from fuzzychain.experiments import Exp2Report, run_configured  # noqa: E402
from fuzzychain.ledger import Chain, new_keypair  # noqa: E402
from fuzzychain.outputs import FILES, emit_outputs  # noqa: E402
from fuzzychain.rng import substream  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MAX_ERRORS = 10
CALIBRATIONS = 3  # calibration jobs before the run, and again after it


@dataclass
class _Item:
    key: str
    value: float


def calibrate() -> float:
    """Seconds a fixed job takes that uses no fuzzychain code and no numpy.

    It mixes what the workloads do most (object churn, dict lookups,
    JSON text and SHA-256), so it slows down with them when the shared
    host does. bench/run.py divides timings by it.
    """
    t0 = time.perf_counter()
    rng = random.Random(1)
    items = {}
    for i in range(20000):
        key = f"k{i:05d}"
        items[key] = _Item(key, rng.random())
    sum(item.value for item in items.values() if item.value > 0.5)
    for item in list(items.values())[:5000]:
        json.dumps({"key": item.key, "value": round(item.value, 9)}, sort_keys=True)
    digest = b""
    for _ in range(3000):
        digest = hashlib.sha256(digest + b"x").digest()
    return time.perf_counter() - t0


def check_invariants(runs, rows, full_panel: int) -> tuple[list, dict]:
    """Errors found in the report and audit rows, plus deterministic counts."""
    errors = []
    expelled = {}  # (rounds, repetition) -> ids expelled so far
    appended = Counter()
    hist = Counter()
    for row in rows:
        key = (row["rounds"], row["repetition"])
        panel = row["panel"]
        gone = expelled.setdefault(key, set())
        where = f"rounds={key[0]} rep={key[1]} round={row['round']}"
        hist[len(panel)] += 1
        if len(panel) % 2 == 0:
            errors.append(f"{where}: even panel of {len(panel)}")
        if len(set(panel)) != len(panel):
            errors.append(f"{where}: duplicate panelist")
        if gone.intersection(panel):
            errors.append(f"{where}: expelled panelist {sorted(gone.intersection(panel))}")
        for pid, (before, after) in row["reputation_deltas"].items():
            if not (0.0 <= before <= 1.0 and 0.0 <= after <= 1.0):
                errors.append(f"{where}: reputation of {pid} outside [0, 1]")
        gone.update(row["expulsions"])
        appended[key] += bool(row["appended"])
    for run in runs:
        key = (run.rounds, run.repetition)
        if run.chain_height + run.rejected_rounds != run.rounds:
            errors.append(f"rounds={key[0]} rep={key[1]}: chain_height + rejected_rounds"
                          f" = {run.chain_height + run.rejected_rounds}, not {run.rounds}")
        if appended[key] != run.chain_height:
            errors.append(f"rounds={key[0]} rep={key[1]}: {appended[key]} appended audit rows"
                          f" for chain height {run.chain_height}")
    stats = {
        "rounds": len(rows),
        "appended": sum(run.chain_height for run in runs),
        "rejected_rounds": sum(run.rejected_rounds for run in runs),
        "expelled": sum(run.expelled for run in runs),
        "panel_size_hist": {str(k): hist[k] for k in sorted(hist)},
        "short_panels": sum(n for size, n in hist.items() if size < full_panel),
    }
    return errors, stats


def fault_errors(stats: dict) -> list:
    """A faults workload that drifted onto the honest path."""
    errors = []
    if stats["rejected_rounds"] == 0:
        errors.append("faults workload rejected no round")
    if stats["expelled"] == 0:
        errors.append("faults workload expelled no validator")
    if stats["short_panels"] == 0:
        errors.append("faults workload formed no short panel")
    return errors


def trace_payload(tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "total_s": {name: sum(d) for name, d in tracer.durations.items()},
        "self_s": dict(tracer.self_s),
        "round_s": tracer.durations["consensus.round"],
        "rep_s": tracer.durations["experiments.rep"],
        "members_scanned": tracer.members_scanned,
    }


def do_run(workload, seed: int, workers: int, trace: bool, out: Path,
           setup_seconds: float) -> dict:
    calibration = [calibrate() for _ in range(CALIBRATIONS)]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    cfg = config_from_dict(workload.config_for(seed))
    report = run_configured(cfg, workers=workers)
    t1 = time.perf_counter()
    paths = emit_outputs(report, out)
    t2 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    runs = report.fuzzy_runs if isinstance(report, Exp2Report) else report.runs
    errors, stats = check_invariants(runs, report.audit_rows(),
                                     sum(quotas(len(cfg.labels))))
    if workload.expect_faults:
        errors += fault_errors(stats)
    digests, sizes = {}, {}
    for name in FILES:
        data = Path(paths[name]).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        sizes[name] = len(data)
    shutil.rmtree(out)
    setup = time_setup(cfg, setup_seconds)
    calibration += [calibrate() for _ in range(CALIBRATIONS)]
    return {
        "wall_s": t2 - t0,
        "emit_s": t2 - t1,
        "rounds": workload.rounds_total(),
        "rss_mb": rss_mb,
        "digests": digests,
        "bytes": sizes,
        "stats": stats,
        "errors": errors[:MAX_ERRORS],
        "trace": trace_payload(tracer) if tracer is not None else None,
        "setup_s": setup,
        "calibration_s": statistics.median(calibration),
    }


def time_setup(cfg, seconds: float) -> list:
    """Repeat, for about `seconds`, the per-repetition set-up before round 1.

    Mirrors the start of run_fuzzychain_once (variable, registry, four
    wallets, chain) and, for exp2, the baseline populations that
    run_experiment2 draws before its repetitions.
    """
    rounds = cfg.fuzzychain_rounds if cfg.experiment == "exp2" else cfg.rounds[0]
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        path = (cfg.experiment, rounds, len(times))
        t0 = time.perf_counter()
        var = experiments.build_variable(cfg)
        experiments.build_registry(cfg, var, substream(cfg.seed, *path, "stakes"))
        keys_rng = substream(cfg.seed, *path, "keys")
        for _ in range(experiments.N_WALLETS):
            new_keypair(keys_rng, cfg.curve)
        Chain(cfg.curve)
        if cfg.experiment == "exp2":
            experiments._baseline_populations(cfg)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-seconds", type=float, default=0.0,
                        help="after the run, time the set-up repeatedly for this long")
    args = parser.parse_args(argv)
    result = do_run(WORKLOADS[args.workload], args.seed, args.workers, bool(args.trace),
                    args.out, args.setup_seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
