"""fuzzychain benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload exp1_paper --seed 42 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported
from src/ of the checkout that holds this file, in a fresh process per
run (bench/child.py). Standard library only. NOTES.md defines the
workloads and metrics.

--trace 0 measures the end-to-end metrics: one run at workers 2 as a
warm-up and cross-check, then runs at workers 1, each followed by a
few timed set-ups, until --seconds have passed.
--trace 1 measures the per-layer metrics: it cycles an untraced run
at workers 1, one at workers 2 and a traced run at workers 1, until
--seconds have passed and at least two traced runs are done.

Every run is checked: invariants on its report, output digests equal
across all runs of the invocation (and equal to the pinned digests at
the default seed), and, when traced, counts equal across traced runs.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(version stamp, samples, check failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 100
MAX_WINDOW_S = 100  # a traced window may run past --seconds to get two traced runs
SETUP_SECONDS = 0.2  # set-up timing appended to each measured run
# Timings are reported in reference seconds: wall seconds scaled to a
# host on which bench/child.py's calibration job takes this long.
CALIBRATION_REF_S = 0.05

END_TO_END = {"rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "ratio"}
FILE_KEYS = {"frequencies.csv": "frequencies_csv", "summary.json": "summary_json",
             "audit.jsonl": "audit_jsonl", "plots.svg": "plots_svg"}
PANEL_SIZES = (1, 3, 5, 7)
PER_LAYER = {
    "fuzzy.classify_calls": "count",
    "fuzzy.classify_s": "s",
    "registry.build_s": "s",
    "registry.trusted_sets_s": "s",
    "registry.members_scanned": "count/round",
    "registry.settle_s": "s",
    "registry.expelled": "count",
    "consensus.round_ms_p50": "ms",
    "consensus.round_ms_p99": "ms",
    "consensus.select_s": "s",
    "consensus.subset_scan_s": "s",
    "consensus.vote_s": "s",
    "consensus.round_self_s": "s",
    **{f"consensus.panel_size_hist.{size}": "count" for size in PANEL_SIZES},
    "consensus.short_panels": "count",
    "ledger.keygen_s": "s",
    "ledger.sign_s": "s",
    "ledger.build_block_s": "s",
    "ledger.validate_vote_s": "s",
    "ledger.append_s": "s",
    "ledger.verify_calls": "count",
    "ledger.verify_s": "s",
    "ledger.verifies_per_block": "ratio",
    "ledger.rejected_rounds": "count",
    "baselines.pow_s": "s",
    "baselines.pos_s": "s",
    "baselines.dpos_s": "s",
    "metrics.summarize_s": "s",
    "experiments.rep_s_p50": "s",
    "experiments.rep_s_max": "s",
    "experiments.rep_self_s": "s",
    "experiments.pool_efficiency": "ratio",
    "outputs.emit_s": "s",
    **{f"outputs.bytes.{key}": "bytes" for key in FILE_KEYS.values()},
    "svg.render_s": "s",
    "trace.overhead": "ratio",
}


class Session:
    """The runs of one invocation, and every check failure among them."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None  # what every run must reproduce, per file
        self.counts = None  # what every traced run must reproduce

    def child(self, *args) -> dict | None:
        """Run bench/child.py once; None when the run failed."""
        self.attempted += 1
        cmd = [sys.executable, str(CHILD), *args,
               "--workload", self.workload.name, "--seed", str(self.seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self.fail(f"{' '.join(args)}: timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return self.fail(f"{' '.join(args)}: exit {proc.returncode}: {tail[0]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(f"{' '.join(args)}: no result on stdout")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        return None

    def run(self, workers: int, trace: bool, setup_seconds: float = 0.0) -> dict | None:
        """One workload run, checked; None when it failed a check."""
        out = OUT / f"{self.workload.name}-{os.getpid()}"
        result = self.child("--workers", str(workers), "--trace", str(int(trace)),
                            "--out", str(out), "--setup-seconds", str(setup_seconds))
        if result is None:
            return None
        what = f"workers={workers} trace={int(trace)}"
        if result["errors"]:
            return self.fail(f"{what}: invariants: {result['errors']}")
        if self.digests is None:
            self.digests = dict(result["digests"])
            if self.seed == DEFAULT_SEED:
                self.digests.update(PINNED_DIGESTS[self.workload.name])
        bad = [f for f, digest in result["digests"].items() if digest != self.digests[f]]
        if bad:
            return self.fail(f"{what}: {bad} differ from the pinned digests"
                             f" (seed {DEFAULT_SEED}) or the first run's")
        if trace:
            counts = trace_counts(result)
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                return self.fail(f"{what}: traced counts differ from the first traced run")
        return result

    def hopeless(self) -> bool:
        """Nothing has worked so far; stop instead of failing for the whole window."""
        return self.attempted >= 3 and self.failed == self.attempted


def to_reference(run: dict, seconds: float) -> float:
    """Wall seconds measured in a run, scaled by that run's calibration."""
    return seconds * CALIBRATION_REF_S / run["calibration_s"]


def rounds_per_s(run: dict) -> float:
    return run["rounds"] / to_reference(run, run["wall_s"])


def wall_rounds_per_s(run: dict) -> float:
    return run["rounds"] / run["wall_s"]


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def trace_counts(run: dict) -> dict:
    """The deterministic part of a traced run: call counts and run counts."""
    t = run["trace"]
    return {"calls": t["calls"], "members_scanned": t["members_scanned"],
            "stats": run["stats"]}


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced run, before taking medians across runs."""
    t, stats = run["trace"], run["stats"]
    calls, total, self_s = t["calls"], t["total_s"], t["self_s"]

    def s(name):
        return total.get(name, 0.0)

    appended = stats["appended"]
    m = {
        "fuzzy.classify_calls": calls.get("fuzzy.classify", 0),
        "fuzzy.classify_s": s("fuzzy.classify"),
        "registry.build_s": s("registry.build"),
        "registry.trusted_sets_s": s("registry.trusted_sets"),
        "registry.members_scanned": t["members_scanned"] / max(1, stats["rounds"]),
        "registry.settle_s": s("registry.settle"),
        "registry.expelled": stats["expelled"],
        "consensus.select_s": s("consensus.select"),
        "consensus.subset_scan_s": s("consensus.subset_scan"),
        "consensus.vote_s": s("consensus.vote"),
        "consensus.round_self_s": self_s.get("consensus.round", 0.0),
        "consensus.short_panels": stats["short_panels"],
        "ledger.keygen_s": s("ledger.keygen"),
        "ledger.sign_s": s("ledger.sign"),
        "ledger.build_block_s": s("ledger.build_block"),
        "ledger.validate_vote_s": s("ledger.validate_vote"),
        "ledger.append_s": s("ledger.append"),
        "ledger.verify_calls": calls.get("ledger.verify", 0),
        "ledger.verify_s": s("ledger.verify"),
        "ledger.verifies_per_block": calls.get("ledger.verify", 0) / max(1, appended),
        "ledger.rejected_rounds": stats["rejected_rounds"],
        "baselines.pow_s": s("baselines.pow"),
        "baselines.pos_s": s("baselines.pos"),
        "baselines.dpos_s": s("baselines.dpos"),
        "metrics.summarize_s": s("metrics.summarize"),
        "experiments.rep_self_s": self_s.get("experiments.rep", 0.0),
        "outputs.emit_s": run["emit_s"],
        "svg.render_s": s("svg.render"),
    }
    for size in PANEL_SIZES:
        m[f"consensus.panel_size_hist.{size}"] = stats["panel_size_hist"].get(str(size), 0)
    for name, key in FILE_KEYS.items():
        m[f"outputs.bytes.{key}"] = run["bytes"][name]
    return m


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.run(2, trace=False)  # warm-up, and the workers-2 outputs to compare with
    runs = []
    start = time.perf_counter()
    while True:
        run = session.run(1, trace=False, setup_seconds=SETUP_SECONDS)
        if run is not None:
            runs.append(run)
        if time.perf_counter() - start >= seconds or session.hopeless():
            break
    rates = [rounds_per_s(r) for r in runs]
    setup = [to_reference(r, x) for r in runs for x in r["setup_s"]]
    metrics = {
        "rounds_per_s": median(rates),
        "setup_s": median(setup),
        "peak_rss_mb": median([r["rss_mb"] for r in runs]),
        "pass_ratio": (session.attempted - session.failed) / session.attempted,
    }
    details = {
        "runs": len(runs),
        "rounds_per_s_samples": rates,
        "wall_rounds_per_s_samples": [wall_rounds_per_s(r) for r in runs],
        "calibration_s_samples": [r["calibration_s"] for r in runs],
        "setup_calls": len(setup),
        "setup_s_quartiles": statistics.quantiles(setup, n=4) if len(setup) > 1 else setup,
        "wall_setup_s_median": median([x for r in runs for x in r["setup_s"]]),
    }
    return metrics, details


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    serial, pooled, traced = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(traced) >= 2 or elapsed >= MAX_WINDOW_S):
            break
        if session.hopeless():
            break
        for bucket, workers, trace in ((serial, 1, False), (pooled, 2, False), (traced, 1, True)):
            run = session.run(workers, trace)
            if run is not None:
                bucket.append(run)
    per_run = [layer_metrics(r) for r in traced]
    metrics = {name: median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
    round_ms = [x * 1000.0 for r in traced for x in r["trace"]["round_s"]]
    rep_s = [x for r in traced for x in r["trace"]["rep_s"]]
    serial_rate, traced_rate, pooled_rate = (
        median([rounds_per_s(r) for r in bucket]) for bucket in (serial, traced, pooled))
    metrics.update({
        "consensus.round_ms_p50": median(round_ms),
        "consensus.round_ms_p99": quantile(round_ms, 0.99),
        "experiments.rep_s_p50": median(rep_s),
        "experiments.rep_s_max": max(rep_s, default=0.0),
        "experiments.pool_efficiency": pooled_rate / (2 * serial_rate) if serial_rate else 0.0,
        "trace.overhead": 1.0 - traced_rate / serial_rate if serial_rate else 0.0,
    })
    details = {
        "traced_runs": len(traced),
        "round_samples": len(round_ms),
        "rep_samples": len(rep_s),
        "rounds_per_s_workers1": serial_rate,
        "rounds_per_s_workers2": pooled_rate,
        "rounds_per_s_traced": traced_rate,
    }
    return metrics, details


def stamp(seed: int) -> dict:
    """What the outputs and timings depend on besides the code."""
    versions = {}
    for dist in ("numpy", "cryptography"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fuzzychain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fuzzychain" / "__init__.py").is_file():
        print(f"no fuzzychain sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    session = Session(WORKLOADS[args.workload], args.seed)
    measure, units = ((measure_layers, PER_LAYER) if args.trace
                      else (measure_end_to_end, END_TO_END))
    metrics, details = measure(session, args.seconds)
    correct = session.failed == 0
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "stamp": stamp(args.seed), "problems": session.problems, **details}))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
