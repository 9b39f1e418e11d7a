#!/usr/bin/env python3
"""Fairness comparison across seeds: fuzzy consensus vs PoW/PoS/DPoS.

Repeats the comparison experiment for a range of master seeds, prints
one Gini row per seed, and reports how often the expected inequality
ordering (fuzzychain < dpos < pos < pow) held. Each seed's full result
files land in their own subdirectory.

    python3 scripts/run_exp2_comparison.py --seeds 1:10 --out runs/exp2_scan
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fuzzychain.config import ConfigError, ExperimentConfig
from fuzzychain.experiments import EXPECTED_GINI_ORDER, run_experiment2
from fuzzychain.outputs import emit_outputs


def parse_seeds(text: str):
    """Seeds from "lo:hi" (inclusive) or "a,b,c"; ValueError if malformed."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1:10",
                    help="lo:hi inclusive range or comma-separated list")
    ap.add_argument("--reps", type=int, default=1, help="repetitions per seed")
    ap.add_argument("--out", default="runs/exp2_scan")
    args = ap.parse_args()

    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        ap.error(f"--seeds {args.seeds!r}: expected lo:hi or a comma-separated list of integers")
    if not seeds:
        ap.error(f"--seeds {args.seeds!r} names no seed")
    if len(set(seeds)) < len(seeds):  # a repeat would rerun a seed into the same directory
        ap.error(f"--seeds {args.seeds!r}: duplicates not allowed, got {seeds}")
    try:  # every seed's config, before any seed runs or writes
        configs = [ExperimentConfig(experiment="exp2", seed=seed, repetitions=args.reps)
                   for seed in seeds]
    except ConfigError as exc:
        ap.error(str(exc))
    out_root = Path(args.out)
    algos = list(EXPECTED_GINI_ORDER)

    header = f"{'seed':>6}  " + "  ".join(f"{a:>10}" for a in algos) + "  ordering"
    print(header)
    print("-" * len(header))

    rows = []
    ordered = 0
    for seed, cfg in zip(seeds, configs):
        report = run_experiment2(cfg)
        emit_outputs(report, out_root / f"seed{seed:04d}")
        gini = report.mean_gini()
        ok = all(report.ordering_satisfied())
        ordered += ok
        rows.append({"seed": seed, "gini": gini, "ordering_held": ok})
        print(f"{seed:>6}  " + "  ".join(f"{gini[a]:>10.4f}" for a in algos)
              + f"  {'yes' if ok else 'NO'}")

    print("-" * len(header))
    print(f"ordering {' < '.join(algos)} held for {ordered}/{len(seeds)} seeds")

    scan = {"seeds": seeds, "ordering_held": ordered, "rows": rows}
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "scan.json").write_text(json.dumps(scan, indent=2, sort_keys=True) + "\n")
    print(f"per-seed results in {out_root}/, digest in {out_root}/scan.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
