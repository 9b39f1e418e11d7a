#!/usr/bin/env python3
"""Peak memory of one large run and of writing its result files.

Runs exp1's label shares times SCALE (990 x SCALE validators), per
participant, 100 rounds x 2 repetitions, seed 42, then writes the four
result files to a temporary directory. Prints the peak RSS before the
run, after it and after emission, and exits 1 when the run raised the
peak by more than RUN_MB, or emission raised it by more than EMIT_MB
over the run's.

    python3 scripts/memory_check.py 500 60

The peak (ru_maxrss) is the whole process's, so give each scale its own
process.
"""

import argparse
import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fuzzychain.config import config_from_dict
from fuzzychain.experiments import run_configured
from fuzzychain.outputs import emit_outputs

SHARES = {"VL": 500, "L": 300, "M": 150, "H": 30, "VH": 10}  # exp1's census
EMIT_MB = 5.0


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", type=int, help="multiple of exp1's label shares")
    parser.add_argument("run_mb", type=float, help="bound on the run's rise in peak RSS, MB")
    args = parser.parse_args(argv)
    cfg = config_from_dict({
        "experiment": "custom", "seed": 42, "granularity": "per-participant",
        "population_per_label": {k: v * args.scale for k, v in SHARES.items()},
        "rounds": [100], "repetitions": 2})
    start_mb = peak_mb()
    report = run_configured(cfg)
    run_mb = peak_mb()
    with tempfile.TemporaryDirectory() as out:
        emit_outputs(report, out)
    emit_mb = peak_mb()
    print(f"{990 * args.scale:,} validators, peak RSS: {start_mb:.1f} MB before the run,"
          f" {run_mb:.1f} MB after it (+{run_mb - start_mb:.1f}, bound {args.run_mb:g}),"
          f" {emit_mb:.1f} MB after emission (+{emit_mb - run_mb:.1f}, bound {EMIT_MB:g})")
    return int(run_mb - start_mb > args.run_mb or emit_mb - run_mb > EMIT_MB)


if __name__ == "__main__":
    sys.exit(main())
