"""Command-line entry point.

    fuzzychain run exp1 --seed 42 --rounds 100,300 --reps 20 --out runs/exp1
    fuzzychain run exp2 --seed 7 --out runs/exp2
    fuzzychain run custom --config my.json --out runs/custom
    fuzzychain report runs/exp1

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import run_configured
from .outputs import emit_outputs, format_report


def _parse_rounds(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError([f"--rounds: expected comma-separated integers, got {text!r}"])
    if not values:
        raise ConfigError([f"--rounds: no round counts in {text!r}"])
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzychain",
        description="Seeded consensus-fairness simulations with PoW/PoS/DPoS baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment and write its result files")
    run.add_argument("experiment", choices=["exp1", "exp2", "custom"])
    run.add_argument("--config", help="JSON config file (required for custom)")
    run.add_argument("--seed", type=int, help="master seed (default 42)")
    run.add_argument("--rounds", help="comma-separated round counts, e.g. 100,300,500")
    run.add_argument("--reps", type=int, help="repetitions per round count")
    run.add_argument("--out", help="output directory (default runs/<experiment>)")
    run.add_argument("--granularity", choices=["per-label", "per-participant"],
                     help="frequency key for the fuzzy algorithm's metrics")
    run.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility and ignored: repetitions "
                          "always run serially (must be at least 1)")

    rep = sub.add_parser("report", help="print a digest of a finished run directory")
    rep.add_argument("run_dir")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.experiment == "custom":
        if not args.config:
            raise ConfigError(["custom runs need --config <path>"])
        cfg = load_config(args.config)
    elif args.config:
        cfg = load_config(args.config)
        cfg = replace(cfg, experiment=args.experiment)
    else:
        cfg = ExperimentConfig(experiment=args.experiment)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.rounds is not None:
        overrides["rounds"] = _parse_rounds(args.rounds)
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.granularity is not None:
        overrides["granularity"] = args.granularity
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            sys.stdout.write(format_report(args.run_dir))
            return 0
        cfg = _resolve_config(args)
        if args.workers < 1:
            raise ConfigError(["--workers: must be at least 1"])
        report = run_configured(cfg)
        out_dir = args.out or f"runs/{cfg.experiment}"
        paths = emit_outputs(report, out_dir)
        sys.stdout.write(f"wrote {len(paths)} files to {out_dir}\n")
        sys.stdout.write(format_report(out_dir))
        return 0
    except ConfigError as e:
        print(f"config error: {'; '.join(e.errors)}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
