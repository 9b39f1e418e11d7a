"""Command-line entry point.

    fuzzychain run exp1 --seed 42 --rounds 100,300 --reps 20 --out runs/exp1
    fuzzychain run exp2 --seed 7 --out runs/exp2
    fuzzychain run custom --config my.json --out runs/custom
    fuzzychain report runs/exp1

The positional experiment replaces a --config file's "experiment" key.
exp2 runs fuzzychain_rounds rounds, so it refuses --rounds and a config
file's rounds other than the default.

Exit codes: 0 success, 1 configuration or usage error (an unknown flag, a
bad choice), 2 runtime error; --help exits 0.
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError (exit 1), not exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError([f"{self.prog}: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    rep = sub.add_parser("report", help="print a digest of a finished run directory")
    rep.add_argument("run_dir")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config:
        cfg = replace(load_config(args.config), experiment=args.experiment)
    elif args.experiment == "custom":
        raise ConfigError(["custom runs need --config <path>"])
    else:
        cfg = ExperimentConfig(experiment=args.experiment)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.rounds is not None:
        if args.experiment == "exp2":  # exp2 runs fuzzychain_rounds; rounds would be echoed unused
            raise ConfigError(["--rounds: exp2 runs fuzzychain_rounds rounds; set that key"
                               " in a --config file instead"])
        overrides["rounds"] = _parse_rounds(args.rounds)
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.granularity is not None:
        overrides["granularity"] = args.granularity
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "report":
            sys.stdout.write(format_report(args.run_dir))
            return 0
        cfg = _resolve_config(args)
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
