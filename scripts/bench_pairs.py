#!/usr/bin/env python3
"""Compare two checkouts with alternating pairs of benchmark runs.

Each pair runs `bench/run.py --trace 0` once in each checkout, each with
its own copy of the benchmark, and alternates which side goes first.
For every end-to-end metric it prints each side's median and quartiles,
the number of pairs the change won, whether that is a clear gain, and a
regression verdict against the metric's bound in BENCHMARK.json. Below
that it prints each side's failed and attempted runs, summed over all
pairs, and flags (exit 1) a change that fails a larger share of its runs
than the parent.

    python3 scripts/bench_pairs.py ../parent ../change --workload exp1_paper --pairs 10

The two checkouts must sit at absolute paths of equal length: the
path's length shifts what the interpreter allocates in every run, and
that alone once moved `exp2_faults` `peak_rss_mb` from 62.4 to 69.8 MB
for the same code. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 900


def end_to_end_metrics(checkout: Path) -> list[tuple[str, str, float]]:
    """(name, "higher" or "lower", bound) of each end-to-end metric in BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def run_side(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One `bench/run.py --trace 0` in checkout: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"{checkout}: bench/run.py exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]],
              metrics: list[tuple[str, str, float]]) -> list[dict]:
    """Per metric, each side's quartiles, the pairs the change won and two verdicts.

    pairs holds (parent, change) metric values per pair, {name: value};
    metrics holds (name, "higher" or "lower", bound). A tie is no win. clear
    says whether the change won at least 9 in 10 pairs and its median beats
    the parent's by more than the parent's interquartile range. verdict
    measures regressions against the margin bound x the parent's median:
    "worse" when the change's median is worse than the parent's by more than
    the margin; "unresolved" when the parent's interquartile range exceeds
    the margin and not every run of the change beats every run of the
    parent; "ok" otherwise.
    """
    rows = []
    for name, better, bound in metrics:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = _spread(parent), _spread(change)
        margin = bound * abs(pmed)
        if sign * (pmed - cmed) > margin:
            verdict = "worse"
        elif pq3 - pq1 > margin and not all(sign * (c - p) > 0 for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": name, "better": better, "pairs": len(pairs), "wins": wins,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "clear": wins * 10 >= 9 * len(pairs) and sign * (cmed - pmed) > pq3 - pq1,
            "verdict": verdict,
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    def side(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"

    lines = [f"{'metric':<14} {'better':<7} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} won  clear  verdict"]
    for r in rows:
        lines.append(f"{r['metric']:<14} {r['better']:<7} {side(r['parent']):<30} "
                     f"{side(r['change']):<30} {r['wins']}/{r['pairs']}  "
                     f"{'yes' if r['clear'] else 'no':<5}  {r['verdict']}")
    return "\n".join(lines)


def run_counts(results: list[tuple[dict, dict]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """(attempted, failed) of the parent and of the change, summed over pairs of
    (parent, change) bench/run.py results."""
    return tuple((sum(pair[side]["attempted"] for pair in results),
                  sum(pair[side]["failed"] for pair in results)) for side in (0, 1))


def fails_more(parent: tuple[int, int], change: tuple[int, int]) -> bool:
    """Whether the change failed a larger share of its attempted runs than the parent."""
    (p_attempted, p_failed), (c_attempted, c_failed) = parent, change
    return c_failed * p_attempted > p_failed * c_attempted  # the shares, cross-multiplied


def format_failures(parent: tuple[int, int], change: tuple[int, int]) -> str:
    line = f"failed runs: parent {parent[1]}/{parent[0]}, change {change[1]}/{change[0]}"
    if fails_more(parent, change):
        line += "  FLAGGED: the change fails a larger share of runs than the parent"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout before the change")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        ap.error(f"checkout paths differ in length ({len(str(parent))} vs {len(str(change))}"
                 f" characters): {parent}, {change}")
    for checkout in (parent, change):
        if not (checkout / "bench" / "run.py").is_file():
            ap.error(f"no bench/run.py under {checkout}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = end_to_end_metrics(change)
    pairs, results = [], []
    for i in range(args.pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        out, raw = {}, {}
        for checkout in order:
            try:
                result = run_side(checkout, args.workload, args.seconds, args.seed)
            except RuntimeError as e:
                print(f"pair {i + 1}: {e}", file=sys.stderr)
                return 1
            if not result["correct"]:
                print(f"pair {i + 1}: {checkout} failed {result['failed']} of"
                      f" {result['attempted']} runs", file=sys.stderr)
            raw[checkout] = result
            out[checkout] = {name: result["metrics"][name]["value"] for name, *_ in metrics}
        pairs.append((out[parent], out[change]))
        results.append((raw[parent], raw[change]))
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} {out[parent][name]:.6g} -> {out[change][name]:.6g}" for name, *_ in metrics),
            flush=True)
    print(format_summary(summarize(pairs, metrics)))
    counts = run_counts(results)
    print(format_failures(*counts))
    return 1 if fails_more(*counts) else 0


if __name__ == "__main__":
    raise SystemExit(main())
