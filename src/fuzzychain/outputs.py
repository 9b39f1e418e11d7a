"""Result emission and re-ingestion.

A run directory holds exactly four files — frequencies.csv,
summary.json, audit.jsonl, plots.svg — written with sorted keys and
fixed float formatting so identical runs produce identical bytes.
frequencies.csv re-ingests losslessly back into count tables.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .experiments import Exp2Report
from .svg import render_exp1_plots, render_exp2_plots

FILES = ("frequencies.csv", "summary.json", "audit.jsonl", "plots.svg")


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def emit_outputs(report, out_dir) -> dict:
    """Write the four-file result set; returns {name: path}.

    Raises on an empty report — silently writing headers with no rows
    has burned too many downstream joins to be worth allowing.
    """
    rows = report.frequency_rows()
    if not rows:
        raise ValueError("nothing to emit: report contains no repetitions")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {}

        paths["frequencies.csv"] = out / "frequencies.csv"
        paths["frequencies.csv"].write_text(_csv_text(rows))

        paths["summary.json"] = out / "summary.json"
        paths["summary.json"].write_text(
            json.dumps(report.summary_dict(), indent=2, sort_keys=True) + "\n"
        )

        paths["audit.jsonl"] = out / "audit.jsonl"
        audit = report.audit_rows()
        paths["audit.jsonl"].write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in audit)
        )

        render = render_exp2_plots if isinstance(report, Exp2Report) else render_exp1_plots
        paths["plots.svg"] = out / "plots.svg"
        paths["plots.svg"].write_text(render(report))
    except OSError as e:
        raise OSError(f"failed writing results under {out}: {e}") from e
    return {name: str(p) for name, p in paths.items()}


def load_frequencies(csv_path) -> list[dict]:
    """Rows back out of frequencies.csv, counts as ints."""
    with open(csv_path, newline="") as fh:
        rows = []
        for row in csv.DictReader(fh):
            row["count"] = int(row["count"])
            if "repetition" in row:
                row["repetition"] = int(row["repetition"])
            if "rounds" in row:
                row["rounds"] = int(row["rounds"])
            rows.append(row)
        return rows


def tables_from_rows(rows: list[dict]) -> dict:
    """Rebuild {(series, rounds, repetition): {key: count}} from CSV rows.

    Series is the algorithm column when present (comparison runs),
    otherwise "fuzzychain"; rounds is None when the file has no sweep
    column.
    """
    key_col = next(c for c in ("label", "participant", "key") if c in rows[0])
    tables: dict = {}
    for row in rows:
        series = row.get("algorithm", "fuzzychain")
        ident = (series, row.get("rounds"), row["repetition"])
        tables.setdefault(ident, {})[row[key_col]] = row["count"]
    return tables


def format_report(run_dir) -> str:
    """Human-readable digest of a run directory for the report command."""
    run = Path(run_dir)
    summary_path = run / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"no summary.json under {run}")
    summary = json.loads(summary_path.read_text())
    lines = [f"experiment: {summary['experiment']}  (seed {summary['config']['seed']})",
             f"trusted sets required: {summary['trusted_sets_required']}"]

    if summary["experiment"] == "exp2":
        lines.append("")
        lines.append(f"{'algorithm':<12} {'mean gini':>10}")
        for algo, val in summary["mean_gini"].items():
            lines.append(f"{algo:<12} {val:>10.4f}")
        ordering = summary["ordering"]
        lines.append("")
        lines.append(
            "gini ordering "
            + " < ".join(ordering["expected"])
            + f": {ordering['satisfied_count']}/{ordering['repetitions']} repetitions"
        )
    else:
        label_order = [str(lab) for lab in summary["config"]["labels"]]
        for rv, block in summary["results"].items():
            lines.append("")
            lines.append(f"rounds = {rv}")
            lines.append(f"  {'label':<8} {'mean':>8} {'std':>8} {'min':>6} {'max':>6}")
            aggs = block["aggregates"]
            ordered = [lab for lab in label_order if lab in aggs]
            ordered += [lab for lab in aggs if lab not in set(ordered)]
            for label in ordered:
                agg = aggs[label]
                lines.append(
                    f"  {label:<8} {agg['mean']:>8.2f} {agg['std']:>8.2f} "
                    f"{agg['min']:>6.0f} {agg['max']:>6.0f}"
                )
            pooled = block["metrics"]["pooled"]
            parts = []
            for name in ("gini", "skewness", "kurtosis"):
                v = pooled.get(name)
                parts.append(f"{name}={v:.4f}" if v is not None else f"{name}=n/a")
            lines.append(f"  pooled ({block['metrics']['granularity']}): " + "  ".join(parts))
    if (run / "frequencies.csv").exists():
        n = len(load_frequencies(run / "frequencies.csv"))
        lines.append("")
        lines.append(f"frequencies.csv: {n} rows")
    return "\n".join(lines) + "\n"
