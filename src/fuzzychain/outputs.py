"""Result emission and the run report.

A run directory holds exactly four files — frequencies.csv,
summary.json, audit.jsonl, plots.svg — written with sorted keys and
fixed float formatting so identical runs produce identical bytes.
frequencies.csv holds the report's frequency_tables(): csv.writer
writes the header, then each table one row per category, the bytes
csv.writer writes for those rows. A table is written as runs of cells
that end at its nonzero counts: the cells of a run are joined by ",0",
the line end and the table's lead ("<rep>,", "<rounds>,<rep>," or
"<algo>,<rep>,"), so every zero-count row is written by that join and
only the nonzero counts are formatted. A participant table's categories
are its registry's EnrollmentIds, which spell each run of ids themselves
(EnrollmentIds.joined, a hundred ids at a time) and never need quoting,
so no per-id str is built. Any other table's cells (labels, baseline
ids) are built for each table, quoted exactly as csv.writer quotes them.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .experiments import Exp2Report
from .ids import EnrollmentIds
from .svg import render_exp1_plots, render_exp2_plots

FILES = ("frequencies.csv", "summary.json", "audit.jsonl", "plots.svg")
_BLOCK = 1 << 20  # bytes read at a time when counting a file's rows
# json.dumps(row, sort_keys=True) makes this encoder anew for each row; one serves them all
_AUDIT_ENCODER = json.JSONEncoder(sort_keys=True)


def emit_outputs(report, out_dir) -> dict:
    """Write the four-file result set; returns {name: path}.

    Raises on an empty report — silently writing headers with no rows
    has burned too many downstream joins to be worth allowing.
    """
    header, tables = report.frequency_tables()
    if not tables:
        raise ValueError("nothing to emit: report contains no repetitions")
    out = Path(out_dir)
    paths = {name: out / name for name in FILES}
    try:
        out.mkdir(parents=True, exist_ok=True)
        # opened as Path.write_text opens, so the bytes match a whole-string write
        with open(paths["frequencies.csv"], "w") as fh:
            write_frequencies(fh, header, tables)

        paths["summary.json"].write_text(
            json.dumps(report.summary_dict(), indent=2, sort_keys=True) + "\n"
        )

        with open(paths["audit.jsonl"], "w") as fh:
            encode = _AUDIT_ENCODER.encode
            fh.writelines(encode(row) + "\n" for row in report.audit_rows())

        render = render_exp2_plots if isinstance(report, Exp2Report) else render_exp1_plots
        paths["plots.svg"].write_text(render(report))
    except OSError as e:
        raise OSError(f"failed writing results under {out}: {e}") from e
    return {name: str(p) for name, p in paths.items()}


def _cells(categories) -> list[str]:
    """Each category's cell, quoted as csv.writer quotes it."""
    cells = [str(c) for c in categories]
    joined = "".join(cells)
    # a cell holding none of these is written unquoted by csv.writer
    if not any(ch in joined for ch in ',"\r\n'):
        return cells
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted = []
    for c in cells:
        buf.seek(0)
        buf.truncate()
        writer.writerow((c, 0))
        quoted.append(buf.getvalue()[:-3])  # the row less its ",0\n"
    return quoted


def _runs_of(categories):
    """The function (start, stop, sep) giving the cells of
    categories[start:stop] joined by sep."""
    if isinstance(categories, EnrollmentIds):
        return categories.joined
    cells = _cells(categories)
    return lambda start, stop, sep: sep.join(cells[start:stop])


def write_frequencies(fh, header, tables) -> None:
    """Write frequencies.csv to the open text file fh: the header, then one
    row lead + (category, count) per category of each (lead, table), the
    bytes csv.writer writes for those rows. A table with no categories
    writes no row.

    Lead values (repetitions, round counts, algorithm names) never need
    quoting. Text goes to fh one run of rows at a time.
    """
    csv.writer(fh, lineterminator="\n").writerow(header)
    for lead, table in tables:
        joined = _runs_of(table.categories)
        prefix = "".join(f"{v}," for v in lead)
        sep = ",0\n" + prefix  # ends a zero-count row and leads the next
        counts = table.counts()
        nonzero = np.flatnonzero(counts)
        start = 0
        for i, n in zip(nonzero.tolist(), counts[nonzero].tolist()):
            fh.write(f"{prefix}{joined(start, i + 1, sep)},{n}\n")
            start = i + 1
        if start < len(counts):
            fh.write(f"{prefix}{joined(start, len(counts), sep)},0\n")


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
        lines.append("")
        lines.append(f"frequencies.csv: {_count_rows(run / 'frequencies.csv')} rows")
    return "\n".join(lines) + "\n"


def _count_rows(path) -> int:
    """The non-empty records after the header, as csv.reader counts them.

    A file written here holds one record per line (labels are printable and
    ids are never quoted), so its line ends are counted in binary blocks. A
    file holding a quote or a CR, where a record may span lines, or an empty
    line, which is no record, is read through csv.reader instead.
    """
    n, last = 0, b"\n"
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            blank = b"\n\n" in block or last + block[:1] == b"\n\n"
            if blank or b'"' in block or b"\r" in block:
                break
            n += block.count(b"\n")
            last = block[-1:]
        else:
            return max(0, n + (last != b"\n") - 1)  # an unended last line is a record too
    with open(path, newline="") as fh:
        records = csv.reader(fh)
        next(records, None)  # header
        return sum(1 for row in records if row)
