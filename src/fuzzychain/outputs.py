"""Result emission and the run report.

A run directory holds exactly four files — frequencies.csv,
summary.json, audit.jsonl, plots.svg — written with sorted keys and
fixed float formatting so identical runs produce identical bytes.
frequencies.csv holds the report's frequency_tables(): the header, then
each table one row per category, its cells joined by "," and every row
ended by a line end. No cell is ever quoted: labels hold no character
that CSV quotes (ExperimentConfig refuses one), and ids and lead values
never do, so these are the bytes csv.writer writes for those rows. A
table is written as runs of cells that end at its nonzero counts: the
cells of a run are joined by ",0", the line end and the table's lead
("<rep>,", "<rounds>,<rep>," or "<algo>,<rep>,"), so every zero-count
row is written by that join and only the nonzero counts are formatted.
A participant or baseline table's categories are EnrollmentIds. Where a
table's runs average _SPELL_BELOW ids or more (few wins over many ids),
the ids spell each run themselves (EnrollmentIds.joined, a hundred ids at
a time), so no per-id str is built; a denser table's ids are spelled once
per write, shared by the tables over the same ids, and joined like any
other table's cells (labels).
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .experiments import Exp2Report
from .ids import EnrollmentIds
from .svg import render_exp1_plots, render_exp2_plots

FILES = ("frequencies.csv", "summary.json", "audit.jsonl", "plots.svg")
_BLOCK = 1 << 20  # bytes read at a time when counting a file's rows
# a template run costs about 4 us, so a table whose runs average fewer ids than
# this is written faster from its ids spelled once (about 0.03 us an id)
_SPELL_BELOW = 100
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
            encode = _AUDIT_ENCODER.encode  # run by run: no list of every row is built
            for run in report.fuzzy_runs if isinstance(report, Exp2Report) else report.runs:
                fh.writelines(encode(row) + "\n" for row in run.audit_rows())

        render = render_exp2_plots if isinstance(report, Exp2Report) else render_exp1_plots
        paths["plots.svg"].write_text(render(report))
    except OSError as e:
        raise OSError(f"failed writing results under {out}: {e}") from e
    return {name: str(p) for name, p in paths.items()}


def _runs(categories, starts: list, stops: list, sep: str, spelled: dict):
    """The cells of categories[a:b] joined by sep, for each run (a, b) of
    zip(starts, stops). EnrollmentIds whose runs average _SPELL_BELOW ids or
    more spell each run when it is read (EnrollmentIds.joined); denser ones
    are spelled once into spelled, keyed by the ids, and their runs, like
    any other cells', are joined from slices into a list."""
    if isinstance(categories, EnrollmentIds):
        if len(categories) >= _SPELL_BELOW * len(stops):
            return map(categories.joined, starts, stops, repeat(sep))
        if categories not in spelled:  # one template run, split: a sixth of list()'s time
            spelled[categories] = categories.joined(0, len(categories), "\n").split("\n")
        categories = spelled[categories]
    join = sep.join
    return [join(categories[a:b]) for a, b in zip(starts, stops)]


def write_frequencies(fh, header, tables) -> None:
    """Write frequencies.csv to the open text file fh: the header, then one
    row lead + (category, count) per category of each (lead, table), each
    cell written as itself (see the module docstring). A table with no
    categories writes no row. Text goes to fh one run of rows at a time.
    """
    fh.write(",".join(header) + "\n")
    spelled = {}  # this write's dense EnrollmentIds, spelled
    for lead, table in tables:
        prefix = "".join(f"{v}," for v in lead)
        sep = ",0\n" + prefix  # ends a zero-count row and leads the next
        counts = table.counts()
        nonzero = np.flatnonzero(counts)
        stops = (nonzero + 1).tolist()  # a run ends at each nonzero count
        wins = counts[nonzero].tolist()
        if len(counts) > (stops[-1] if stops else 0):  # and the zero counts after the last
            stops.append(len(counts))
            wins.append(0)
        texts = _runs(table.categories, [0, *stops[:-1]], stops, sep, spelled)
        for text, n in zip(texts, wins):
            fh.write(f"{prefix}{text},{n}\n")


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
    """The rows after the header: a file written here holds one row per line,
    every line ended (no cell is quoted), so its line ends are counted in
    binary blocks."""
    n = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            n += block.count(b"\n")
    return max(0, n - 1)
