"""Static SVG figures for run reports.

Three stacked panels, assembled as plain strings: category bars, a
series overlay, and boxplots. Deliberately dependency-free — the files
must render anywhere and diff deterministically, so no plotting
library, no timestamps, no randomness.

A box's quartiles come from box_stats, which sorts the sample and
interpolates in plain Python floats step for step as np.percentile's
default linear method does. np.percentile itself is not called: its
first call in a process imports numpy.ma, about 15 ms.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

PANEL_W = 720
PANEL_H = 250
MARGIN_L = 60
MARGIN_R = 20
MARGIN_TOP = 38
MARGIN_BOT = 34

PALETTE = ["#4472c4", "#ed7d31", "#70ad47", "#ffc000", "#9e480e",
           "#5b9bd5", "#264478", "#a5a5a5"]


def _nice_max(value: float) -> float:
    if value <= 0:
        return 1.0
    exp = np.floor(np.log10(value))
    frac = value / 10**exp
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if frac <= step:
            return float(step * 10**exp)
    return float(10 ** (exp + 1))


def _panel(y_offset, peak, title):
    """Geometry, y scale and axis (frame, title, y gridlines with tick
    labels) of one stacked panel whose largest value is peak.

    Returns (x0, y0, w, h, ymax, parts).
    """
    x0, y0 = MARGIN_L, y_offset + MARGIN_TOP
    w, h = PANEL_W - MARGIN_L - MARGIN_R, PANEL_H - MARGIN_TOP - MARGIN_BOT
    ymax = _nice_max(peak)
    parts = [
        f'<text x="{x0}" y="{y0 - 18}" font-size="14" font-weight="bold" '
        f'fill="#333">{escape(title)}</text>',
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" '
        f'stroke="#999" stroke-width="1"/>',
    ]
    for i in range(5):
        frac = i / 4
        y = y0 + h - frac * h
        val = frac * ymax
        label = f"{val:g}" if ymax >= 10 else f"{val:.2f}"
        parts.append(
            f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + w}" y2="{y:.1f}" '
            f'stroke="#e0e0e0" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 4:.1f}" font-size="10" fill="#555" '
            f'text-anchor="end">{label}</text>'
        )
    return x0, y0, w, h, ymax, parts


def bar_panel(labels, values, title, y_offset=0, color=PALETTE[0]):
    x0, y0, w, h, ymax, parts = _panel(y_offset, max(values) if len(values) else 1.0, title)
    n = max(len(labels), 1)
    slot = w / n
    bw = slot * 0.6
    for i, (lab, val) in enumerate(zip(labels, values)):
        bx = x0 + i * slot + (slot - bw) / 2
        bh = 0.0 if ymax == 0 else (val / ymax) * h
        parts.append(
            f'<rect x="{bx:.1f}" y="{y0 + h - bh:.1f}" width="{bw:.1f}" '
            f'height="{bh:.1f}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{bx + bw / 2:.1f}" y="{y0 + h - bh - 4:.1f}" font-size="10" '
            f'fill="#333" text-anchor="middle">{val:g}</text>'
        )
        parts.append(
            f'<text x="{x0 + i * slot + slot / 2:.1f}" y="{y0 + h + 14}" '
            f'font-size="11" fill="#333" text-anchor="middle">{escape(str(lab))}</text>'
        )
    return parts


def overlay_panel(xs, series: dict, title, y_offset=0, x_label=""):
    """One polyline per named series over shared x values."""
    flat = [v for vals in series.values() for v in vals]
    x0, y0, w, h, ymax, parts = _panel(y_offset, max(flat) if flat else 1.0, title)
    xs = list(xs)
    if len(xs) == 1:
        px = [x0 + w / 2]
    else:
        span = max(xs) - min(xs)
        px = [x0 + (x - min(xs)) / span * w for x in xs]
    for x, pxx in zip(xs, px):
        parts.append(
            f'<text x="{pxx:.1f}" y="{y0 + h + 14}" font-size="10" fill="#333" '
            f'text-anchor="middle">{x:g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{x0 + w / 2:.1f}" y="{y0 + h + 28}" font-size="11" '
            f'fill="#555" text-anchor="middle">{escape(x_label)}</text>'
        )
    for k, (name, vals) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(
            f"{pxx:.1f},{y0 + h - (v / ymax) * h:.1f}" for pxx, v in zip(px, vals)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for pxx, v in zip(px, vals):
            parts.append(
                f'<circle cx="{pxx:.1f}" cy="{y0 + h - (v / ymax) * h:.1f}" r="3" '
                f'fill="{color}"/>'
            )
        lx = x0 + w - 110
        ly = y0 + 14 + k * 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="10" fill="#333">{escape(str(name))}</text>'
        )
    return parts


def box_stats(sample):
    """(min, q1, median, q3, max) of a non-empty sample as Python floats.

    The quartiles are np.percentile(sample, 25/50/75) bit for bit, NaN for
    NaN, except that a zero's sign may differ where the sample holds both
    -0.0 and 0.0 (np.sort and numpy's partition may order them apart).
    min and max come from the array, so they keep numpy's sign of zero.
    """
    arr = np.asarray(sample, dtype=float)
    xs = np.sort(arr).tolist()
    if xs[-1] != xs[-1]:  # NaN sorts last; numpy's five values are then NaN
        return (xs[-1],) * 5
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        if len(xs) == 1:  # numpy interpolates the one value with itself, at weight 1
            a = b = xs[0]
            t = 1.0
        else:
            index = (len(xs) - 1) * q
            i = int(index)
            a, b, t = xs[i], xs[i + 1], index - i
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return (float(arr.min()), *quartiles, float(arr.max()))


def box_panel(labels, samples, title, y_offset=0):
    """Min/Q1/median/Q3/max boxes, one per category."""
    flat = [v for s in samples for v in s]
    x0, y0, w, h, ymax, parts = _panel(y_offset, max(flat) if flat else 1.0, title)
    n = max(len(labels), 1)
    slot = w / n
    bw = slot * 0.4

    def sy(v):
        return y0 + h - (v / ymax) * h

    for i, (lab, sample) in enumerate(zip(labels, samples)):
        lo, q1, med, q3, hi = box_stats(sample)
        cx = x0 + i * slot + slot / 2
        color = PALETTE[i % len(PALETTE)]
        parts.extend([
            f'<line x1="{cx:.1f}" y1="{sy(lo):.1f}" x2="{cx:.1f}" y2="{sy(q1):.1f}" '
            f'stroke="#555" stroke-width="1"/>',
            f'<line x1="{cx:.1f}" y1="{sy(q3):.1f}" x2="{cx:.1f}" y2="{sy(hi):.1f}" '
            f'stroke="#555" stroke-width="1"/>',
            f'<line x1="{cx - bw / 4:.1f}" y1="{sy(lo):.1f}" x2="{cx + bw / 4:.1f}" '
            f'y2="{sy(lo):.1f}" stroke="#555" stroke-width="1"/>',
            f'<line x1="{cx - bw / 4:.1f}" y1="{sy(hi):.1f}" x2="{cx + bw / 4:.1f}" '
            f'y2="{sy(hi):.1f}" stroke="#555" stroke-width="1"/>',
            f'<rect x="{cx - bw / 2:.1f}" y="{sy(q3):.1f}" width="{bw:.1f}" '
            f'height="{max(sy(q1) - sy(q3), 0.5):.1f}" fill="{color}" '
            f'fill-opacity="0.55" stroke="#333" stroke-width="1"/>',
            f'<line x1="{cx - bw / 2:.1f}" y1="{sy(med):.1f}" x2="{cx + bw / 2:.1f}" '
            f'y2="{sy(med):.1f}" stroke="#111" stroke-width="1.5"/>',
            f'<text x="{cx:.1f}" y="{y0 + h + 14}" font-size="11" fill="#333" '
            f'text-anchor="middle">{escape(str(lab))}</text>',
        ])
    return parts


def svg_document(panel_parts: list[list[str]]) -> str:
    height = PANEL_H * len(panel_parts) + 10
    body = "\n".join(part for panel in panel_parts for part in panel)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" '
        f'height="{height}" viewBox="0 0 {PANEL_W} {height}" '
        f'font-family="Helvetica, Arial, sans-serif">\n'
        f'<rect width="{PANEL_W}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_exp1_plots(report) -> str:
    cfg = report.config
    labels = list(cfg.labels)
    first_rv, last_rv = cfg.rounds[0], cfg.rounds[-1]
    counts = {rv: report.label_counts(rv) for rv in cfg.rounds}
    means = {rv: c.mean(axis=0) for rv, c in counts.items()}

    panel1 = bar_panel(labels, [round(float(v), 2) for v in means[first_rv]],
                       f"Mean winner count per label ({first_rv} rounds)")
    series = {lab: [float(means[rv][i]) for rv in cfg.rounds] for i, lab in enumerate(labels)}
    panel2 = overlay_panel(list(cfg.rounds), series,
                           "Mean winner count per label across round sweeps",
                           y_offset=PANEL_H, x_label="rounds")
    panel3 = box_panel(labels, counts[last_rv].T,
                       f"Winner counts per label over repetitions ({last_rv} rounds)",
                       y_offset=2 * PANEL_H)
    return svg_document([panel1, panel2, panel3])


def render_exp2_plots(report) -> str:
    g = report.gini_by_algo()
    mean_gini = report.mean_gini()
    algos = list(g.keys())
    panel1 = bar_panel(algos, [round(mean_gini[a], 4) for a in algos],
                       "Mean Gini of winner frequencies by algorithm", color=PALETTE[1])
    reps = list(range(len(next(iter(g.values())))))
    panel2 = overlay_panel(reps, {a: g[a] for a in algos},
                           "Per-repetition Gini by algorithm",
                           y_offset=PANEL_H, x_label="repetition")
    panel3 = box_panel(algos, [g[a] for a in algos],
                       "Gini distribution over repetitions", y_offset=2 * PANEL_H)
    return svg_document([panel1, panel2, panel3])
