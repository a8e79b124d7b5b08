"""Deterministic SVG plots from CSV artifacts.

Two kinds cover the package's outputs: 'timeseries' (columns vs t) and
'histogram' (distribution of the ratio column over the numbered samples).
Only finite numbers are drawn: a column holding nan or inf is left out.
Output is a pure function of the CSV bytes: fixed 800x600 canvas, fixed
palette, no timestamps, so identical input yields byte-identical SVG.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 50
PALETTE = ("#1f6fb2", "#c23b22", "#2a9d58", "#8c5aa8", "#c98a1b", "#3b3b3b")
TICKS, BINS = 5, 20  # ticks per axis, histogram bins

KINDS = ("timeseries", "histogram")


def _read_csv(csv_path):
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{csv_path}: empty file, expected a CSV header")
    return rows[0], rows[1:]


def _require_columns(header, needed, csv_path):
    missing = [name for name in needed if name not in header]
    if missing:
        raise ValueError(
            f"{csv_path}: header {header} is missing column(s) {missing}")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]


class _Canvas:
    """Accumulates SVG elements with a fixed plot rectangle and data scales."""

    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" font-family="monospace" '
            f'font-size="16" text-anchor="middle">{title}</text>',
        ]
        self.x0, self.x1 = MARGIN_L, WIDTH - MARGIN_R
        self.y0, self.y1 = HEIGHT - MARGIN_B, MARGIN_T

    def set_scales(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi = xlo, (xhi if xhi > xlo else xlo + 1.0)
        self.ylo, self.yhi = ylo, (yhi if yhi > ylo else ylo + 1.0)

    def px(self, x: float) -> float:
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * (self.x1 - self.x0)

    def py(self, y: float) -> float:
        return self.y0 + (y - self.ylo) / (self.yhi - self.ylo) * (self.y1 - self.y0)

    def axes(self, xlabel: str, ylabel: str):
        p = self.parts
        p.append(f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x1}" '
                 f'y2="{self.y0}" stroke="black"/>')
        p.append(f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x0}" '
                 f'y2="{self.y1}" stroke="black"/>')
        for t in _ticks(self.xlo, self.xhi):
            p.append(f'<line x1="{_fmt(self.px(t))}" y1="{self.y0}" '
                     f'x2="{_fmt(self.px(t))}" y2="{self.y0 + 5}" stroke="black"/>')
            p.append(f'<text x="{_fmt(self.px(t))}" y="{self.y0 + 20}" '
                     f'font-family="monospace" font-size="11" '
                     f'text-anchor="middle">{t:.4g}</text>')
        for t in _ticks(self.ylo, self.yhi):
            p.append(f'<line x1="{self.x0 - 5}" y1="{_fmt(self.py(t))}" '
                     f'x2="{self.x0}" y2="{_fmt(self.py(t))}" stroke="black"/>')
            p.append(f'<text x="{self.x0 - 8}" y="{_fmt(self.py(t) + 4)}" '
                     f'font-family="monospace" font-size="11" '
                     f'text-anchor="end">{t:.4g}</text>')
        p.append(f'<text x="{(self.x0 + self.x1) / 2:.0f}" y="{HEIGHT - 12}" '
                 f'font-family="monospace" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
        p.append(f'<text x="16" y="{(self.y0 + self.y1) / 2:.0f}" '
                 f'font-family="monospace" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(self.y0 + self.y1) / 2:.0f})">'
                 f'{ylabel}</text>')

    def polyline(self, xs, ys, color: str):
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}"
                       for x, y in zip(xs, ys))
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="1.5"/>')

    def legend(self, labels_colors):
        y = MARGIN_T + 14
        for label, color in labels_colors:
            self.parts.append(f'<rect x="{self.x1 - 170}" y="{y - 9}" '
                              f'width="12" height="9" fill="{color}"/>')
            self.parts.append(f'<text x="{self.x1 - 152}" y="{y}" '
                              f'font-family="monospace" font-size="12">'
                              f'{label}</text>')
            y += 16

    def no_data(self):
        self.parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT / 2:.0f}" '
                          f'font-family="monospace" font-size="20" '
                          f'text-anchor="middle">no data</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _column(header, rows, name):
    i = header.index(name)
    return [float(r[i]) for r in rows]


def _timeseries(header, rows, canvas, csv_path):
    _require_columns(header, ["t"], csv_path)
    series = [name for name in header
              if name != "t" and all(_is_number(r[header.index(name)]) for r in rows)]
    if not rows or not series:
        canvas.no_data()
        return
    ts = _column(header, rows, "t")
    cols = {name: _column(header, rows, name) for name in series}
    allv = [v for col in cols.values() for v in col]
    canvas.set_scales(min(ts), max(ts), min(allv), max(allv))
    canvas.axes("t", "value")
    labels = []
    for i, name in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        canvas.polyline(ts, cols[name], color)
        labels.append((name, color))
    canvas.legend(labels)


def _is_number(text: str) -> bool:
    """True for a finite number: nan and inf have no place on a canvas."""
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _histogram(header, rows, canvas, csv_path):
    _require_columns(header, ["sample_id", "ratio"], csv_path)
    sample, ratio = header.index("sample_id"), header.index("ratio")
    # a summary row, such as verify-smoothing's max, names no sample
    vals = [float(r[ratio]) for r in rows
            if _is_number(r[sample]) and _is_number(r[ratio])]
    if not vals:
        canvas.no_data()
        return
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    counts = [0] * BINS
    for v in vals:
        counts[min(int((v - lo) / (hi - lo) * BINS), BINS - 1)] += 1
    canvas.set_scales(lo, hi, 0.0, float(max(counts)))
    canvas.axes("ratio", "count")
    width = (hi - lo) / BINS
    for i, c in enumerate(counts):
        x = canvas.px(lo + i * width)
        x2 = canvas.px(lo + (i + 1) * width)
        y = canvas.py(float(c))
        canvas.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(x2 - x)}" '
            f'height="{_fmt(canvas.py(0.0) - y)}" fill="{PALETTE[0]}" '
            f'stroke="white" stroke-width="0.5"/>')


def emit_plot(csv_path, kind: str) -> Path:
    """Render a CSV artifact to a deterministic SVG next to it."""
    if kind not in KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {KINDS}")
    csv_path = Path(csv_path)
    header, rows = _read_csv(csv_path)
    canvas = _Canvas(f"{csv_path.stem} ({kind})")
    if kind == "timeseries":
        _timeseries(header, rows, canvas, csv_path)
    else:
        _histogram(header, rows, canvas, csv_path)
    out = csv_path.with_suffix(".svg")
    out.write_text(canvas.render())
    return out
