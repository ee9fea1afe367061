"""Deterministic, dependency-free SVG scatter/curve/band plots.

Output bytes depend only on the inputs: no timestamps, no random ids, fixed
float formatting. That keeps plots diff-able and reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .analyze import IntervalBand
from .dataset import Dataset

__all__ = ["render_svg"]

WIDTH, HEIGHT = 800.0, 500.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 24.0, 36.0, 48.0

# Fixed palette, assigned to studies in sorted order.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _escape(text: str) -> str:
    """Text content safe to place between XML tags."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def render_svg(dataset: Dataset,
               curve: Optional[tuple[Sequence[float], Sequence[float]]] = None,
               band: Optional[IntervalBand] = None,
               title: str = "",
               x_label: str = "age (years)",
               y_label: str = "value") -> str:
    """Render a scatter of datapoints (colored per study) with optional
    fitted curve and prediction band. Returns a standalone SVG 1.1 document."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")

    xs_all = dataset.xs.tolist()
    ys_all = dataset.ys.tolist()
    if curve is not None:
        xs_all += list(curve[0])
        ys_all += [y for y in curve[1] if math.isfinite(y)]
    if band is not None:
        xs_all += list(band.xs)
        ys_all += [y for y in band.lower if math.isfinite(y)]
        ys_all += [y for y in band.upper if math.isfinite(y)]

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.03 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]

    # axes frame
    parts.append(
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>')

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(MARGIN_T + plot_h)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(MARGIN_T + plot_h + 5)}" '
                     f'stroke="#000000" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(MARGIN_T + plot_h + 18)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" '
                     f'stroke="#000000" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 4)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{t:g}</text>')

    parts.append(f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" '
                 f'y="{_fmt(HEIGHT - 10)}" font-family="sans-serif" '
                 f'font-size="13" text-anchor="middle">{_escape(x_label)}</text>')
    parts.append(f'<text x="16" y="{_fmt(MARGIN_T + plot_h / 2)}" '
                 f'font-family="sans-serif" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_fmt(MARGIN_T + plot_h / 2)})">'
                 f'{_escape(y_label)}</text>')
    if title:
        parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="22" '
                     f'font-family="sans-serif" font-size="15" '
                     f'text-anchor="middle">{_escape(title)}</text>')

    if band is not None:
        pts = [(band.xs[i], band.upper[i]) for i in range(len(band.xs))]
        pts += [(band.xs[i], band.lower[i])
                for i in range(len(band.xs) - 1, -1, -1)]
        poly = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts
                        if math.isfinite(y))
        parts.append(f'<polygon points="{poly}" fill="#9ecae1" '
                     f'fill-opacity="0.4" stroke="none" class="band"/>')

    study_ids = sorted({s.study_id for s in dataset.studies})
    colors = {sid: PALETTE[i % len(PALETTE)] for i, sid in enumerate(study_ids)}
    # A fill per study code; a subset's label table may hold unused studies.
    codes, table = dataset._study
    fill = [colors.get(sid) for sid in table]
    for px, py, c in zip(sx(dataset.xs).tolist(), sy(dataset.ys).tolist(),
                         codes.tolist()):
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                     f'r="2.5" fill="{fill[c]}" fill-opacity="0.75" '
                     f'class="datapoint"/>')

    if curve is not None:
        cx, cy = curve
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}"
                       for x, y in zip(cx, cy) if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#000000" '
                     f'stroke-width="2" class="curve"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
