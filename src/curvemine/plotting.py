"""Deterministic, dependency-free SVG scatter/curve/band plots.

Output bytes depend only on the inputs: no timestamps, no random ids, fixed
float formatting. That keeps plots diff-able and reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, TextIO

import numpy as np

from .analyze import IntervalBand
from .dataset import Dataset, _by_bits, _by_code, _write_lines

__all__ = ["write_svg"]

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


def _range(cols, pad: float) -> tuple[float, float]:
    """The axis range of the columns: their least and greatest finite value
    (a single value widened by 0.5 each way), each moved out by ``pad``
    times the distance between them."""
    cols = [np.asarray(c, dtype=float) for c in cols]
    lo = min(float(np.min(c, initial=np.inf, where=np.isfinite(c))) for c in cols)
    hi = max(float(np.max(c, initial=-np.inf, where=np.isfinite(c))) for c in cols)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo - pad * (hi - lo), hi + pad * (hi - lo)


_CIRCLE = ('<circle cx="%s" cy="%.3f" r="2.5" fill="%s" fill-opacity="0.75" '
           'class="datapoint"/>\n')


def _text(x: str, y: str, size: int, text: str, anchor: str = "middle",
          extra: str = "") -> str:
    """A <text> element at the formatted coordinates x, y, with the text
    escaped and any ``extra`` attributes after its anchor."""
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}"{extra}>{_escape(text)}</text>')


def write_svg(dataset: Dataset, sink: TextIO, *,
              curve: Optional[tuple[Sequence[float], Sequence[float]]] = None,
              band: Optional[IntervalBand] = None,
              title: str = "",
              x_label: str = "age (years)",
              y_label: str = "value") -> None:
    """Write a scatter of datapoints (colored per study) with optional
    fitted curve and prediction band to sink, as a standalone SVG 1.1
    document. The markers are written a part at a time, never as one string."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")

    xs, ys = dataset.xs, dataset.ys
    x_cols, y_cols = [xs], [ys]
    if curve is not None:
        x_cols.append(curve[0])
        y_cols.append(curve[1])
    if band is not None:
        x_cols.append(band.xs)
        y_cols += [band.lower, band.upper]
    x_lo, x_hi = _range(x_cols, 0.03)
    y_lo, y_hi = _range(y_cols, 0.05)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    def points(px, py) -> str:
        """The points with a finite y, scaled, as "x,y" joined by spaces."""
        px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
        ok = np.isfinite(py)
        return " ".join(map("%.3f,%.3f".__mod__,
                            zip(sx(px[ok]).tolist(), sy(py[ok]).tolist())))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
        # the axes frame
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    tick = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#000000" stroke-width="1"/>'
    bottom = MARGIN_T + plot_h
    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts += [tick % (px, bottom, px, bottom + 5),
                  _text(_fmt(px), _fmt(bottom + 18), 11, f"{t:g}")]
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts += [tick % (MARGIN_L - 5, py, MARGIN_L, py),
                  _text(_fmt(MARGIN_L - 8), _fmt(py + 4), 11, f"{t:g}", "end")]
    mid = _fmt(MARGIN_T + plot_h / 2)
    parts += [_text(_fmt(MARGIN_L + plot_w / 2), _fmt(HEIGHT - 10), 13, x_label),
              _text("16", mid, 13, y_label, extra=f' transform="rotate(-90 16 {mid})"')]
    if title:
        parts.append(_text(_fmt(WIDTH / 2), "22", 15, title))

    if band is not None:
        poly = points(band.xs + band.xs[::-1], band.upper + band.lower[::-1])
        parts.append(f'<polygon points="{poly}" fill="#9ecae1" '
                     f'fill-opacity="0.4" stroke="none" class="band"/>')
    sink.write("\n".join(parts) + "\n")

    study_ids = sorted({s.study_id for s in dataset.studies})
    color = {sid: PALETTE[i % len(PALETTE)] for i, sid in enumerate(study_ids)}
    codes, table = dataset._study  # a label no row holds may cite no study
    fill = _by_code(codes, [color.get(sid) for sid in table])
    _write_lines(sink, _CIRCLE, len(dataset),
                 (_by_bits(xs, _fmt, sx), _by_bits(ys, scale=sy), fill))

    if curve is not None:
        sink.write(f'<polyline points="{points(*curve)}" fill="none" '
                   f'stroke="#000000" stroke-width="2" class="curve"/>\n')
    sink.write("</svg>\n")
