"""Minimal deterministic SVG line charts.

Charts are returned as SVG text, derived purely from already-exported
data; they contain no timestamps or generated ids, so the same inputs
give byte-identical text.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_COLORS = ("#1f6fb2", "#d1495b", "#3a9d5d", "#8a6fb8", "#c98a2b", "#4f4f4f")

_WIDTH, _HEIGHT = 720, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """n evenly spaced ticks on [lo, hi]; line_chart passes hi > lo."""
    return [float(v) for v in np.linspace(lo, hi, n)]


def line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
               title: str, x_label: str, y_label: str,
               y_pad_frac: float = 0.05) -> str:
    """SVG text of a polyline chart; one (label, xs, ys) tuple per series."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = (y_hi - y_lo) * y_pad_frac or max(abs(y_hi), 1.0) * 1e-3
    y_lo, y_hi = y_lo - pad, y_hi + pad

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{_MARGIN_T + inner_h}" x2="{px(tx):.2f}" '
            f'y2="{_MARGIN_T + inner_h + 5}" stroke="#888"/>'
            f'<text x="{px(tx):.2f}" y="{_MARGIN_T + inner_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(ty):.2f}" x2="{_MARGIN_L}" '
            f'y2="{py(ty):.2f}" stroke="#888"/>'
            f'<text x="{_MARGIN_L - 8}" y="{py(ty):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="10">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + inner_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
        f'<text x="18" y="{_MARGIN_T + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_T + inner_h / 2:.1f})">{y_label}</text>'
    )
    for i, (label, sx, sy) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}"
            for x, y in zip(np.asarray(sx, float), np.asarray(sy, float))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{_MARGIN_L + inner_w - 120}" y1="{ly}" x2="{_MARGIN_L + inner_w - 100}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{_MARGIN_L + inner_w - 94}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_chart(series: Sequence[tuple[str, Sequence[float], Sequence[int]]],
                    title: str, x_label: str) -> str:
    """Step-outline histograms; series entries are (label, bin_edges, counts)."""
    line_series = []
    for label, edges, counts in series:
        e = np.asarray(edges, dtype=float)
        c = np.asarray(counts, dtype=float)
        xs = np.repeat(e, 2)[1:-1]
        ys = np.repeat(c, 2)
        line_series.append((label, xs, ys))
    return line_chart(line_series, title, x_label, "count", y_pad_frac=0.02)
