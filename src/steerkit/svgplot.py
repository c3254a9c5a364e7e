"""Minimal deterministic SVG renderers for quick inspection of results.

Not publication plotting: fixed size, fixed palette, no dependencies, and
byte-stable output for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class NothingToPlot(ValueError):
    """A chart has no finite value; it is not written."""


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _finite(values) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def _scale(lo: float, hi: float, a: float, b: float):
    span = hi - lo if hi > lo else 1.0
    return lambda v: a + (v - lo) / span * (b - a)


def _write(path: str, parts: list[str], sx, sy, x_ticks, y_ticks,
           x_label: str, y_label: str = "", after: list[str] | tuple = (),
           ) -> None:
    """Write an SVG on a white background, one element per line: ``parts``,
    the tick values below the x axis and left of the y axis, the axis
    labels that are set, then ``after``."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>', *parts]
    parts += [f'<text x="{_fmt(sx(t))}" y="{_H - _MB + 18}" '
              f'font-size="11" text-anchor="middle">{_fmt(t)}</text>'
              for t in x_ticks]
    parts += [f'<text x="{_ML - 6}" y="{_fmt(sy(t) + 4)}" '
              f'font-size="11" text-anchor="end">{_fmt(t)}</text>'
              for t in y_ticks]
    if x_label:
        parts.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" '
                     f'font-size="12" text-anchor="middle">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{(_MT + _H - _MB) // 2}" '
                     f'font-size="12" text-anchor="middle" transform='
                     f'"rotate(-90 16 {(_MT + _H - _MB) // 2})">{y_label}</text>')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([*parts, *after, "</svg>\n"]))


def line_chart(x, series: dict[str, list[float]], path: str, *,
               x_label: str = "", hline: float | None = None) -> None:
    """Write a multi-curve line chart; NaN points break the polyline."""
    xs = list(x)
    all_y = _finite([v for ys in series.values() for v in ys])
    if not xs or not all_y:
        raise NothingToPlot("nothing to plot")
    sx = _scale(min(xs), max(xs), _ML, _W - _MR)
    sy = _scale(min(all_y + ([hline] if hline is not None else [])),
                max(all_y + ([hline] if hline is not None else [])),
                _H - _MB, _MT)
    axes = [f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
            f'y2="{_H - _MB}" stroke="black"/>',
            f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
            f'stroke="black"/>']
    parts = []
    if hline is not None:
        y = _fmt(sy(hline))
        parts.append(f'<line x1="{_ML}" y1="{y}" x2="{_W - _MR}" y2="{y}" '
                     f'stroke="#888888" stroke-dasharray="5,4"/>')
    px = [_fmt(sx(xv)) for xv in xs]
    for k, (name, ys) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        chunk: list[str] = []
        chunks: list[list[str]] = []
        for xf, yv in zip(px, ys):
            if math.isfinite(yv):
                chunk.append(f"{xf},{_fmt(sy(yv))}")
            elif chunk:
                chunks.append(chunk)
                chunk = []
        if chunk:
            chunks.append(chunk)
        for c in chunks:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{" ".join(c)}"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * k}" '
                     f'font-size="12" text-anchor="end" fill="{color}">'
                     f'{name}</text>')
    _write(path, axes, sx, sy, (min(xs), 0.5 * (min(xs) + max(xs)), max(xs)),
           (min(all_y), 0.5 * (min(all_y) + max(all_y)), max(all_y)), x_label,
           after=parts)


def heatmap(x, y, values, path: str, *, x_label: str = "",
            y_label: str = "", contour: tuple[tuple[float, float], ...] = (),
            ) -> None:
    """Write a rect-per-cell heatmap with an optional contour overlay.

    ``values[i][j]`` corresponds to ``(y[i], x[j])``; the color ramp runs
    blue (low) to red (high) around white at 1/2.
    """
    xs, ys = list(x), list(y)
    grid = np.asarray(values, dtype=float)
    finite = np.isfinite(grid)
    if not finite.any():
        raise NothingToPlot("nothing to plot")
    lo, hi = float(grid[finite].min()), float(grid[finite].max())
    sx = _scale(min(xs), max(xs), _ML, _W - _MR)
    sy = _scale(min(ys), max(ys), _H - _MB, _MT)
    cw = (_W - _ML - _MR) / max(len(xs), 1)
    ch = (_H - _MT - _MB) / max(len(ys), 1)

    # the blue-white-red ramp over the whole grid; astype truncates toward
    # zero as int() does, and t is in [0, 1].  Non-finite cells are #cccccc.
    t = (np.where(finite, grid, lo) - lo) / (hi - lo) if hi > lo \
        else np.full(grid.shape, 0.5)
    channels = np.where(finite, _HEX[np.stack([
        255 * t, 255 * (1.0 - np.abs(2.0 * t - 1.0)),
        255 * (1.0 - t)]).astype(np.int64)], "cc").tolist()

    parts = []
    size = f'" width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="#'
    heads = [f'<rect x="{_fmt(sx(xv) - cw / 2)}" y="' for xv in xs]
    for yv, reds, greens, blues in zip(ys, *channels):
        mid = f"{_fmt(sy(yv) - ch / 2)}{size}"
        parts.append("\n".join([
            f'{head}{mid}{r}{g}{b}"/>'
            for head, r, g, b in zip(heads, reds, greens, blues)]))
    if contour:
        pts = " ".join(f"{_fmt(sx(rv))},{_fmt(sy(gv))}" for rv, gv in contour)
        parts.append(f'<polyline fill="none" stroke="black" '
                     f'stroke-width="1.5" points="{pts}"/>')
    _write(path, parts, sx, sy, (min(xs), max(xs)), (min(ys), max(ys)),
           x_label, y_label)
