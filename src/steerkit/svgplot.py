"""Minimal deterministic SVG renderers for quick inspection of results.

Not publication plotting: fixed size, fixed palette, numpy and the standard
library only, and byte-stable output for identical inputs.  A line chart
draws each finite run of a series as one ``<polyline>``; a heatmap is one
embedded PNG image with one pixel per cell.  An axis is linear or log10, on
the scale of the sweep it shows.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# zlib level of a heatmap's PNG.  The 109 maps of a closedform-maps run at
# seed 5 hold 1.79 MB of scanlines; on a 2-core x86 machine (min of 7)
# level 1 compresses them to 0.33 MB in 21-22 ms, level 6 to 0.27 MB in
# 30-32 ms and level 9 to 0.27 MB in 42-48 ms.  Level 0 (stored) takes
# 1.6 ms but leaves fig4's 201 x 201 map at 162 KB of base64.
PNG_LEVEL = 1


class NothingToPlot(ValueError):
    """A chart has no finite value; it is not written."""


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _scale(lo: float, hi: float, a: float, b: float, scale: str = "linear"):
    """Map [lo, hi] onto [a, b], linearly or in log10 (``scale="log"``);
    the map takes floats and numpy arrays alike."""
    if scale == "log":
        linear = _scale(np.log10(lo), np.log10(hi), a, b)
        return lambda v: linear(np.log10(v))
    span = hi - lo if hi > lo else 1.0
    return lambda v: a + (v - lo) / span * (b - a)


def _points(px: list[float], py: list[float]) -> str:
    """``points`` of a polyline through (px[k], py[k]), each coordinate as
    ``_fmt`` writes it (``'%.6g' % v`` is ``f"{v:.6g}"``)."""
    xy = [0.0] * (2 * len(px))
    xy[0::2], xy[1::2] = px, py
    return ("%.6g,%.6g " * len(px))[:-1] % tuple(xy)


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
               x_label: str = "", hline: float | None = None,
               x_scale: str = "linear") -> None:
    """Write a multi-curve line chart; NaN and ±inf points break the
    polyline.

    The x axis is linear, or log10 for ``x_scale="log"`` (positive x only),
    with ticks at the ends and the middle of the axis: the mean of the ends,
    or their geometric mean on a log axis.
    """
    xs = list(x)
    yvs = [np.array(ys, dtype=float) for ys in series.values()]
    all_y = np.concatenate([np.empty(0)] + [yv[np.isfinite(yv)]
                                            for yv in yvs]).tolist()
    if not xs or not all_y:
        raise NothingToPlot("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    sx = _scale(x_lo, x_hi, _ML, _W - _MR, x_scale)
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
    px = sx(np.array(xs, dtype=float)).tolist()
    for k, (name, yv) in enumerate(zip(series, yvs)):
        color = _COLORS[k % len(_COLORS)]
        py = sy(yv).tolist()
        # [start, stop) of each run of finite values
        edges = np.flatnonzero(np.diff(np.isfinite(yv), prepend=False,
                                       append=False)).tolist()
        for i, j in zip(edges[0::2], edges[1::2]):
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="'
                         f'{_points(px[i:j], py[i:j])}"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * k}" '
                     f'font-size="12" text-anchor="end" fill="{color}">'
                     f'{name}</text>')
    x_mid = math.sqrt(x_lo) * math.sqrt(x_hi) if x_scale == "log" \
        else 0.5 * (x_lo + x_hi)
    _write(path, axes, sx, sy, (x_lo, x_mid, x_hi),
           (min(all_y), 0.5 * (min(all_y) + max(all_y)), max(all_y)), x_label,
           after=parts)


def _png(rgb: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of the ``(height, width, 3)`` uint8 array ``rgb``,
    row 0 on top, every scanline unfiltered."""
    h, w, _ = rgb.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # filter byte 0 per row
    raw[:, 1:] = rgb.reshape(h, 3 * w)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    return b"".join([
        b"\x89PNG\r\n\x1a\n",
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)),
        chunk(b"IDAT", zlib.compress(raw.tobytes(), PNG_LEVEL)),
        chunk(b"IEND", b"")])


def heatmap(x, y, values, path: str, *, x_label: str = "",
            y_label: str = "", contour: tuple[tuple[float, float], ...] = (),
            x_scale: str = "linear", y_scale: str = "linear") -> None:
    """Write a heatmap as one embedded PNG image, one pixel per cell, with
    an optional contour overlay of ``(x, y)`` points.

    ``values[i][j]`` corresponds to ``(y[i], x[j])``; ``x`` and ``y``
    ascend and are evenly spaced on their axis, linear or log10
    (``x_scale``, ``y_scale``), as a sweep's values are.  Each pixel is
    centred on its cell's position on both axes, and row 0 of the image
    holds the largest y.  The color ramp runs blue (low) to red (high)
    around white at 1/2; non-finite cells are grey.
    """
    xs, ys = list(x), list(y)
    grid = np.asarray(values, dtype=float)
    finite = np.isfinite(grid)
    if not finite.any():
        raise NothingToPlot("nothing to plot")
    lo, hi = float(grid[finite].min()), float(grid[finite].max())
    sx = _scale(min(xs), max(xs), _ML, _W - _MR, x_scale)
    sy = _scale(min(ys), max(ys), _H - _MB, _MT, y_scale)
    # pixel size: cell centres run from one end of each axis to the other
    cw = (_W - _ML - _MR) / max(len(xs) - 1, 1)
    ch = (_H - _MT - _MB) / max(len(ys) - 1, 1)

    # the blue-white-red ramp over the whole grid, each channel written
    # straight into the uint8 image, which truncates toward zero as int()
    # does; t is in [0, 1].  Non-finite cells are #cccccc.
    t = (np.where(finite, grid, lo) - lo) / (hi - lo) if hi > lo \
        else np.full(grid.shape, 0.5)
    rgb = np.empty(grid.shape + (3,), np.uint8)
    rgb[..., 0] = 255 * t
    rgb[..., 1] = 255 * (1.0 - np.abs(2.0 * t - 1.0))
    rgb[..., 2] = 255 * (1.0 - t)
    rgb[~finite] = 0xcc
    png = base64.b64encode(_png(rgb[::-1])).decode("ascii")
    parts = [f'<image x="{_fmt(_ML - cw / 2)}" y="{_fmt(_MT - ch / 2)}" '
             f'width="{_fmt(cw * len(xs))}" height="{_fmt(ch * len(ys))}" '
             f'preserveAspectRatio="none" image-rendering="pixelated" '
             f'href="data:image/png;base64,{png}"/>']
    if contour:
        cx, cy = np.array(contour, dtype=float).T
        parts.append(f'<polyline fill="none" stroke="black" '
                     f'stroke-width="1.5" points="'
                     f'{_points(sx(cx).tolist(), sy(cy).tolist())}"/>')
    _write(path, parts, sx, sy, (min(xs), max(xs)), (min(ys), max(ys)),
           x_label, y_label)
