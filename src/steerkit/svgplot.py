"""Minimal deterministic SVG renderers for quick inspection of results.

Not publication plotting: fixed size, fixed palette, numpy and the standard
library only, and byte-stable output for identical inputs.  A renderer
returns the SVG text and opens no file; the CLI writes it.  A line chart
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
    """A chart has no finite value; it is not drawn."""


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


# A polyline coordinate as the kernel writes it: "%.6g" and its separator
# in 8 bytes, one little-endian word, NUL where a digit is absent.  The
# plot area maps every finite value into [20, 620] px, inside the kernel's
# range [10, 1000), where "%.6g" is fixed-point with 4 decimals below 100
# and 3 from 100: the integer digits at bytes 0-2, the decimals at 2-6 (or
# 3-6), the separator at 7.
# by integer part i in [10, 1000): its 2 or 3 ASCII digits
_I = np.arange(1000, dtype="<u8")
_INT = np.where(_I < 100, 48 + _I // 10 | (48 + _I % 10) << 8,
                48 + _I // 100 | (48 + _I // 10 % 10) << 8
                | (48 + _I % 10) << 16)
# by four-digit fraction f: "." and its digits, trailing zeros stripped;
# nothing for f = 0
_F = np.arange(10000, dtype="<u8")
_KEPT = np.select([_F % 10 > 0, _F % 100 > 0, _F % 1000 > 0, _F > 0],
                  [5, 4, 3, 2], 0).astype("<u8")  # bytes kept, "." included
_FRAC = (46 | (48 + _F // 1000) << 8 | (48 + _F // 100 % 10) << 16
         | (48 + _F // 10 % 10) << 24 | (48 + _F % 10) << 32) \
    & ((np.uint64(1) << 8 * _KEPT) - 1)
# the x and y separators at byte 7
_SEPS = np.array([ord(","), ord(" ")], "<u8") << 56
# below about this many points one "%" template is faster than the kernel
_KERNEL_MIN_POINTS = 50


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """``points`` of a polyline through (px[k], py[k]), each coordinate as
    ``'%.6g' % v`` writes it (which is ``_fmt``).

    A polyline of fewer than ``_KERNEL_MIN_POINTS`` points, or with a
    coordinate outside [10, 1000), is written with one ``%`` template.
    Otherwise each ``v`` is scaled to ``s = v * 10**k``, k = 4 below 100
    and 3 from 100, and ``m = rint(s)``.  As ``s < 2**20``, it is within
    1.2e-10 of the exact ``t = v * 10**k``.  When ``|s - m| < 0.5 - 1e-6``
    and ``m < 10**6``, m is t rounded to nearest, as correctly rounded
    ``%`` rounds it, and the coordinate is m's integer digits and its
    decimals with trailing zeros stripped.  Every other coordinate
    (decimal ties such as 78.59375, and values that round to a seventh
    digit, such as 99.99995) goes through ``%``.
    """
    xy = np.empty((len(px), 2))
    xy[:, 0], xy[:, 1] = px, py
    if len(px) < _KERNEL_MIN_POINTS or not (xy.min() >= 10.0
                                            and xy.max() < 1e3):
        return ("%.6g,%.6g " * len(px))[:-1] % tuple(xy.ravel().tolist())
    big = xy >= 100.0
    p = np.where(big, 1e3, 1e4)
    s = xy * p
    m = np.rint(s)
    fast = (np.abs(s - m) < 0.5 - 1e-6) & (m < 1e6)
    m = np.where(fast, m, 1e5)  # so that every cell indexes the tables
    i = np.floor(m / p)  # exact: m and p are integers below 2**20
    f = (m - i * p) * np.where(big, 10.0, 1.0)
    words = (_INT.take(i.astype(np.intp))
             | _FRAC.take(f.astype(np.intp)) << (16 + 8 * big.astype("<u8"))
             | _SEPS)
    slow = ~fast
    if slow.any():
        words.view(np.uint8).reshape(-1, 8)[slow.ravel(), :7] = np.array(
            ["%.6g" % v for v in xy[slow].tolist()],
            dtype="S7").view(np.uint8).reshape(-1, 7)
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _document(parts: list[str], sx, sy, x_ticks, y_ticks, x_label: str,
              y_label: str = "", after: list[str] | tuple = ()) -> str:
    """The text of an SVG on a white background, one element per line:
    ``parts``, the tick values below the x axis and left of the y axis, the
    axis labels that are set, then ``after``."""
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
    return "\n".join([*parts, *after, "</svg>\n"])


def _range(v: np.ndarray) -> tuple[float, float]:
    """The least and the greatest value of ``v``; of equal values (-0.0 and
    0.0) the first, as ``min`` and ``max`` take them."""
    return v[v.argmin()].item(), v[v.argmax()].item()


def line_chart(x, series: dict, *, x_label: str = "",
               hline: float | None = None, x_scale: str = "linear") -> str:
    """The SVG text of a multi-curve line chart of the arrays ``series``
    over the array ``x``; NaN and ±inf points break the polyline.

    The x axis is linear, or log10 for ``x_scale="log"`` (positive x only),
    with ticks at the ends and the middle of the axis: the mean of the ends,
    or their geometric mean on a log axis.
    """
    x = np.asarray(x, dtype=float)
    yvs = [np.asarray(ys, dtype=float) for ys in series.values()]
    all_y = np.concatenate([np.empty(0)] + [yv[np.isfinite(yv)]
                                            for yv in yvs])
    if not x.size or not all_y.size:
        raise NothingToPlot("nothing to plot")
    x_lo, x_hi = _range(x)
    y_lo, y_hi = _range(all_y)
    sx = _scale(x_lo, x_hi, _ML, _W - _MR, x_scale)
    sy = _scale(*_range(all_y if hline is None else np.append(all_y, hline)),
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
    px = sx(x)
    for k, (name, yv) in enumerate(zip(series, yvs)):
        color = _COLORS[k % len(_COLORS)]
        py = sy(yv)
        # [start, stop) of each run of finite values
        finite = np.zeros(len(yv) + 2, dtype=bool)
        finite[1:-1] = np.isfinite(yv)
        edges = np.flatnonzero(finite[1:] != finite[:-1]).tolist()
        for i, j in zip(edges[0::2], edges[1::2]):
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="'
                         f'{_points(px[i:j], py[i:j])}"/>')
        parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * k}" '
                     f'font-size="12" text-anchor="end" fill="{color}">'
                     f'{name}</text>')
    x_mid = math.sqrt(x_lo) * math.sqrt(x_hi) if x_scale == "log" \
        else 0.5 * (x_lo + x_hi)
    return _document(axes, sx, sy, (x_lo, x_mid, x_hi),
                     (y_lo, 0.5 * (y_lo + y_hi), y_hi), x_label, after=parts)


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


def heatmap(x, y, values, *, x_label: str = "", y_label: str = "",
            contour: tuple[tuple[float, float], ...] = (),
            x_scale: str = "linear", y_scale: str = "linear") -> str:
    """The SVG text of a heatmap drawn as one embedded PNG image, one pixel
    per cell, with an optional contour overlay of ``(x, y)`` points.

    ``values[i][j]`` corresponds to ``(y[i], x[j])``; ``x`` and ``y``
    ascend and are evenly spaced on their axis, linear or log10
    (``x_scale``, ``y_scale``), as a sweep's values are.  Each pixel is
    centred on its cell's position on both axes, and row 0 of the image
    holds the largest y.  The color ramp runs blue at the map's least
    finite value through green (127, 255, 127) midway to red at its
    greatest; the E = 1/2 level shows only as the contour.  Non-finite
    cells are grey.
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
    pw, ph = _W - _ML - _MR, _H - _MT - _MB  # the plot area's size
    cw = pw / max(len(xs) - 1, 1)
    ch = ph / max(len(ys) - 1, 1)

    # the blue-green-red ramp over [lo, hi], each channel written
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
    # the nested viewport clips the edge pixels' outer halves, which lie
    # outside the plot area
    parts = [f'<svg x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
             f'viewBox="{_ML} {_MT} {pw} {ph}">',
             f'<image x="{_fmt(_ML - cw / 2)}" y="{_fmt(_MT - ch / 2)}" '
             f'width="{_fmt(cw * len(xs))}" height="{_fmt(ch * len(ys))}" '
             f'preserveAspectRatio="none" image-rendering="pixelated" '
             f'href="data:image/png;base64,{png}"/>', '</svg>']
    if contour:
        cx, cy = np.array(contour, dtype=float).T
        parts.append(f'<polyline fill="none" stroke="black" '
                     f'stroke-width="1.5" points="'
                     f'{_points(sx(cx), sy(cy))}"/>')
    return _document(parts, sx, sy, (min(xs), max(xs)), (min(ys), max(ys)),
                     x_label, y_label)
