"""Dependency-free SVG line plots.

The gain-curve figures need nothing beyond polylines, a log x axis, a few
horizontal reference lines and a legend, so the markup is written directly
rather than pulling in a plotting stack.  Output is a pure function of the
inputs; identical calls produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "HLine", "render_line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

# plot-box margins, px
_ML, _MR, _MT, _MB = 64, 18, 40, 48


@dataclass(frozen=True)
class Series:
    """One labeled curve.  Non-finite samples break the polyline."""

    label: str
    x: tuple
    y: tuple
    color: str | None = None
    dash: str | None = None  # SVG dasharray, e.g. "6 3"
    width: float = 1.6


@dataclass(frozen=True)
class HLine:
    """Horizontal reference line with an optional label."""

    y: float
    label: str = ""
    color: str = "#666666"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _nice_step(span: float, target: int = 6) -> float:
    # 1-2-5 ladder
    if span <= 0:
        return 1.0
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if m * mag >= raw:
            return m * mag
    return 10.0 * mag


def _lin_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _log_ticks(lo: float, hi: float) -> tuple[list[float], list[float]]:
    """(major decade ticks, unlabeled minor ticks) within [lo, hi]."""
    major, minor = [], []
    k0 = math.floor(math.log10(lo) - 1e-9)
    k1 = math.ceil(math.log10(hi) + 1e-9)
    for k in range(k0, k1 + 1):
        d = 10.0 ** k
        if lo * (1 - 1e-9) <= d <= hi * (1 + 1e-9):
            major.append(d)
        for m in range(2, 10):
            v = m * d
            if lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9):
                minor.append(v)
    return major, minor


def _finite_runs(xs, ys):
    """Split a sampled curve at non-finite values into runs of finite
    samples, yielding each run as an (xs, ys) pair of float lists."""
    rx, ry = [], []
    isfinite = math.isfinite
    for x, y in zip(map(float, xs), map(float, ys)):
        if isfinite(x) and isfinite(y):
            rx.append(x)
            ry.append(y)
        elif rx:
            yield rx, ry
            rx, ry = [], []
    if rx:
        yield rx, ry


def render_line_plot(path, series, *, title: str = "", xlabel: str = "",
                     ylabel: str = "", logx: bool = False, hlines=(),
                     xlim: tuple[float, float] | None = None,
                     ylim: tuple[float, float] | None = None,
                     width: int = 880, height: int = 540) -> None:
    """Write a line plot of ``series`` (iterable of :class:`Series`) to ``path``.

    Each finite run of a series becomes one polyline.  Its points are
    written by one ``%`` format on a template that holds the run's x
    pixels; series sampled on the same x run share that template, so each
    x is placed and formatted once.  Limits left as None span the finite
    samples (and, for y, the reference lines) with a 5 % y margin.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one series")

    if xlim is None:
        xs = [v for s in series for v in map(float, s.x) if math.isfinite(v)]
        if not xs:
            raise ValueError("no finite x samples")
        xlim = (min(xs), max(xs))
    if ylim is None:
        ys = [v for s in series for v in map(float, s.y) if math.isfinite(v)]
        ys += [h.y for h in hlines]
        if not ys:
            raise ValueError("no finite y samples")
        pad = 0.05 * (max(ys) - min(ys) or 1.0)
        ylim = (min(ys) - pad, max(ys) + pad)
    x0, x1 = xlim
    y0, y1 = ylim
    if logx and x0 <= 0:
        raise ValueError("log x axis needs positive limits")
    if not (x0 < x1 and y0 < y1):
        raise ValueError("empty axis range")

    u0 = math.log10(x0) if logx else x0
    u1 = math.log10(x1) if logx else x1
    pw = width - _ML - _MR
    ph = height - _MT - _MB

    def tx(x: float) -> float:
        u = math.log10(x) if logx else x
        return _ML + (u - u0) / (u1 - u0) * pw

    def ty(y: float) -> float:
        return height - _MB - (y - y0) / (y1 - y0) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append('<defs><clipPath id="plotclip">'
               f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}"/>'
               '</clipPath></defs>')
    font = 'font-family="Helvetica, Arial, sans-serif"'

    # gridlines and tick labels
    if logx:
        xmaj, xmin_t = _log_ticks(x0, x1)
    else:
        xmaj, xmin_t = _lin_ticks(x0, x1), []
    for v in xmin_t:
        px = f"{tx(v):.2f}"
        out.append(f'<line x1="{px}" y1="{_MT}" x2="{px}" '
                   f'y2="{height - _MB}" stroke="#f0f0f0" stroke-width="1"/>')
    for v in xmaj:
        px = f"{tx(v):.2f}"
        out.append(f'<line x1="{px}" y1="{_MT}" x2="{px}" '
                   f'y2="{height - _MB}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px}" y="{height - _MB + 16}" {font} '
                   f'font-size="12" text-anchor="middle">{v:g}</text>')
    for v in _lin_ticks(y0, y1):
        py = f"{ty(v):.2f}"
        out.append(f'<line x1="{_ML}" y1="{py}" x2="{width - _MR}" '
                   f'y2="{py}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 6}" y="{py}" {font} font-size="12" '
                   f'text-anchor="end" dominant-baseline="middle">{v:g}</text>')

    # reference lines
    for h in hlines:
        if not (y0 <= h.y <= y1):
            continue
        py = f"{ty(h.y):.2f}"
        out.append(f'<line x1="{_ML}" y1="{py}" x2="{width - _MR}" y2="{py}" '
                   f'stroke="{h.color}" stroke-width="1.2" '
                   'stroke-dasharray="7 4"/>')
        if h.label:
            out.append(f'<text x="{_ML + 6}" y="{float(py) - 4:.2f}" {font} '
                       f'font-size="11" fill="{h.color}">{_esc(h.label)}</text>')

    # curves; series often share their x samples, so each x run's template
    # of formatted x pixels is built once
    out.append('<g clip-path="url(#plotclip)">')
    colors = [s.color or PALETTE[i % len(PALETTE)] for i, s in enumerate(series)]
    templates: dict[tuple, str] = {}
    y_base, y_span = height - _MB, y1 - y0
    for s, color in zip(series, colors):
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        for rx, ry in _finite_runs(s.x, s.y):
            key = tuple(rx)
            tmpl = templates.get(key)
            if tmpl is None:
                tmpl = templates[key] = " ".join(
                    [f"{tx(x):.2f},%.2f" for x in rx])
            pts = tmpl % tuple([y_base - (y - y0) / y_span * ph for y in ry])
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="{s.width}"{dash}/>')
    out.append('</g>')

    # frame
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333333" stroke-width="1"/>')

    # legend, top right inside the frame
    labeled = [(s, color) for s, color in zip(series, colors) if s.label]
    if labeled:
        lw = 10 + 8 * max(len(s.label) for s, _ in labeled) + 36
        lh = 18 * len(labeled) + 10
        lx, ly = width - _MR - lw - 8, _MT + 8
        out.append(f'<rect x="{lx}" y="{ly}" width="{lw}" height="{lh}" '
                   'fill="#ffffff" fill-opacity="0.85" stroke="#999999" '
                   'stroke-width="0.8"/>')
        for i, (s, color) in enumerate(labeled):
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            cy = ly + 14 + 18 * i
            out.append(f'<line x1="{lx + 8}" y1="{cy}" x2="{lx + 32}" '
                       f'y2="{cy}" stroke="{color}" '
                       f'stroke-width="{s.width}"{dash}/>')
            out.append(f'<text x="{lx + 38}" y="{cy + 4}" {font} '
                       f'font-size="12">{_esc(s.label)}</text>')

    if title:
        out.append(f'<text x="{width / 2:g}" y="22" {font} font-size="15" '
                   f'text-anchor="middle" font-weight="bold">{_esc(title)}</text>')
    if xlabel:
        out.append(f'<text x="{_ML + pw / 2:g}" y="{height - 10}" {font} '
                   f'font-size="13" text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{_MT + ph / 2:g}" {font} font-size="13" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 16 {_MT + ph / 2:g})">{_esc(ylabel)}</text>')

    out.append('</svg>')
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")
