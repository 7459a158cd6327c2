"""SVG line-plot tests: the written bytes depend on the sample values only."""

import hashlib
import math
import re

import numpy as np

from llckit.svgplot import PALETTE, HLine, Series, render_line_plot


def _render(path, as_numpy: bool) -> bytes:
    x = np.geomspace(0.1, 10.0, 200)
    y_gap = 1.0 / x
    y_gap[80:90] = np.nan
    cols = [x, np.sin(x) + 1.5, y_gap]
    if as_numpy:
        x, y_sin, y_gap = (tuple(c) for c in cols)
        assert type(x[0]) is np.float64
    else:
        x, y_sin, y_gap = (tuple(c.tolist()) for c in cols)
    render_line_plot(
        path, [Series("sin", x, y_sin), Series("gap", x, y_gap, dash="5 4")],
        title="t", xlabel="x", ylabel="y", logx=True,
        xlim=(0.1, 10.0), ylim=(0.0, 3.0), hlines=(HLine(1.2, "ref"),))
    return path.read_bytes()


def test_numpy_and_float_samples_give_the_same_bytes(tmp_path):
    svg = _render(tmp_path / "f.svg", as_numpy=False)
    assert svg == _render(tmp_path / "n.svg", as_numpy=True)
    # the NaN samples break the second curve in two
    assert svg.count(b"<polyline") == 3
    for pts in re.findall(r'points="([^"]*)"', svg.decode()):
        assert all(math.isfinite(float(v))
                   for p in pts.split() for v in p.split(","))


def test_every_run_shape_gives_the_pinned_bytes(tmp_path):
    # a leading NaN, an inf and NaNs inside a series (one leaving a
    # one-sample run), an all-NaN series, and a series on its own x, on
    # autoscaled limits
    nan, inf = math.nan, math.inf
    x = tuple(0.1 * 1.25 ** k for k in range(24))
    y_lead = (nan, nan) + tuple(1.0 / v for v in x[2:])
    y_break = tuple(inf if k == 11 else nan if k in (5, 7) else 0.5 + 0.1 * k
                    for k in range(24))
    series = [Series("lead", x, y_lead),
              Series("break", x, y_break, dash="4 2"),
              Series("none", x, (nan,) * 24),
              Series("own", (0.3, 0.7, nan, 1.1, 2.9, 4.4),
                     (2.0, 1.5, 1.0, -0.5, 0.25, 3.5), width=2.2)]
    path = tmp_path / "shapes.svg"
    render_line_plot(path, series, title="shapes", xlabel="x", ylabel="y",
                     logx=True, hlines=(HLine(0.8, "ref"),))
    svg = path.read_bytes()
    assert svg.count(b"<polyline") == 1 + 4 + 0 + 2
    assert hashlib.sha256(svg).hexdigest() == (
        "866e049d1c37c2d5b5a2abbb15673a6d41229518e98cbe6619b8ab8ff8b7dd7b")


def test_equal_series_keep_their_own_legend_colours(tmp_path):
    x = (1.0, 2.0, 3.0)
    s = Series("same", x, (1.0, 2.0, 1.5))
    path = tmp_path / "equal.svg"
    render_line_plot(path, [s, s])
    svg = path.read_text(encoding="utf-8")
    curves = re.findall(r'<polyline [^>]*stroke="(#\w+)"', svg)
    swatches = re.findall(r'<line [^>]*stroke="(#\w+)" stroke-width="1.6"', svg)
    assert curves == swatches == list(PALETTE[:2])
