"""SVG line-plot tests: the written bytes depend on the sample values only."""

import math
import re

import numpy as np

from llckit.svgplot import HLine, Series, render_line_plot


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
