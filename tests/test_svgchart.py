import re

import numpy as np
import pytest

from groupspeed import svgchart


def test_numpy_and_python_floats_give_the_same_chart():
    rng = np.random.default_rng(5)
    xs = np.linspace(0.2, 3.2, 200)
    arrays = [(f"agent {i}", xs, rng.uniform(0.5, 2.0, 200)) for i in range(3)]
    arrays.append(("", np.arange(200), rng.uniform(0.5, 2.0, 200)))
    scalars = [(label, list(x), list(y)) for label, x, y in arrays]
    floats = [(label, x.tolist(), y.tolist()) for label, x, y in arrays]
    assert isinstance(scalars[0][2][0], np.float64)
    assert isinstance(floats[0][2][0], float)
    kw = dict(title="t", x_label="x", y_label="y")
    assert svgchart.line_chart(scalars, **kw) == svgchart.line_chart(floats, **kw)


def _points_one_by_one(series):
    """Each polyline's points as line_chart maps them, one f-string per point."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = svgchart.WIDTH - 2 * svgchart.MARGIN
    ph = svgchart.HEIGHT - 2 * svgchart.MARGIN
    polylines = []
    for _, xs, ys in series:
        points = []
        for x, y in zip(xs, ys):
            px = svgchart.MARGIN + (x - x_lo) / (x_hi - x_lo) * pw
            py = svgchart.HEIGHT - svgchart.MARGIN - (y - y_lo) / (y_hi - y_lo) * ph
            points.append(f"{px:.2f},{py:.2f}")
        polylines.append(" ".join(points))
    return polylines


@pytest.mark.parametrize("seed", range(5))
def test_polylines_equal_one_format_per_point(seed):
    rng = np.random.default_rng(seed)
    # values at .xx5 and just below zero, among random ones
    edges = [0.125, 0.135, 1.005, 2.675, -0.005, -1e-9, -0.0, 0.0]
    series = []
    for i in range(int(rng.integers(1, 12))):
        n = int(rng.integers(1, 300))
        xs = np.sort(rng.uniform(-1.0, 3.0, n)).tolist()
        ys = rng.uniform(-0.01, 2.0, n).tolist()
        ys[: len(edges)] = edges[:n]
        series.append((f"agent {i}" if i % 2 else "", xs, ys))
    svg = svgchart.line_chart(series, title="t", x_label="x", y_label="y")
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert polylines == _points_one_by_one(series)
