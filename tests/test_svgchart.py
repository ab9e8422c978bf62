import numpy as np

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
