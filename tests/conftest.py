import numpy as np
import pytest

from groupspeed.riskmodel import fit_risk_curve


def parabola_points(t_min=1.0, offset=1.0, lo=0.25, hi=2.0, step=0.25):
    ts = np.arange(lo, hi + step / 2, step)
    return [(float(t), float((t - t_min) ** 2 + offset)) for t in ts]


@pytest.fixture
def parabola_curve():
    """Fit of (t-1)^2 + 1; a not-a-knot cubic spline reproduces it exactly."""
    return fit_risk_curve(parabola_points())


def random_convex_points(rng, lo=0.3, hi=3.0, n_pts=9):
    """Control points of a random strictly convex cubic a + b(t-c)^2 + e(t-c)^3."""
    b = rng.uniform(0.2, 2.0)
    c = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
    # keep 2b + 6e(t-c) > 0 on [lo, hi]
    e_max = b / (3.0 * max(hi - c, c - lo))
    e = rng.uniform(-0.9 * e_max, 0.9 * e_max)
    a = rng.uniform(0.3, 1.0)
    ts = np.linspace(lo, hi, n_pts)
    return [(float(t), float(a + b * (t - c) ** 2 + e * (t - c) ** 3)) for t in ts]


def random_convex_curve(rng):
    """The fit of random_convex_points(rng)."""
    return fit_risk_curve(random_convex_points(rng))


class QuadraticGroup:
    """Test double for a RiskBank: g_i(s) = (s - a_i)^2 on the whole line."""

    domain = (-np.inf, np.inf)

    def __init__(self, a):
        self.a = np.array(a, dtype=float)

    def __len__(self):
        return len(self.a)

    def clamp(self, s):
        return np.clip(s, *self.domain)

    def derivative(self, s):
        return 2.0 * (np.asarray(s, dtype=float) - self.a)

    _derivative_in_domain = derivative

    def second_derivative(self, s):
        return np.full(len(self.a), 2.0)
