"""Health-risk curves over travel time and their speed-domain counterparts.

A RiskCurve is a strictly convex C^2 piecewise-cubic interpolant of
(travel time, relative risk) control points. A SpeedRisk re-expresses it over
speed through g(s) = f(d/s), which is strictly quasi-convex with a unique
minimizer at d/t_tip.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateInput, InteriorMinimumMissing, NonConvexFit, OutOfDomain
from .numeric import bisect_root, golden_section_minimize

CONVEXITY_GRID = 1000
TIPPING_WIDTH_TOL = 1e-8
QC_SEPARATION = 1e-6  # share of the domain below which rounding can tie a triple
_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class RiskCurve:
    """Strictly convex travel-time risk function fitted through control points.

    Units: hours on the time axis, dimensionless relative risk on the value
    axis. Immutable after construction.
    """

    control_points: tuple
    domain: tuple  # (t_lo, t_hi), hours
    tipping_point: float  # interior global minimizer, hours
    breakeven_point: float | None  # first t > tipping where risk regains f(t_lo)
    _spline: CubicSpline = field(repr=False, compare=False)

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.domain
        if np.any(t < lo - _DOMAIN_SLACK) or np.any(t > hi + _DOMAIN_SLACK):
            raise OutOfDomain(f"t={t} outside [{lo}, {hi}]")
        return np.clip(t, lo, hi)

    def value(self, t):
        t = self._check_domain(t)
        return self._spline(t)[()]

    def derivative(self, t):
        """Analytic derivative of the piecewise polynomial."""
        t = self._check_domain(t)
        return self._spline(t, 1)[()]

    def second_derivative(self, t):
        t = self._check_domain(t)
        return self._spline(t, 2)[()]

    def to_speed_risk(self, distance):
        return to_speed_risk(self, distance)


@dataclass(frozen=True)
class SpeedRisk:
    """Speed-domain risk g(s) = f(d/s) for a single agent.

    Strictly quasi-convex on speed_domain = [d/t_hi, d/t_lo] with unique
    minimizer d/tipping_point. Units: km/h in, relative risk out.
    """

    base: RiskCurve
    distance: float  # km

    @property
    def speed_domain(self):
        t_lo, t_hi = self.base.domain
        return (self.distance / t_hi, self.distance / t_lo)

    @property
    def minimizer(self):
        return self.distance / self.base.tipping_point

    def _check_domain(self, s):
        s = np.asarray(s, dtype=float)
        lo, hi = self.speed_domain
        if np.any(s < lo - _DOMAIN_SLACK) or np.any(s > hi + _DOMAIN_SLACK):
            raise OutOfDomain(f"s={s} outside [{lo}, {hi}]")
        return np.clip(s, lo, hi)

    def clamp(self, s):
        lo, hi = self.speed_domain
        return float(np.clip(s, lo, hi))

    def value(self, s):
        s = self._check_domain(s)
        return self.base.value(self.distance / s)

    def derivative(self, s):
        """g'(s) = -(d/s^2) f'(d/s), by the chain rule."""
        s = self._check_domain(s)
        d = self.distance
        return -(d / s**2) * self.base.derivative(d / s)

    def second_derivative(self, s):
        """g''(s) = (d/s^2)^2 f''(d/s) + (2d/s^3) f'(d/s)."""
        s = self._check_domain(s)
        d = self.distance
        t = d / s
        return (d / s**2) ** 2 * self.base.second_derivative(t) + (
            2.0 * d / s**3
        ) * self.base.derivative(t)


def fit_risk_curve(control_points):
    """Fit a strictly convex C^2 cubic interpolant through control points.

    Uses a not-a-knot cubic spline (so any cubic-representable input, e.g. a
    parabola, is reproduced exactly), then verifies strict convexity of the
    result on a dense grid and rejects failures.
    """
    pts = [(float(t), float(r)) for t, r in control_points]
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 control points, got {len(pts)}")
    times = np.array([p[0] for p in pts])
    risks = np.array([p[1] for p in pts])
    if np.any(times <= 0.0):
        raise DegenerateInput("all control-point times must be positive")
    if np.any(np.diff(times) <= 0.0):
        raise DegenerateInput("control-point times must be strictly increasing")

    spline = CubicSpline(times, risks, bc_type="not-a-knot")
    t_lo, t_hi = float(times[0]), float(times[-1])

    grid = np.linspace(t_lo, t_hi, CONVEXITY_GRID)
    d2 = spline(grid, 2)
    if np.any(d2 <= 0.0):
        bad = grid[int(np.argmin(d2))]
        raise NonConvexFit(f"second derivative <= 0 near t={bad:.6g}")

    tipping = golden_section_minimize(spline, t_lo, t_hi, TIPPING_WIDTH_TOL)
    # Strictly convex, so an interior minimum has zero slope; an endpoint
    # bracket collapse means the true minimum sits on the boundary.
    interior_pad = 10.0 * TIPPING_WIDTH_TOL
    if tipping <= t_lo + interior_pad or tipping >= t_hi - interior_pad:
        raise InteriorMinimumMissing(
            f"curve minimum at or beyond domain endpoint (t={tipping:.6g})"
        )

    breakeven = _find_breakeven(spline, t_lo, t_hi, tipping)
    return RiskCurve(
        control_points=tuple(pts),
        domain=(t_lo, t_hi),
        tipping_point=tipping,
        breakeven_point=breakeven,
        _spline=spline,
    )


def _find_breakeven(spline, t_lo, t_hi, tipping):
    """Smallest t > tipping with f(t) = f(t_lo); None if never regained."""
    ref = float(spline(t_lo))
    if float(spline(t_hi)) < ref:
        return None
    root, _ = bisect_root(lambda t: float(spline(t)) - ref, tipping, t_hi)
    return root


def to_speed_risk(curve, distance):
    if distance <= 0.0:
        raise DegenerateInput(f"distance must be positive, got {distance}")
    return SpeedRisk(base=curve, distance=float(distance))


@dataclass(frozen=True)
class QuasiConvexityReport:
    passed: bool
    n_triples: int
    counterexample: tuple | None  # (u, x, v, g(u), g(x), g(v))


def check_quasi_convexity(g, samples, seed=0):
    """Sampled check of strict quasi-convexity on g's speed domain.

    Draws `samples` ordered triples u < x < v and checks
    g(x) < max(g(u), g(v)) for each, or g(x) <= max within rounding where the
    points nearly coincide. Failures are reported, not raised.
    """
    if samples < 3:
        raise DegenerateInput(f"samples must be >= 3, got {samples}")
    lo, hi = g.speed_domain
    rng = np.random.default_rng(seed)
    triples = np.sort(rng.uniform(lo, hi, size=(samples, 3)), axis=1)
    # degenerate (tied) triples carry no information
    distinct = (triples[:, 0] < triples[:, 1]) & (triples[:, 1] < triples[:, 2])
    triples = triples[distinct]
    gu = g.value(triples[:, 0])
    gx = g.value(triples[:, 1])
    gv = g.value(triples[:, 2])
    top = np.maximum(gu, gv)
    gap = np.minimum(triples[:, 1] - triples[:, 0], triples[:, 2] - triples[:, 1])
    close = gap <= QC_SEPARATION * (hi - lo)
    bad = np.where(close, gx > top + 8 * np.spacing(np.abs(top)), gx >= top)
    if np.any(bad):
        i = int(np.argmax(bad))
        u, x, v = triples[i]
        return QuasiConvexityReport(
            passed=False,
            n_triples=len(triples),
            counterexample=(u, x, v, float(gu[i]), float(gx[i]), float(gv[i])),
        )
    return QuasiConvexityReport(passed=True, n_triples=len(triples), counterexample=None)
