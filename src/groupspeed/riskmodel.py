"""Health-risk curves over travel time and their speed-domain counterparts.

A RiskCurve is a strictly convex C^2 piecewise-cubic interpolant of
(travel time, relative risk) control points. A SpeedRisk re-expresses it over
speed through g(s) = f(d/s), which is strictly quasi-convex with a unique
minimizer at d/t_tip. A RiskBank fits a group's curves and stacks them with
the route distances into arrays, so that one numpy pass evaluates every agent;
it has SpeedRisk's speed-domain methods, written once for both.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, InteriorMinimumMissing
from .errors import NonConvexFit, OutOfDomain

INTERIOR_PAD = 1e-7  # hours; a minimum this close to a domain end counts as on it
QC_SEPARATION = 1e-6  # share of the domain below which rounding can tie a triple
_DOMAIN_SLACK = 1e-12


def _clip(x, lo, hi, name):
    """x clipped into [lo, hi]; OutOfDomain beyond the rounding slack."""
    x = np.asarray(x, dtype=float)
    if (x < lo - _DOMAIN_SLACK).any() or (x > hi + _DOMAIN_SLACK).any():
        raise OutOfDomain(f"{name}={x} outside [{lo}, {hi}]")
    return np.clip(x, lo, hi)


def _cubic(c, z, nu):
    """The nu-th derivative of c[0] z^3 + c[1] z^2 + c[2] z + c[3], by Horner."""
    if nu == 2:
        return 6.0 * c[0] * z + 2.0 * c[1]
    if nu == 1:
        return (3.0 * c[0] * z + 2.0 * c[1]) * z + c[2]
    r = c[0] * z  # in place from here on: value arrays run to 10^5 points
    r += c[1]
    r *= z
    r += c[2]
    r *= z
    r += c[3]
    return r


@dataclass(frozen=True)
class RiskCurve:
    """Strictly convex travel-time risk function fitted through control points.

    Units: hours on the time axis, dimensionless relative risk on the value
    axis. Immutable after construction. Piece j is the cubic
    coef[:, j] in (t - knots[j]) on [knots[j], knots[j + 1]].
    """

    control_points: tuple
    domain: tuple  # (t_lo, t_hi), hours
    tipping_point: float  # interior global minimizer, hours
    breakeven_point: float | None  # first t > tipping where risk regains f(t_lo)
    _knots: np.ndarray = field(repr=False, compare=False)
    _coef: np.ndarray = field(repr=False, compare=False)  # (4, pieces)

    def _eval(self, t, nu):
        t = _clip(t, *self.domain, "t")
        # the piece is the number of interior knots at or below t
        j = np.searchsorted(self._knots[1:-1], t, side="right")
        return _cubic(self._coef.take(j, axis=1), t - self._knots.take(j), nu)[()]

    def value(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        """Analytic derivative of the piecewise polynomial."""
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)


class _SpeedRisks:
    """Speed-domain risk g(s) = f(d/s) and its derivatives, by the chain rule.

    A subclass gives `distance` (km), its speed domain `lo`, `hi` (km/h) and
    `_f(t, nu)`, the nu-th derivative of f at travel time t (hours). Products,
    not powers: numpy rounds powers differently for scalars and arrays.
    """

    def clamp(self, s):
        """s clamped into the speed domain [lo, hi]."""
        return np.clip(s, self.lo, self.hi)

    def value(self, s):
        s = _clip(s, self.lo, self.hi, "s")
        return self._f(self.distance / s, 0)

    def derivative(self, s):
        """g'(s) = -(d/s^2) f'(d/s), by the chain rule."""
        s = _clip(s, self.lo, self.hi, "s")
        d = self.distance
        return -(d / (s * s)) * self._f(d / s, 1)

    def second_derivative(self, s):
        """g''(s) = (d/s^2)^2 f''(d/s) + (2d/s^3) f'(d/s)."""
        s = _clip(s, self.lo, self.hi, "s")
        d = self.distance
        t = d / s
        q = d / (s * s)
        return q * q * self._f(t, 2) + (2.0 * d / (s * s * s)) * self._f(t, 1)


@dataclass(frozen=True)
class SpeedRisk(_SpeedRisks):
    """Speed-domain risk g(s) = f(d/s) for a single agent.

    Strictly quasi-convex on speed_domain = [d/t_hi, d/t_lo] with unique
    minimizer d/tipping_point. Units: km/h in, relative risk out.
    """

    base: RiskCurve
    distance: float  # km

    @property
    def lo(self):
        return self.distance / self.base.domain[1]

    @property
    def hi(self):
        return self.distance / self.base.domain[0]

    @property
    def speed_domain(self):
        return (self.lo, self.hi)

    @property
    def minimizer(self):
        return self.distance / self.base.tipping_point

    def _f(self, t, nu):
        return self.base._eval(t, nu)


class RiskBank(_SpeedRisks):
    """A group's fitted risks stacked row by row; each method is one numpy pass.

    Built from each agent's control points and route distance (km). The
    speed-domain methods are SpeedRisk's own, with distance, lo and hi one
    entry per agent; they take one speed per agent or one common speed and
    return one result per agent, raising OutOfDomain for the same inputs as
    SpeedRisk. The knots are one (agents, pieces) array, padded with +inf
    where a curve has fewer pieces than the longest, which no time reaches.
    bank[i] builds agent i's SpeedRisk on read.
    """

    def __init__(self, control_points, distances):
        self.distance = d = np.array(distances, dtype=float)
        bad = d[~(np.isfinite(d) & (d > 0.0))]
        if bad.size:
            raise DegenerateInput(f"distance must be finite and positive, got {bad[0]}")
        curves = self._curves = tuple(fit_risk_curve(pts) for pts in control_points)
        n = len(curves)
        if len(d) != n:
            raise DimensionMismatch(f"{len(d)} distances for {n} curves")
        self.t_lo, self.t_hi = np.array([c.domain for c in curves]).reshape(-1, 2).T
        self.lo, self.hi = d / self.t_hi, d / self.t_lo
        pieces = max((len(c._knots) - 1 for c in curves), default=1)
        knots = np.full((n, pieces), np.inf)  # left end of each piece
        coef = np.zeros((4, n, pieces))
        for row, c in enumerate(curves):
            m = len(c._knots) - 1
            knots[row, :m] = c._knots[:-1]
            coef[:, row, :m] = c._coef
        self._left = knots.ravel()
        self._inner = knots[:, 1:]
        self._coef = coef.reshape(4, -1)
        self._first = np.arange(n) * pieces  # flat index of piece 0

    def __len__(self):
        return len(self._curves)

    def __getitem__(self, i):
        return SpeedRisk(self._curves[i], float(self.distance[i]))

    def _f(self, t, nu):
        """nu-th derivative of each agent's f_i at its own travel time t_i."""
        t = _clip(t, self.t_lo, self.t_hi, "t")
        j = self._first + (self._inner <= t[:, None]).sum(axis=1)
        return _cubic(self._coef.take(j, axis=1), t - self._left.take(j), nu)

    def phi(self, s):
        """phi(s) = sum_i d_i f_i'(d_i/s) at one common speed s."""
        return float(np.sum(self.distance * self._f(self.distance / s, 1)))


def _not_a_knot(x, y):
    """Coefficients (4, m-1) of the not-a-knot cubic interpolant of (x, y).

    Solves for the slopes at the knots: continuity of f'' at the interior
    knots, and a single cubic across each pair of end pieces.
    """
    m = len(x)
    h = np.diff(x)
    slope = np.diff(y) / h
    A = np.zeros((m, m))
    b = np.empty(m)
    i = np.arange(1, m - 1)
    A[i, i - 1] = h[1:]
    A[i, i] = 2.0 * (h[:-1] + h[1:])
    A[i, i + 1] = h[:-1]
    b[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    A[0, :2] = h[1], d0
    b[0] = ((h[0] + 2.0 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
    A[-1, -2:] = d1, h[-2]
    b[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
    s = np.linalg.solve(A, b)
    t = (s[:-1] + s[1:] - 2.0 * slope) / h
    return np.array([t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1]])


def fit_risk_curve(control_points):
    """Fit a strictly convex C^2 cubic interpolant through control points.

    Uses a not-a-knot cubic spline (so any cubic-representable input, e.g. a
    parabola, is reproduced exactly) and rejects it unless f'' > 0 at every
    knot, which is exact: f'' is linear on each piece. The tipping point is
    the root of the quadratic f' on the piece where f' changes sign.
    """
    pts = [(float(t), float(r)) for t, r in control_points]
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 control points, got {len(pts)}")
    times, risks = np.array(pts).T.copy()
    finite = np.isfinite(times) & np.isfinite(risks)
    if not finite.all():
        bad = pts[int(np.argmin(finite))]
        raise DegenerateInput(f"control points must be finite, got {bad}")
    h = np.diff(times)
    if np.any(times <= 0.0):
        raise DegenerateInput("all control-point times must be positive")
    if np.any(h <= 0.0):
        raise DegenerateInput("control-point times must be strictly increasing")

    c = _not_a_knot(times, risks)
    t_lo, t_hi = float(times[0]), float(times[-1])

    d2 = np.append(2.0 * c[1], _cubic(c[:, -1], h[-1], 2))  # f'' at every knot
    if np.any(d2 <= 0.0):
        bad = times[int(np.argmin(d2))]
        raise NonConvexFit(f"second derivative <= 0 at knot t={bad:.6g}")

    d1 = np.append(c[2], _cubic(c[:, -1], h[-1], 1))  # f' at every knot, rising
    k = int(np.searchsorted(d1, 0.0))  # knots where f' < 0
    if 0 < k < len(times):
        # the root of 3a z^2 + 2b z + c with f'' = 2b > 0, in its stable form
        a3, b2, c1 = 3.0 * c[0, k - 1], 2.0 * c[1, k - 1], c[2, k - 1]
        disc = max(b2 * b2 - 4.0 * a3 * c1, 0.0)
        tipping = float(times[k - 1] + 2.0 * c1 / (-b2 - np.sqrt(disc)))
    else:
        tipping = t_lo if k == 0 else t_hi
    if tipping <= t_lo + INTERIOR_PAD or tipping >= t_hi - INTERIOR_PAD:
        raise InteriorMinimumMissing(
            f"curve minimum at or beyond domain endpoint (t={tipping:.6g})"
        )

    return RiskCurve(
        control_points=tuple(pts),
        domain=(t_lo, t_hi),
        tipping_point=tipping,
        breakeven_point=_find_breakeven(times, c, tipping),
        _knots=times,
        _coef=c,
    )


def _find_breakeven(x, c, tipping):
    """Smallest t > tipping with f(t) = f(t_lo); None if never regained.

    Past the tipping point f rises and is convex, so Newton's method from the
    right end of the root's piece falls monotonically onto the root.
    """
    ref = c[3, 0]
    at_knots = np.append(c[3], _cubic(c[:, -1], x[-1] - x[-2], 0))
    if at_knots[-1] < ref:
        return None
    j = int(np.flatnonzero((x > tipping) & (at_knots >= ref))[0]) - 1
    piece, z = c[:, j].tolist(), float(x[j + 1] - x[j])
    for _ in range(64):
        step = (_cubic(piece, z, 0) - ref) / _cubic(piece, z, 1)
        if not step > 0.0 or z - step == z:
            break
        z -= step
    return float(x[j] + z)


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
