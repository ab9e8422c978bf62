"""Health-risk curves over travel time and their speed-domain counterparts.

A RiskCurve is a strictly convex C^2 piecewise-cubic interpolant of
(travel time, relative risk) control points. A SpeedRisk re-expresses it over
speed through g(s) = f(d/s), which is strictly quasi-convex with a unique
minimizer at d/t_tip. A RiskBank fits a group's curves and stacks them with
the route distances into arrays, so that one numpy pass evaluates every agent;
it has SpeedRisk's speed-domain methods and the group's common speed domain.
"""

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, EmptyDomainIntersection
from .errors import InteriorMinimumMissing, NonConvexFit, OutOfDomain

INTERIOR_PAD = 1e-7  # hours; a minimum this close to a domain end counts as on it
QC_SEPARATION = 1e-6  # share of the domain below which rounding can tie two points
# Grid points per evaluation pass. Temporaries of 10^5 floats make the C
# allocator return and re-fault memory on every call, about 3x the work.
GRID_BLOCK = 8192
_DOMAIN_SLACK = 1e-12  # times (1 + |end|): d/(d/t) can round past t by an ulp of t


def _clip(x, lo, hi, name):
    """x clipped into [lo, hi]; OutOfDomain beyond the rounding slack."""
    x = np.asarray(x, dtype=float)[()]  # one float is a numpy scalar from here on
    if np.count_nonzero((x < lo) | (x > hi)):  # past an end: by rounding only?
        below = x < lo - _DOMAIN_SLACK * (1.0 + abs(lo))
        if np.count_nonzero(below | (x > hi + _DOMAIN_SLACK * (1.0 + abs(hi)))):
            raise OutOfDomain(f"{name}={x} outside [{lo}, {hi}]")
    return np.minimum(np.maximum(x, lo), hi)  # np.clip, without its wrapper


def _cubic(c, z, nu):
    """The nu-th derivative of c0 z^3 + c1 z^2 + c2 z + c3; c yields c0, c1, ..."""
    c = iter(c)
    if nu == 2:
        return 6.0 * next(c) * z + 2.0 * next(c)
    if nu == 1:
        return (3.0 * next(c) * z + 2.0 * next(c)) * z + next(c)
    r = next(c) * z  # in place from here on: value arrays run to 10^5 points
    r += next(c)
    r *= z
    r += next(c)
    r *= z
    r += next(c)
    return r


def _piecewise(left, coef, inner, first, t, nu):
    """The nu-th derivative at times t of the cubics in a piece table.

    Row r is one curve: left[r, j] is piece j's left knot (+inf past the last
    piece), and coef[:, k], k = r * width + j, its cubic in t - left[r, j]. A
    time's k is `first` (np.intp), its row's k for j = 0, plus the count of
    the row's `inner` knots (along axis 0) at or below the time.
    """
    inner = inner[(slice(None),) + (None,) * (t.ndim + 1 - inner.ndim)]
    count = np.uint8 if len(inner) < 256 else np.intp
    j = first + np.add.reduce(inner <= t, axis=0, dtype=count)
    return _cubic(map(np.ndarray.take, coef, repeat(j)), t - left.take(j), nu)


@dataclass(frozen=True)
class RiskCurve:
    """Strictly convex travel-time risk function fitted through control points.

    Units: hours on the time axis, dimensionless relative risk on the value
    axis. Immutable after construction. Its cubics are one row of a piece
    table (`_piecewise`): its own from `fit_risk_curve`, or a view of row i
    of a RiskBank's from `bank[i]`.
    """

    control_points: tuple
    domain: tuple  # (t_lo, t_hi), hours
    tipping_point: float  # interior global minimizer, hours
    breakeven_point: float | None  # first t > tipping where risk regains f(t_lo)
    _left: np.ndarray = field(repr=False, compare=False)  # (width,)
    _coef: np.ndarray = field(repr=False, compare=False)  # (4, width)

    def _eval(self, t, nu):
        t = _clip(t, *self.domain, "t")
        return _piecewise(self._left, self._coef, self._left[1:], np.intp(0), t, nu)[()]

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
    """A group's fitted risks in one piece table; each method is one numpy pass.

    Built from each agent's control points and route distance (km); row i of
    the table holds agent i's cubics. The speed-domain methods are SpeedRisk's
    own, with distance, lo, hi and minimizer one entry per agent; they take one
    speed per agent (or rows of them) or one common speed and return one result
    per agent, raising OutOfDomain for the same inputs as SpeedRisk. bank[i]
    builds agent i's SpeedRisk on read, over a view of row i. `clamp` projects
    onto `domain`, and `total_value` sums the group's risks on a grid inside it.
    """

    def __init__(self, control_points, distances):
        self.distance = d = np.array(distances, dtype=float)
        bad = d[~(np.isfinite(d) & (d > 0.0))]
        if bad.size:
            raise DegenerateInput(f"distance must be finite and positive, got {bad[0]}")
        curves = [fit_risk_curve(pts) for pts in control_points]
        n = len(curves)
        if len(d) != n:
            raise DimensionMismatch(f"{len(d)} distances for {n} curves")
        self.t_lo, self.t_hi = np.array([c.domain for c in curves]).reshape(-1, 2).T
        # g' and g'' cube the speed: below 2**-340 or above 2**340 km/h, float64
        # cannot (the scalings by powers of two are exact)
        far = d[(d < 2.0**-340 * self.t_hi) | (d > 2.0**340 * self.t_lo)]
        if far.size:
            raise DegenerateInput(
                f"distance {far[0]} km puts speeds outside [2**-340, 2**340] km/h"
            )
        self.lo, self.hi = d / self.t_hi, d / self.t_lo
        self._domain = (float(np.max(self.lo)), float(np.min(self.hi))) if n else None
        # the fits' one-row tables, stacked and padded to the longest row
        pieces = np.array([c._left.size for c in curves], dtype=int)
        filled = np.arange(pieces.max(initial=1)) < pieces[:, None]  # (n, width)
        left, coef = np.full(filled.shape, np.inf), np.zeros((4, *filled.shape))
        if n:
            left[filled] = np.concatenate([c._left for c in curves])
            coef[:, filled] = np.hstack([c._coef for c in curves])
        # the interior knots again, contiguous knot by knot: compared faster than a view
        first = np.arange(n) * filled.shape[1]
        self._table = left, coef.reshape(4, -1), np.ascontiguousarray(left.T[1:]), first
        # each agent's RiskCurve: its fields and views of its table row, unpadded
        rows = zip(curves, left, coef.swapaxes(0, 1), pieces)
        self._rows = [(c.control_points, c.domain, c.tipping_point, c.breakeven_point,
                       knots[:m], cubics[:, :m]) for c, knots, cubics, m in rows]

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        return SpeedRisk(RiskCurve(*self._rows[i]), float(self.distance[i]))

    @property
    def minimizer(self):
        return self.distance / np.array([tipping for _, _, tipping, *_ in self._rows])

    @property
    def domain(self):
        """The common speed domain (max_i lo_i, min_i hi_i), km/h."""
        if not len(self):
            raise DegenerateInput("empty agent list")
        lo, hi = self._domain
        if lo >= hi:
            empty = f"speed domains intersect in [{lo}, {hi}], which is empty"
            raise EmptyDomainIntersection(empty)
        return self._domain

    def clamp(self, s):
        return np.clip(s, *self.domain)

    def _f(self, t, nu):
        """nu-th derivative of each agent's f_i at its own time t_i, in rows of n."""
        return _piecewise(*self._table, _clip(t, self.t_lo, self.t_hi, "t"), nu)

    def _derivative_in_domain(self, s):
        """`derivative` on rows of speeds inside `domain`: no check, d/s clipped."""
        d = self.distance
        t = np.minimum(np.maximum(d / s, self.t_lo), self.t_hi)
        return -(d / (s * s)) * _piecewise(*self._table, t, 1)

    def phi(self, s):
        """phi(s) = sum_i d_i f_i'(d_i/s) at one common speed s."""
        return float(np.sum(self.distance * self._f(self.distance / s, 1)))

    def total_value(self, s):
        """sum_i g_i(s) on an increasing speed grid s inside `domain`.

        Agent i's travel time d_i/s falls along the grid, so each of its cubic
        pieces covers one contiguous slice of a block, which is evaluated with
        that piece's coefficients. Blocks of GRID_BLOCK points; the sum is
        sum_i bank[i].value(s), bit for bit, added in agent order.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self.domain
        if s.ndim != 1 or not np.all(s[1:] >= s[:-1]):
            raise DegenerateInput("speed grid must be one increasing array")
        if s.size and not lo <= s[0] <= s[-1] <= hi:
            raise OutOfDomain(f"speed grid [{s[0]}, {s[-1]}] outside [{lo}, {hi}]")
        total = np.zeros(len(s))
        for start in range(0, len(s), GRID_BLOCK):
            block = s[start:start + GRID_BLOCK]
            out = total[start:start + GRID_BLOCK][::-1]  # by increasing time
            for d, (_, (t_lo, t_hi), _, _, left, coef) in zip(self.distance, self._rows):
                t = d / block
                t = np.clip(t, t_lo, t_hi, out=t)[::-1]
                # piece j holds the times from its left knot up to the next
                ends = [0, *np.searchsorted(t, left[1:]).tolist(), len(t)]
                for j, (a, b) in enumerate(zip(ends, ends[1:])):
                    if a < b:
                        out[a:b] += _cubic(coef[:, j], t[a:b] - left[j], 0)
        return total


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
    pts = np.array(control_points, dtype=float)
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 control points, got {len(pts)}")
    if pts.shape != (len(pts), 2):
        raise DegenerateInput(f"control points must be (time, risk) pairs, got {pts.shape}")
    times, risks = pts.T
    finite = np.isfinite(times) & np.isfinite(risks)
    if not finite.all():
        bad = tuple(pts[int(np.argmin(finite))].tolist())
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
        control_points=tuple(map(tuple, pts.tolist())),
        domain=(t_lo, t_hi),
        tipping_point=tipping,
        breakeven_point=_find_breakeven(times, c, tipping),
        _left=times[:-1].copy(),  # contiguous: times is a column of pts
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
    n_points: int
    counterexample: tuple | None  # (u, x, v, g(u), g(x), g(v)), plain floats


def check_quasi_convexity(g, samples, seed=0):
    """Sampled check of strict quasi-convexity on g's speed domain.

    Draws `samples` speeds, sorts them with repeats dropped and evaluates g
    on them GRID_BLOCK at a time. On a line, strict quasi-convexity means
    "falls, then rises": g(x) < max(g(u), g(v)) holds for every triple
    u < x < v of the sample unless a step that does not fall comes before a
    step that does not rise. A step between points within QC_SEPARATION of
    the domain, by at most 8 ulps, is a rounding tie and counts as neither.
    A failure is reported, not raised, as the triple from the first such
    step's left end, over the highest point between, to the second's right.
    """
    if samples < 3:
        raise DegenerateInput(f"samples must be >= 3, got {samples}")
    lo, hi = g.speed_domain
    s = np.unique(np.random.default_rng(seed).uniform(lo, hi, samples))
    gs = np.concatenate([g.value(s[k:k + GRID_BLOCK]) for k in range(0, len(s), GRID_BLOCK)])
    step = np.diff(gs)
    tie = (np.diff(s) <= QC_SEPARATION * (hi - lo)) & (
        np.abs(step) <= 8 * np.spacing(np.abs(np.maximum(gs[:-1], gs[1:]))))
    rise, fall = (step >= 0) & ~tie, (step <= 0) & ~tie  # do not fall, do not rise
    late = np.flatnonzero(fall[1:] & np.logical_or.accumulate(rise)[:-1])
    if not late.size:
        return QuasiConvexityReport(True, len(s), None)
    p, q = int(np.argmax(rise)), int(late[0]) + 2  # s[p] < ... < s[q]
    x = p + 1 + int(np.argmax(gs[p + 1:q]))
    counterexample = tuple(map(float, (s[p], s[x], s[q], gs[p], gs[x], gs[q])))
    return QuasiConvexityReport(False, len(s), counterexample)
