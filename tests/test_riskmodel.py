import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.interpolate import CubicSpline

from groupspeed import scenario as scen
from groupspeed.errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyDomainIntersection,
    InteriorMinimumMissing,
    NonConvexFit,
    OutOfDomain,
)
from groupspeed.riskmodel import (
    GRID_BLOCK,
    QC_SEPARATION,
    QuasiConvexityReport,
    RiskBank,
    SpeedRisk,
    _not_a_knot,
    check_quasi_convexity,
    fit_risk_curve,
)
from groupspeed.scenario import HIGH_POLLUTION_POINTS, LOW_POLLUTION_POINTS

from conftest import parabola_points, random_convex_curve


def convex_points(rng, m):
    """m control points of a convex quartic with an interior minimum.

    Uneven knots and a quartic term, so the spline is not the curve itself.
    """
    lo, hi = rng.uniform(0.1, 0.5), rng.uniform(2.0, 4.0)
    t = np.linspace(lo, hi, m)
    t[1:-1] += rng.uniform(-0.3, 0.3, m - 2) * (hi - lo) / (m - 1)
    c = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
    a, b = rng.uniform(0.3, 1.0), rng.uniform(0.2, 2.0)
    e = rng.uniform(0.0, 0.1) * b
    return np.column_stack([t, a + b * (t - c) ** 2 + e * (t - c) ** 4])


def reference_curves():
    """The shipped profiles and 200 seeded random convex point sets, 4-12 points."""
    rng = np.random.default_rng(2024)
    yield np.array(LOW_POLLUTION_POINTS)
    yield np.array(HIGH_POLLUTION_POINTS)
    for _ in range(200):
        yield convex_points(rng, int(rng.integers(4, 13)))


class TestFitRiskCurve:
    def test_parabola_tipping_point(self, parabola_curve):
        assert parabola_curve.tipping_point == pytest.approx(1.0, abs=1e-6)

    def test_linear_points_rejected(self):
        with pytest.raises(NonConvexFit):
            fit_risk_curve([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_risk_curve([(1.0, 2.0), (2.0, 1.0), (3.0, 2.0)])

    def test_unsorted_times(self):
        pts = parabola_points()
        pts[0], pts[1] = pts[1], pts[0]
        with pytest.raises(DegenerateInput):
            fit_risk_curve(pts)

    def test_nonpositive_times(self):
        with pytest.raises(DegenerateInput):
            fit_risk_curve([(0.0, 2.0), (1.0, 1.0), (2.0, 2.0), (3.0, 5.0)])

    def test_degenerate_duplicate_times(self):
        with pytest.raises(DegenerateInput):
            fit_risk_curve([(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.0, 2.0)])

    def test_dip_at_interior_knot_rejected(self):
        # f'' of this fit is -3e-4 at t=1 and negative only within 2.5e-5 h of
        # it; the nearest point of a 1000-point grid is 2.5e-4 h away
        pts = parabola_points()
        pts[3] = (1.0, 1.02884)
        t, r = np.array(pts).T
        spline = CubicSpline(t, r, bc_type="not-a-knot")
        assert spline(1.0, 2) < 0
        assert np.all(spline(np.linspace(t[0], t[-1], 1000), 2) > 0)
        with pytest.raises(NonConvexFit):
            fit_risk_curve(pts)

    @pytest.mark.parametrize(
        "points",
        [
            pytest.param(np.ravel(parabola_points()), id="flat"),
            pytest.param(np.ones((8, 3)), id="three-columns"),
            pytest.param(np.array(parabola_points())[:, :, None], id="three-axes"),
        ],
    )
    def test_points_must_be_time_risk_pairs(self, points):
        with pytest.raises(DegenerateInput, match=r"\(time, risk\) pairs"):
            fit_risk_curve(points)

    def test_control_points_are_tuples_of_floats(self):
        curve = fit_risk_curve(np.array(parabola_points()))
        assert curve.control_points == tuple(parabola_points())
        assert all(type(p) is tuple for p in curve.control_points)
        assert all(type(v) is float for p in curve.control_points for v in p)

    def test_endpoint_minimum_rejected(self):
        # (t)^2 on [1, 3]: strictly convex but minimized at the left edge
        pts = [(t, t * t) for t in np.linspace(1.0, 3.0, 8)]
        with pytest.raises(InteriorMinimumMissing):
            fit_risk_curve(pts)

    def test_strict_convexity_on_grid(self, parabola_curve):
        for curve in (
            parabola_curve,
            fit_risk_curve(LOW_POLLUTION_POINTS),
            fit_risk_curve(HIGH_POLLUTION_POINTS),
        ):
            grid = np.linspace(*curve.domain, 1000)
            assert np.all(curve.second_derivative(grid) > 0)

    def test_shipped_curves_interior_tipping(self):
        low = fit_risk_curve(LOW_POLLUTION_POINTS)
        high = fit_risk_curve(HIGH_POLLUTION_POINTS)
        assert low.domain[0] < low.tipping_point < low.domain[1]
        assert high.tipping_point < low.tipping_point


class TestScipyReference:
    """The numpy fit against scipy's not-a-knot CubicSpline."""

    def test_values_and_derivatives(self):
        for pts in reference_curves():
            curve = fit_risk_curve(pts)
            t, r = pts.T
            spline = CubicSpline(t, r, bc_type="not-a-knot")
            grid = np.concatenate([t, np.linspace(t[0], t[-1], 2001)])
            tol = 1e-12 * np.ptp(r)
            for nu, f in enumerate(
                (curve.value, curve.derivative, curve.second_derivative)
            ):
                np.testing.assert_allclose(f(grid), spline(grid, nu), rtol=0, atol=tol)

    def test_tipping_and_breakeven_are_the_spline_roots(self):
        regained = 0
        for pts in reference_curves():
            curve = fit_risk_curve(pts)
            t, r = pts.T
            spline = CubicSpline(t, r, bc_type="not-a-knot")
            (tipping,) = spline.derivative().roots(extrapolate=False)
            assert curve.tipping_point == pytest.approx(tipping, abs=1e-12)
            ends = [x for x in spline.solve(r[0], extrapolate=False) if x > tipping]
            if curve.breakeven_point is None:
                assert not ends
            else:
                regained += 1
                assert curve.breakeven_point == pytest.approx(ends[0], abs=1e-12)
        assert 0 < regained < 202

    def test_speed_second_derivative_is_the_chain_rule(self):
        """g''(s) = (d/s^2)^2 f''(d/s) + (2d/s^3) f'(d/s), with scipy's f' and f''."""
        group = [np.array(pts) for pts in reference_curves()]
        rng = np.random.default_rng(12)
        distances = rng.uniform(2.0, 40.0, len(group))
        bank = RiskBank(group, distances)
        own = rng.uniform(bank.lo, bank.hi)  # one speed per agent
        at_own = []
        for pts, g, x in zip(group, bank, own):
            t, r = pts.T
            spline = CubicSpline(t, r, bc_type="not-a-knot")
            ss = np.append(np.linspace(g.lo, g.hi, 500), x)
            d = g.distance
            q2, c1 = (d / ss**2) ** 2, 2.0 * d / ss**3
            want = q2 * spline(d / ss, 2) + c1 * spline(d / ss, 1)
            scale = q2 + c1
            # f' and f'' agree with scipy to 1e-12 of the risk range
            tol = 1e-11 * np.ptp(r) * scale
            np.testing.assert_array_less(np.abs(g.second_derivative(ss) - want), tol)
            at_own.append((want[-1], tol[-1]))
        want, tol = np.array(at_own).T
        np.testing.assert_array_less(np.abs(bank.second_derivative(own) - want), tol)


class TestEval:
    def test_interpolates_control_points(self, parabola_curve):
        for t, r in parabola_curve.control_points:
            assert parabola_curve.value(t) == pytest.approx(r, abs=1e-12)

    def test_parabola_closed_form(self, parabola_curve):
        assert parabola_curve.value(1.5) == pytest.approx(1.25, abs=1e-9)

    def test_out_of_domain(self, parabola_curve):
        with pytest.raises(OutOfDomain):
            parabola_curve.value(parabola_curve.domain[1] + 0.1)

    def test_shipped_curve_knots(self):
        curve = fit_risk_curve(LOW_POLLUTION_POINTS)
        for t, r in LOW_POLLUTION_POINTS:
            assert curve.value(t) == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize(
        "points",
        [
            pytest.param(np.array(LOW_POLLUTION_POINTS), id="low"),
            pytest.param(np.array(HIGH_POLLUTION_POINTS), id="high"),
            *(
                pytest.param(pts, id=f"ragged-{i}")
                for i, pts in enumerate(list(reference_curves())[2:10])
            ),
            # 298 interior knots: more pieces than an 8-bit index can count
            pytest.param(convex_points(np.random.default_rng(300), 300), id="300-knots"),
        ],
    )
    def test_array_equals_scalar_calls(self, points):
        curve = fit_risk_curve(points)
        knots = points[:, 0]
        # every knot and the floats either side, so both domain ends too
        t = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
        for f in (curve.value, curve.derivative, curve.second_derivative):
            array = f(t)
            assert_array_equal(array, [f(x) for x in t.tolist()])
            assert_array_equal(f(t.reshape(3, -1)), array.reshape(3, -1))
        # at a knot the offset into its piece is 0, so the value is the point's
        assert_array_equal(curve.value(knots[:-1]), points[:-1, 1])


class TestEvalDerivative:
    def test_zero_at_minimizer(self, parabola_curve):
        assert parabola_curve.derivative(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_parabola_closed_form(self, parabola_curve):
        assert parabola_curve.derivative(2.0) == pytest.approx(2.0, abs=1e-6)

    def test_out_of_domain(self, parabola_curve):
        with pytest.raises(OutOfDomain):
            parabola_curve.derivative(parabola_curve.domain[0] - 0.01)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        curve = random_convex_curve(rng)
        lo, hi = curve.domain
        h = 1e-5
        ts = rng.uniform(lo + 2 * h, hi - 2 * h, 100)
        for t in ts:
            fd = (curve.value(t + h) - curve.value(t - h)) / (2 * h)
            an = curve.derivative(t)
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestDigitizedCurve:
    """Fitted shipped low-pollution curve vs a brute-force grid scan."""

    def test_tipping_and_breakeven_match_grid_scan(self):
        curve = fit_risk_curve(LOW_POLLUTION_POINTS)
        lo, hi = curve.domain
        grid = np.linspace(lo, hi, 10_000)
        step = (hi - lo) / (len(grid) - 1)
        vals = curve.value(grid)
        assert abs(grid[int(np.argmin(vals))] - curve.tipping_point) <= step

        ref = curve.value(lo)
        above = grid[(grid > curve.tipping_point) & (vals >= ref)]
        assert curve.breakeven_point is not None
        assert abs(above[0] - curve.breakeven_point) <= step

    def test_breakeven_absent_when_never_regained(self):
        # truncate the domain before the curve climbs back past f(t_lo)
        pts = [(t, r) for t, r in LOW_POLLUTION_POINTS if t < 1.9]
        curve = fit_risk_curve(pts)
        assert curve.breakeven_point is None


class TestSpeedRisk:
    def test_minimizer_mapping(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        assert g.minimizer == pytest.approx(2.0, abs=1e-6)

    def test_derivative_zero_at_minimizer(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        assert g.derivative(g.minimizer) == pytest.approx(0.0, abs=1e-8)

    def test_derivative_hand_chain_rule(self, parabola_curve):
        # g'(4) = -(2/16) f'(0.5) = -(0.125)(-1.0) = 0.125
        g = SpeedRisk(parabola_curve, 2.0)
        assert g.derivative(4.0) == pytest.approx(0.125, abs=1e-6)

    def test_value_matches_composition_everywhere(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        ss = np.linspace(*g.speed_domain, 1000)
        np.testing.assert_allclose(
            g.value(ss), parabola_curve.value(2.0 / ss), atol=1e-12
        )

    def test_chain_rule_identity_on_grid(self):
        rng = np.random.default_rng(11)
        curve = random_convex_curve(rng)
        g = SpeedRisk(curve, 2.5)
        ss = np.linspace(*g.speed_domain, 1000)
        lhs = g.derivative(ss)
        rhs = -(2.5 / ss**2) * curve.derivative(2.5 / ss)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_out_of_domain_speed(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        with pytest.raises(OutOfDomain):
            g.value(g.speed_domain[1] + 1.0)


_BLOCK = GRID_BLOCK // 3  # triples per block of check_quasi_convexity


class BadComposition:
    """f(y) = y^2 composed with the non-monotone h(x) = x^2 - x."""

    speed_domain = (0.05, 0.95)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return (x * x - x) ** 2


class TinyDomain:
    """A parabola on a domain five floats wide, 1 + k 2**-52 for k = 0..4."""

    speed_domain = (1.0, 1.0 + 2.0**-50)

    def value(self, x):
        return np.square(np.asarray(x, dtype=float) - (1.0 + 2.0**-51))


class Steps:
    """|x - 1/2| in steps of 2**-20 on [0, 1]: strictly quasi-convex, except
    that points in one step tie, and those lie within QC_SEPARATION."""

    speed_domain = (0.0, 1.0)

    def value(self, x):
        return np.abs(np.floor(np.asarray(x, dtype=float) * 2.0**20) - 2.0**19)


def _whole_array_check(g, samples, seed):
    """check_quasi_convexity on one draw of every triple, each row sorted."""
    lo, hi = g.speed_domain
    triples = np.random.default_rng(seed).uniform(lo, hi, size=(samples, 3))
    triples.sort(axis=1)
    distinct = (triples[:, 0] < triples[:, 1]) & (triples[:, 1] < triples[:, 2])
    triples = triples[distinct]
    gu, gx, gv = (g.value(triples[:, k]) for k in range(3))
    top = np.maximum(gu, gv)
    gap = np.minimum(triples[:, 1] - triples[:, 0], triples[:, 2] - triples[:, 1])
    close = gap <= QC_SEPARATION * (hi - lo)
    bad = np.where(close, gx > top + 8 * np.spacing(np.abs(top)), gx >= top)
    if not bad.any():
        return QuasiConvexityReport(True, len(triples), None)
    i = int(np.argmax(bad))
    u, x, v = triples[i]
    counterexample = (u, x, v, float(gu[i]), float(gx[i]), float(gv[i]))
    return QuasiConvexityReport(False, len(triples), counterexample)


class TestQuasiConvexity:
    def test_accepted_curves_pass(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        report = check_quasi_convexity(g, samples=10_000, seed=3)
        assert report.passed
        assert report.counterexample is None

    def test_non_monotone_composition_fails(self):
        report = check_quasi_convexity(BadComposition(), samples=10_000, seed=5)
        assert not report.passed
        u, x, v, gu, gx, gv = report.counterexample
        assert u < x < v
        assert gx >= max(gu, gv)

    def test_too_few_samples(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        with pytest.raises(DegenerateInput):
            check_quasi_convexity(g, samples=2)

    def test_ties_of_nearly_coincident_points_are_excused(self):
        g, samples, seed = Steps(), 100_000, 4
        triples = np.random.default_rng(seed).uniform(0.0, 1.0, size=(samples, 3))
        gu, gx, gv = (g.value(c) for c in np.sort(triples, axis=1).T)
        assert np.sum(gx >= np.maximum(gu, gv)) == 1  # one triple ties
        report = check_quasi_convexity(g, samples, seed=seed)
        assert report.passed
        assert report == _whole_array_check(g, samples, seed)

    @pytest.mark.parametrize(
        "samples",
        [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1, 10_000],
    )
    def test_blocks_report_as_one_whole_array(self, samples):
        bank = _group(ragged=True)
        doubles = [
            SpeedRisk(fit_risk_curve(LOW_POLLUTION_POINTS), 8.0),
            SpeedRisk(fit_risk_curve(HIGH_POLLUTION_POINTS), 12.0),
            bank[0],
            bank[1],
            bank[2],
            BadComposition(),
            TinyDomain(),
        ]
        for seed in range(5):
            for g in doubles:
                report = check_quasi_convexity(g, samples, seed=seed)
                assert report == _whole_array_check(g, samples, seed)
        if samples > 3:
            assert not check_quasi_convexity(BadComposition(), samples).passed
        # most draws on a domain five floats wide tie, and are dropped
        report = check_quasi_convexity(TinyDomain(), samples)
        assert report.passed and report.n_triples < samples


def _group_spec(ragged):
    """25 agents: shipped 10-point curves, or 4-12 points per agent."""
    spec = scen.BUILTIN_SPECS["high_pollution"] | {"n_agents": 25}
    if ragged:
        rng = np.random.default_rng(8)
        curves = [convex_points(rng, m).tolist() for m in rng.integers(4, 13, 25)]
        spec = spec | {"curves": {"per_agent_control_points": curves}}
    return spec


def _group(ragged):
    """A scenario's risks, as the bank `build_risks` gives."""
    return scen.generate_scenario(_group_spec(ragged)).build_risks()


NAN, INF = float("nan"), float("inf")


def _edited_parabola(i, j, value):
    """parabola_points() with coordinate j of point i set to value."""
    pts = [list(p) for p in parabola_points()]
    pts[i][j] = value
    return pts


def _raises(f, x):
    try:
        f(x)
    except OutOfDomain:
        return True
    return False


class TestRiskBank:
    def test_nonpositive_distance(self):
        with pytest.raises(DegenerateInput, match="positive, got 0.0"):
            RiskBank([parabola_points()] * 2, [2.0, 0.0])
        with pytest.raises(DegenerateInput, match="positive, got -1.0"):
            RiskBank([parabola_points()] * 3, [2.0, -1.0, -3.0])
        with pytest.raises(DegenerateInput, match="positive, got nan"):
            RiskBank([parabola_points()] * 2, [float("nan"), 2.0])

    @pytest.mark.parametrize(
        "points, distance",
        [
            pytest.param(_edited_parabola(0, 0, NAN), 2.0, id="nan-time"),
            pytest.param(_edited_parabola(7, 0, INF), 2.0, id="inf-time"),
            pytest.param(_edited_parabola(3, 1, NAN), 2.0, id="nan-risk"),
            pytest.param(_edited_parabola(3, 1, INF), 2.0, id="inf-risk"),
            pytest.param(_edited_parabola(3, 1, -INF), 2.0, id="minus-inf-risk"),
            pytest.param(parabola_points(), INF, id="inf-distance"),
        ],
    )
    def test_non_finite_input(self, points, distance):
        with pytest.raises(DegenerateInput, match="finite"):
            RiskBank([parabola_points(), points], [1.0, distance])

    @pytest.mark.parametrize("distance", [1e-300, 1e308])
    def test_extreme_distance(self, distance):
        with pytest.raises(DegenerateInput, match=re.escape(f"distance {distance} km")):
            RiskBank([parabola_points()] * 2, [2.0, distance])

    def test_speeds_from_2_to_the_minus_340_to_2_to_the_340_cube(self):
        # parabola_points() spans [0.25, 2] h: speeds d/2 to 4d
        for d, edge in ((2.0**-339, 0.0), (2.0**338, np.inf)):
            bank = RiskBank([parabola_points()], [d])
            assert bank.domain == (d / 2.0, d * 4.0)
            for s in bank.domain:
                for f in (bank.value, bank.derivative, bank.second_derivative):
                    assert np.isfinite(f(s)).all()
                assert 0.0 < abs(bank.second_derivative(s)[0]) < np.inf
            beyond = float(np.nextafter(d, edge))
            with pytest.raises(DegenerateInput, match=re.escape(f"distance {beyond} km")):
                RiskBank([parabola_points()], [beyond])

    def test_empty_bank_has_no_domain(self):
        with pytest.raises(DegenerateInput, match="empty"):
            RiskBank([], []).domain
        with pytest.raises(DegenerateInput, match="empty"):
            RiskBank([], []).clamp(1.0)

    def test_domain_is_the_intersection(self):
        bank = _group(ragged=True)
        assert bank.domain == (np.max(bank.lo), np.min(bank.hi))
        disjoint = RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 30.0])
        for _ in range(2):  # on every read
            with pytest.raises(EmptyDomainIntersection, match="empty"):
                disjoint.domain

    def test_distance_count_must_match_curves(self):
        with pytest.raises(DimensionMismatch):
            RiskBank([parabola_points()] * 2, [2.0])

    @pytest.mark.parametrize("ragged", [False, True])
    def test_equals_per_agent_methods(self, ragged):
        bank = _group(ragged)
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = rng.uniform(bank.lo, bank.hi)
            assert_array_equal(bank.value(s), [g.value(x) for g, x in zip(bank, s)])
            assert_array_equal(
                bank.derivative(s), [g.derivative(x) for g, x in zip(bank, s)]
            )
            assert_array_equal(
                bank.second_derivative(s),
                [g.second_derivative(x) for g, x in zip(bank, s)],
            )
            wide = rng.uniform(bank.lo - 5.0, bank.hi + 5.0)
            assert_array_equal(
                bank.clamp(wide), np.clip(wide, np.max(bank.lo), np.min(bank.hi))
            )
        for y in np.linspace(np.max(bank.lo), np.min(bank.hi), 50):
            assert_array_equal(bank.value(y), [g.value(y) for g in bank])
            assert_array_equal(bank.derivative(y), [g.derivative(y) for g in bank])
            assert_array_equal(
                bank.second_derivative(y), [g.second_derivative(y) for g in bank]
            )
            terms = [g.distance * g.base.derivative(g.distance / y) for g in bank]
            assert bank.phi(y) == np.sum(terms)

    @pytest.mark.parametrize("ragged", [False, True])
    def test_a_stack_of_rows_equals_one_call_per_row(self, ragged):
        bank = _group(ragged)
        lo, hi = bank.domain
        rng = np.random.default_rng(12)
        for _ in range(20):
            # the speeds s_i, each in its own domain, and one common speed
            s, y = rng.uniform(bank.lo, bank.hi), rng.uniform(lo, hi)
            rows = np.stack([s, np.full(len(bank), y)])
            expected = np.stack([bank.derivative(s), bank.derivative(y)])
            assert bank.derivative(rows).tobytes() == expected.tobytes()
            assert bank._derivative_in_domain(rows).tobytes() == expected.tobytes()

    def test_a_stack_raises_where_a_row_raises(self):
        bank = _group(ragged=True)
        mid = 0.5 * (bank.lo + bank.hi)
        outcomes = set()
        for i in (0, len(bank) - 1):
            for edge, side in ((bank.lo[i], -1.0), (bank.hi[i], 1.0)):
                for offset in (0.0, 0.5e-12, 2e-12, 1e-6):
                    s = mid.copy()
                    s[i] = edge + side * offset
                    raised = _raises(bank.derivative, s)
                    for rows in (np.stack([s, mid]), np.stack([mid, s])):
                        assert _raises(bank.derivative, rows) == raised
                    outcomes.add(raised)
        assert outcomes == {True, False}

    def test_out_of_domain_exactly_where_per_agent_raises(self):
        bank = _group(ragged=True)
        mid = 0.5 * (bank.lo + bank.hi)
        outcomes = set()
        for i, g in enumerate(bank):
            for edge, side in ((bank.lo[i], -1.0), (bank.hi[i], 1.0)):
                for offset in (0.0, 0.5e-12, 2e-12, 1e-6):
                    s = mid.copy()
                    s[i] = edge + side * offset
                    for method in ("value", "derivative", "second_derivative"):
                        raised = _raises(getattr(bank, method), s)
                        assert raised == _raises(getattr(g, method), s[i])
                        outcomes.add(raised)
                    raised = _raises(bank.derivative, s[i])
                    assert raised == any(_raises(h.derivative, s[i]) for h in bank)
            for t in g.base.domain:
                for offset in (-2e-12, -0.5e-12, 0.0, 0.5e-12, 2e-12):
                    y = g.distance / (t + offset)
                    per_agent = [
                        _raises(h.base.derivative, h.distance / y) for h in bank
                    ]
                    assert _raises(bank.phi, y) == any(per_agent)
        assert outcomes == {True, False}


def _per_point_total(bank, s):
    """sum_i bank[i].value(s), added in agent order."""
    total = np.zeros(len(s))
    for g in bank:
        total += g.value(s)
    return total


def _six_and_ten_point_bank():
    """A bank mixing 6- and 10-point curves, so pieces differ per agent."""
    rng = np.random.default_rng(31)
    points = [convex_points(rng, m) for m in (6, 10, 6, 10, 10, 6)]
    bank = RiskBank(points, [4.0, 5.0, 4.5, 6.0, 5.5, 5.0])
    assert sorted({len(g.base.control_points) for g in bank}) == [6, 10]
    return bank


class TestTotalValue:
    @pytest.mark.parametrize(
        "make_bank",
        [
            pytest.param(lambda: _group(ragged=False), id="shipped"),
            pytest.param(lambda: _group(ragged=True), id="ragged"),
            pytest.param(_six_and_ten_point_bank, id="six-and-ten"),
            # d/(d/3.2) rounds above t_hi = 3.2, so the time needs the clip
            pytest.param(
                lambda: RiskBank([LOW_POLLUTION_POINTS], [12.806]), id="time-past-t_hi"
            ),
        ],
    )
    def test_equals_per_point_sum(self, make_bank):
        bank = make_bank()
        lo, hi = bank.domain
        # every d_i/knot inside the domain, and the floats on either side of it
        at_knots = np.concatenate(
            [g.distance / np.asarray(g.base.control_points)[:, 0] for g in bank]
        )
        at_knots = at_knots[(at_knots >= lo) & (at_knots <= hi)]
        assert at_knots.size
        near = [np.nextafter(at_knots, lo), at_knots, np.nextafter(at_knots, hi)]
        grids = [
            np.linspace(lo, hi, 2 * GRID_BLOCK + 5),  # ends at the domain ends
            np.unique(np.concatenate([[lo, hi], *near])),
            np.array([lo]),
            np.array([hi, hi]),
        ]
        for s in grids:
            assert np.array_equal(bank.total_value(s), _per_point_total(bank, s))
        assert bank.total_value(np.array([])).shape == (0,)

    def test_rejects_a_grid_that_is_not_increasing(self):
        bank = _group(ragged=False)
        s = np.linspace(*bank.domain, 100)
        with pytest.raises(DegenerateInput, match="increasing"):
            bank.total_value(s[::-1])
        with pytest.raises(DegenerateInput, match="increasing"):
            bank.total_value(np.append(s, np.nan))
        with pytest.raises(DegenerateInput, match="increasing"):
            bank.total_value(s.reshape(10, 10))

    def test_rejects_a_grid_outside_the_domain(self):
        bank = _group(ragged=False)
        lo, hi = bank.domain
        for s in ([np.nextafter(lo, 0.0), hi], [lo, np.nextafter(hi, np.inf)]):
            with pytest.raises(OutOfDomain):
                bank.total_value(np.linspace(*s, 100))


def _reference_f(points, t, nu):
    """f's nu-th derivative at times t inside its domain, one point at a time.

    The piece is an np.searchsorted over the interior knots, and the value is
    Horner's rule in Python floats over that piece's four coefficients from
    the fit's own solve: an evaluator that shares no code with the bank's.
    """
    times, risks = np.array(points, dtype=float).T
    coef = _not_a_knot(times, risks)
    out = []
    for x in np.ravel(t).tolist():
        j = int(np.searchsorted(times[1:-1], x, side="right"))
        c0, c1, c2, c3 = coef[:, j].tolist()
        z = x - float(times[j])
        if nu == 0:
            out.append(((c0 * z + c1) * z + c2) * z + c3)
        elif nu == 1:
            out.append((3.0 * c0 * z + 2.0 * c1) * z + c2)
        else:
            out.append(6.0 * c0 * z + 2.0 * c1)
    return np.reshape(out, np.shape(t))


def _reference_g(points, d, s):
    """g, g' and g'' at speeds s of one agent, from _reference_f and the chain rule."""
    times = np.array(points, dtype=float)[:, 0]
    t = np.clip(d / s, times[0], times[-1])
    f0, f1, f2 = (_reference_f(points, t, nu) for nu in range(3))
    q = d / (s * s)
    return f0, -q * f1, q * q * f2 + (2.0 * d / (s * s * s)) * f1


def _bank_of_300_and_4_knots():
    """A 300-knot agent beside 4- and 7-point agents: rows padded 296 deep."""
    rng = np.random.default_rng(300)
    points = [convex_points(rng, m) for m in (300, 4, 4, 7)]
    return points, RiskBank(points, [5.0, 5.5, 6.0, 5.2])


def _with_points(make_bank):
    bank = make_bank()
    return [np.array(g.base.control_points) for g in bank], bank


class TestReferenceEvaluator:
    """Every evaluation path against `_reference_f`, bit for bit."""

    BANKS = [
        pytest.param(lambda: _with_points(lambda: _group(ragged=False)), id="shipped"),
        pytest.param(lambda: _with_points(lambda: _group(ragged=True)), id="ragged"),
        pytest.param(lambda: _with_points(_six_and_ten_point_bank), id="six-and-ten"),
        pytest.param(_bank_of_300_and_4_knots, id="300-and-4"),
    ]

    @pytest.mark.parametrize("make", BANKS)
    def test_bank_methods(self, make):
        points, bank = make()
        n, d = len(bank), bank.distance
        lo, hi = bank.domain
        rng = np.random.default_rng(21)
        # rows of one speed per agent, each agent's domain ends among them
        own = np.vstack([bank.lo, bank.hi, rng.uniform(bank.lo, bank.hi, (30, n))])
        common = np.linspace(lo, hi, 9)
        # the consensus stack: clamped speeds, and one common speed repeated
        stack = np.stack([np.clip(own[2], lo, hi), np.full(n, common[4])])
        for speeds in (own[2], own, stack):
            want = [_reference_g(p, d[i], speeds[..., i]) for i, p in enumerate(points)]
            for nu, method in enumerate(("value", "derivative", "second_derivative")):
                expected = np.stack([w[nu] for w in want], axis=-1)
                assert getattr(bank, method)(speeds).tobytes() == expected.tobytes()
        expected = np.stack([w[1] for w in want], axis=-1)
        assert bank._derivative_in_domain(stack).tobytes() == expected.tobytes()
        for y in common.tolist():
            want = [_reference_g(p, d[i], np.array(y)) for i, p in enumerate(points)]
            for nu, method in enumerate(("value", "derivative", "second_derivative")):
                expected = np.array([w[nu] for w in want])
                assert getattr(bank, method)(y).tobytes() == expected.tobytes()
            times = [np.clip(d[i] / y, p[0, 0], p[-1, 0]) for i, p in enumerate(points)]
            f1 = np.array([_reference_f(p, t, 1) for p, t in zip(points, times)])
            assert bank.phi(y) == float(np.sum(d * f1))

    @pytest.mark.parametrize("make", BANKS)
    def test_total_value(self, make):
        points, bank = make()
        grid = np.linspace(*bank.domain, GRID_BLOCK + 7)
        want = np.zeros(len(grid))
        for p, d in zip(points, bank.distance):
            want += _reference_g(p, d, grid)[0]
        assert bank.total_value(grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", BANKS)
    def test_per_agent_curves(self, make):
        points, bank = make()
        rng = np.random.default_rng(22)
        for p, g in zip(points, bank):
            knots = p[:, 0]
            # every knot and the floats either side, inside the domain
            near = [knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)]
            t = np.clip(np.concatenate(near), knots[0], knots[-1])
            block = rng.uniform(g.lo, g.hi, size=(3, 40))
            for nu, method in enumerate(("value", "derivative", "second_derivative")):
                f = getattr(g.base, method)
                assert f(t).tobytes() == _reference_f(p, t, nu).tobytes()
                assert [f(x) for x in t[:12].tolist()] == _reference_f(p, t[:12], nu).tolist()
                want = _reference_g(p, g.distance, block)[nu]
                assert getattr(g, method)(block).tobytes() == want.tobytes()
                assert getattr(g, method)(float(block[0, 0])) == want[0, 0]


class TestBuildRisks:
    def test_bank_of_fitted_speed_risks_in_agent_order(self):
        scenario = scen.generate_scenario(_group_spec(ragged=True))
        bank = scenario.build_risks()
        assert isinstance(bank, RiskBank)
        expected = [
            SpeedRisk(fit_risk_curve(pts), d)
            for pts, d in zip(scenario.control_points, scenario.distances)
        ]
        assert len(bank) == len(expected) == 25
        assert [bank[i] for i in range(len(bank))] == expected
        assert list(bank) == expected
        assert_array_equal(bank.distance, scenario.distances)
