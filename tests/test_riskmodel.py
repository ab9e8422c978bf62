import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.interpolate import CubicSpline

from groupspeed import scenario as scen
from groupspeed.errors import (
    DegenerateInput,
    DimensionMismatch,
    InteriorMinimumMissing,
    NonConvexFit,
    OutOfDomain,
)
from groupspeed.riskmodel import (
    RiskBank,
    SpeedRisk,
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


class TestQuasiConvexity:
    def test_accepted_curves_pass(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        report = check_quasi_convexity(g, samples=10_000, seed=3)
        assert report.passed
        assert report.counterexample is None

    def test_non_monotone_composition_fails(self):
        class BadComposition:
            # f(y) = y^2 composed with non-monotone h(x) = x^2 - x
            speed_domain = (0.05, 0.95)

            def value(self, x):
                x = np.asarray(x, dtype=float)
                return (x * x - x) ** 2

        report = check_quasi_convexity(BadComposition(), samples=10_000, seed=5)
        assert not report.passed
        u, x, v, gu, gx, gv = report.counterexample
        assert u < x < v
        assert gx >= max(gu, gv)

    def test_too_few_samples(self, parabola_curve):
        g = SpeedRisk(parabola_curve, 2.0)
        with pytest.raises(DegenerateInput):
            check_quasi_convexity(g, samples=2)


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
                bank.clamp(wide), [g.clamp(x) for g, x in zip(bank, wide)]
            )
        for y in np.linspace(np.max(bank.lo), np.min(bank.hi), 50):
            assert_array_equal(bank.value(y), [g.value(y) for g in bank])
            assert_array_equal(bank.derivative(y), [g.derivative(y) for g in bank])
            assert_array_equal(
                bank.second_derivative(y), [g.second_derivative(y) for g in bank]
            )
            terms = [g.distance * g.base.derivative(g.distance / y) for g in bank]
            assert bank.phi(y) == np.sum(terms)

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
