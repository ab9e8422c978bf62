import numpy as np
import pytest

from groupspeed import oracle
from groupspeed.errors import DegenerateInput, EmptyDomainIntersection
from groupspeed.riskmodel import RiskBank, fit_risk_curve

from conftest import parabola_points, random_convex_points


@pytest.fixture
def quadratic_pair():
    """Two agents with f_i(t) = (t-1)^2 + 1, d = (2, 3); s* = 13/5 closed form."""
    return RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 3.0])


class TestSolveCommonSpeed:
    def test_quadratic_closed_form(self, quadratic_pair):
        cert = oracle.solve_common_speed(quadratic_pair, tol=1e-10)
        assert cert.s_star == pytest.approx(2.6, abs=1e-8)
        assert abs(cert.residual) < 1e-7
        assert not cert.at_boundary
        assert cert.bracket <= 1e-10

    def test_travel_times_consistent(self, quadratic_pair):
        cert = oracle.solve_common_speed(quadratic_pair)
        for g, t in zip(quadratic_pair, cert.t_star_list):
            assert t * cert.s_star == pytest.approx(g.distance, rel=1e-12)

    def test_identical_agents(self):
        curve = fit_risk_curve(parabola_points())
        g_list = RiskBank([parabola_points()] * 5, [2.0] * 5)
        cert = oracle.solve_common_speed(g_list, tol=1e-10)
        assert cert.s_star == pytest.approx(2.0 / curve.tipping_point, abs=1e-6)

    def test_single_agent(self):
        curve = fit_risk_curve(parabola_points())
        bank = RiskBank([parabola_points()], [3.0])
        cert = oracle.solve_common_speed(bank, tol=1e-10)
        assert cert.s_star == pytest.approx(3.0 / curve.tipping_point, abs=1e-6)

    def test_boundary_optimum_flagged(self):
        # common domain [7.5, 8] clips the unconstrained root 229/17 ~ 13.5
        g_list = RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 15.0])
        cert = oracle.solve_common_speed(g_list)
        assert cert.at_boundary
        assert cert.s_star == pytest.approx(8.0, rel=1e-12)

    def test_empty_domain_intersection(self):
        g_list = RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 30.0])
        with pytest.raises(EmptyDomainIntersection):
            oracle.solve_common_speed(g_list)

    def test_empty_agent_list(self):
        with pytest.raises(DegenerateInput):
            oracle.solve_common_speed([])

    def test_empty_bank(self):
        with pytest.raises(DegenerateInput):
            oracle.solve_common_speed(RiskBank([], []))


class LinearPhi:
    """Test double for a RiskBank: phi(s) = sum_i (a_i - s) on [12.5, 30].

    phi decreases through its root mean(a_i). derivative and distance serve
    the certificate only.
    """

    domain = (12.5, 30.0)

    def __init__(self, a):
        self.a = np.array(a, dtype=float)
        self.distance = np.ones(len(self.a))

    def __len__(self):
        return len(self.a)

    def phi(self, s):
        return float(np.sum(self.a - s))

    def derivative(self, s):
        return (s - self.a) / (s * s)


class TestRootOnTheDomain:
    """The bisection keeps the half where phi changes sign, even at an end."""

    @pytest.mark.parametrize(
        "a, root",
        [
            pytest.param([12.5, 12.5], 12.5, id="root-at-lo"),
            pytest.param([15.0, 20.0], 17.5, id="root-inside"),
            pytest.param([30.0, 30.0], 30.0, id="root-at-hi"),
        ],
    )
    def test_finds_the_root(self, a, root):
        cert = oracle.solve_common_speed(LinearPhi(a), tol=1e-8)
        assert abs(cert.s_star - root) <= 1e-8
        assert cert.bracket <= 1e-8
        assert not cert.at_boundary


class TestSignStructure:
    def test_phi_decreasing_through_root(self, quadratic_pair):
        cert = oracle.solve_common_speed(quadratic_pair, tol=1e-10)
        delta = 1e-3
        bank = quadratic_pair
        assert bank.phi(cert.s_star - delta) > 0
        assert bank.phi(cert.s_star + delta) < 0

    def test_derivative_sum_identity(self, quadratic_pair):
        # sum g_i'(s) == -(1/s^2) sum d_i f_i'(d_i/s)
        bank = quadratic_pair
        lo, hi = bank.domain
        for s in np.linspace(lo, hi, 200):
            lhs = np.sum(bank.derivative(s))
            rhs = -bank.phi(s) / s**2
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBruteForceVerify:
    def test_quadratic_grid_scan(self, quadratic_pair):
        cert = oracle.solve_common_speed(quadratic_pair, tol=1e-10)
        report = oracle.brute_force_verify(quadratic_pair, cert.s_star, grid=100_000)
        assert report.passed
        assert report.offset <= report.grid_step

    def test_symmetric_case(self):
        curve = fit_risk_curve(parabola_points())
        g_list = RiskBank([parabola_points()] * 3, [2.0] * 3)
        report = oracle.brute_force_verify(g_list, 2.0 / curve.tipping_point)
        assert report.passed

    def test_random_curves_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            agents = [
                (random_convex_points(rng), float(rng.uniform(1.5, 3.0)))
                for _ in range(4)
            ]
            g_list = RiskBank(*zip(*agents))
            cert = oracle.solve_common_speed(g_list, tol=1e-9)
            if cert.at_boundary:
                continue
            assert oracle.brute_force_verify(g_list, cert.s_star, grid=10_000).passed

    def test_rejects_small_grid(self, quadratic_pair):
        with pytest.raises(DegenerateInput):
            oracle.brute_force_verify(quadratic_pair, 2.6, grid=100)
