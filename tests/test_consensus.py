import dataclasses
from pathlib import Path

import numpy as np
import pytest

from groupspeed import consensus
from groupspeed.consensus import FORM_AGREEMENT_TOL, SolverConfig
from groupspeed.errors import DimensionMismatch
from groupspeed.netsim import CompleteTopology, FixedTopology, RandomFailureTopology
from groupspeed.riskmodel import RiskBank
from groupspeed.scenario import load_scenario

from conftest import QuadraticGroup, parabola_points, random_convex_curve

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _config(mu=0.1, **kw):
    defaults = dict(consensus_tol=1e-8, optimality_tol=1e-8, max_iterations=2000)
    defaults.update(kw)
    return SolverConfig(mu=mu, **defaults)


class TestCoupling:
    def test_zero_at_individual_minimizers(self):
        g_list = RiskBank([parabola_points()] * 3, [1.0, 2.0, 3.0])
        s = [g.minimizer for g in g_list]
        assert consensus.coupling(g_list, s, mu=0.2) == pytest.approx(
            0.0, abs=3e-8
        )

    def test_quadratic_closed_form(self):
        g_list = QuadraticGroup([2.0, 2.0])
        # -0.1 * (2(1-2) + 2(2-2)) = 0.2
        assert consensus.coupling(g_list, [1.0, 2.0], mu=0.1) == pytest.approx(0.2)

    def test_mu_zero_limit(self):
        g_list = QuadraticGroup([3.0])
        assert consensus.coupling(g_list, [7.0], mu=0.0) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            consensus.coupling(QuadraticGroup([1.0]), [1.0, 2.0], mu=0.1)

    def test_dimension_mismatch_real_bank(self):
        bank = RiskBank([parabola_points()] * 2, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            consensus.coupling(bank, [1.5, 1.5, 1.5], mu=0.1)


class TestStep:
    def test_fixed_point_identity_matrix(self):
        g_list = QuadraticGroup([2.0, 5.0])
        out = consensus.step(np.array([2.0, 5.0]), np.eye(2), g_list, _config())
        np.testing.assert_allclose(out, [2.0, 5.0], atol=1e-15)

    def test_hand_computed_two_agent_step(self):
        g_list = QuadraticGroup([2.0, 2.0])
        P = np.full((2, 2), 0.5)
        out = consensus.step(np.array([1.0, 3.0]), P, g_list, _config(mu=0.1))
        # Ps = (2, 2); G = -0.1 (2(1-2) + 2(3-2)) = 0
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-15)

    def test_consensus_optimum_is_equilibrium(self):
        g_list = QuadraticGroup([1.0, 3.0])
        # sum g_i'(2) = 2(2-1) + 2(2-3) = 0
        P = np.full((2, 2), 0.5)
        out = consensus.step(np.array([2.0, 2.0]), P, g_list, _config(mu=0.3))
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-15)

    def test_dimension_mismatch(self):
        g_list = QuadraticGroup([1.0])
        with pytest.raises(DimensionMismatch):
            consensus.step(np.array([1.0]), np.eye(2), g_list, _config())


class TestFormEquivalence:
    """Matrix form and the per-agent update must produce identical vectors."""

    def test_random_states_and_topologies(self):
        rng = np.random.default_rng(17)
        pts = parabola_points(lo=0.25, hi=2.0)
        g_list = RiskBank([pts] * 6, rng.uniform(1.5, 3.0, 6))
        config = _config(mu=0.05)
        for trial in range(100):
            top = RandomFailureTopology(6, 0.6, seed=trial)
            speeds = np.array(
                [rng.uniform(*g.speed_domain) for g in g_list]
            )
            k = int(rng.integers(0, 50))
            a = consensus.step(speeds, top.build_matrix(k), g_list, config)
            b = consensus.step_per_agent(speeds, top, k, g_list, config)
            np.testing.assert_allclose(a, b, atol=FORM_AGREEMENT_TOL)


class TestRun:
    def test_quadratic_equal_distances_mean_of_minimizers(self):
        a = [1.0, 2.0, 3.0, 6.0]
        g_list = QuadraticGroup(a)
        trace = consensus.run([5.0, 1.0, 4.0, 2.0], CompleteTopology(4),
                              g_list, _config(mu=0.05))
        assert trace.converged
        assert trace.stop_reason == "converged"
        assert trace.final_common_speed == pytest.approx(np.mean(a), abs=1e-6)

    def test_single_agent_scalar_descent(self):
        bank = RiskBank([parabola_points()], [2.0])
        trace = consensus.run([3.5], CompleteTopology(1), bank,
                              _config(mu=1.0, max_iterations=200))
        assert trace.converged
        assert trace.final_common_speed == pytest.approx(2.0, abs=1e-4)

    def test_disconnected_cliques_spread_stuck(self):
        g_list = QuadraticGroup([2.0] * 4)
        top = FixedTopology(4, [(0, 1), (2, 3)])
        trace = consensus.run([1.0, 1.0, 9.0, 9.0], top, g_list,
                              _config(mu=1e-12, consensus_tol=0.01,
                                      optimality_tol=1.0, max_iterations=50))
        assert not trace.converged
        assert trace.stop_reason == "no convergence within 50 iterations"
        assert trace.iterations == 50
        assert trace.spreads[-1] > 0.01
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.stop_reason = "converged"

    def test_divergence_guard_attaches_trace(self):
        g_list = QuadraticGroup([0.0, 0.0])
        # mu far beyond the stability bound 2 / (2 n) = 0.5
        trace = consensus.run([1.0, 1.1], CompleteTopology(2), g_list,
                              _config(mu=50.0, max_iterations=100))
        assert trace.stop_reason == "no convergence within 100 iterations"
        assert len(trace.speeds) == len(trace.spreads) == 101

    @pytest.mark.parametrize(
        "start, mu, iterations",
        [
            # G(s) = -1e300 * sum 2 s_i overflows: s(1) ~ -4e300, s(2) = inf
            ([1.0, 1.1], 1e300, 2),
            ([1.0, np.nan], 0.1, 0),
        ],
        ids=["overflow", "nan-start"],
    )
    def test_non_finite_speeds_stop_the_run(self, start, mu, iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            trace = consensus.run(start, CompleteTopology(2), QuadraticGroup([0, 0]),
                                  _config(mu=mu))
        assert trace.stop_reason == "non-finite speeds encountered"
        assert trace.iterations == iterations
        assert not np.all(np.isfinite(trace.final_speeds))

    def test_near_agreement_start_with_clamped_step_converges(self):
        # mu = 24 lies inside the stability interval (0, 31.77) at s* = 14.31.
        # The first step clamps agents at different domain edges, so the spread
        # jumps from 1.4e-6 to several km/h; the run still converges, as it does
        # from exactly equal speeds.
        s = load_scenario(SCENARIOS / "low_pollution.json")
        config = SolverConfig(mu=24.0, consensus_tol=0.005)
        starts = [np.full(15, 8.0), 8.0 + 1e-7 * np.arange(15)]
        traces = [consensus.run(s0, s.build_topology(), s.build_risks(), config)
                  for s0 in starts]
        assert [t.stop_reason for t in traces] == ["converged", "converged"]
        assert traces[1].spreads[1] > 1e3 * traces[1].spreads[0]

    def test_monotone_spread_complete_graph_no_coupling(self):
        rng = np.random.default_rng(3)
        g_list = QuadraticGroup([2.0] * 5)
        speeds = rng.uniform(0.0, 10.0, 5)
        top = CompleteTopology(5)
        config = _config(mu=1e-300)  # effectively G = 0
        spreads = [float(np.ptp(speeds))]
        for k in range(10):
            speeds = consensus.step(speeds, top.build_matrix(k), g_list, config)
            spreads.append(float(np.ptp(speeds)))
        assert all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_determinism_bitwise(self):
        g_list = RiskBank([parabola_points()] * 3, [1.8, 2.0, 2.2])
        config = _config(mu=0.5, consensus_tol=1e-6, optimality_tol=1e-6)
        runs = []
        for _ in range(2):
            top = RandomFailureTopology(3, 0.8, seed=99)
            runs.append(consensus.run([2.5, 1.5, 3.0], top, g_list, config))
        for s1, s2 in zip(runs[0].speeds, runs[1].speeds):
            np.testing.assert_array_equal(s1, s2)


class TestTraceCsv:
    def test_header_and_rows(self, tmp_path):
        g_list = QuadraticGroup([2.0, 4.0])
        trace = consensus.run([1.0, 5.0], CompleteTopology(2), g_list,
                              _config(mu=0.1))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,s_1,s_2,spread,G"
        assert len(lines) == len(trace.speeds) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0


class TestLureStability:
    def test_quadratic_interval(self):
        g_list = QuadraticGroup([1.0, 3.0])
        rep = consensus.lure_stability(g_list, y_star=2.0, mu=0.1)
        assert rep.curvature_sum == pytest.approx(4.0)
        assert rep.mu_interval == pytest.approx((0.0, 0.5))
        assert rep.stable

    def test_tiny_mu_stable_but_slow(self):
        g_list = QuadraticGroup([2.0])
        rep = consensus.lure_stability(g_list, y_star=2.0, mu=1e-3)
        assert rep.stable
        assert rep.slow
        assert rep.h_prime < 1.0

    def test_mu_beyond_bound_unstable_and_scalar_iteration_diverges(self):
        g_list = QuadraticGroup([1.0, 3.0])
        mu = 1.1 * 0.5
        rep = consensus.lure_stability(g_list, y_star=2.0, mu=mu)
        assert not rep.stable
        ys = consensus.scalar_descent(g_list, y0=2.3, mu=mu, n_iter=60)
        assert abs(ys[-1] - 2.0) > abs(ys[0] - 2.0)

    def test_mu_inside_bound_scalar_iteration_converges(self):
        g_list = QuadraticGroup([1.0, 3.0])
        ys = consensus.scalar_descent(g_list, y0=2.3, mu=0.9 * 0.5, n_iter=60)
        assert abs(ys[-1] - 2.0) < 1e-6


class TestAutoMu:
    def test_half_bound_for_quadratics(self):
        g_list = QuadraticGroup([1.0, 3.0])
        assert consensus.auto_mu(g_list, 2.0) == pytest.approx(0.25)

    def test_rejects_flat_curvature(self):
        class Flat(QuadraticGroup):
            def second_derivative(self, s):
                return np.zeros(len(self))

        with pytest.raises(ValueError):
            consensus.auto_mu(Flat([1.0]), 2.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: consensus.run(
                [1.0, 2.0], CompleteTopology(3), QuadraticGroup([2.0, 2.0]), _config()
            ),
            DimensionMismatch,
            "2 initial speeds for 3 agents",
            id="run-topology-of-wrong-size",
        ),
        pytest.param(
            lambda: SolverConfig(mu="x"),
            ValueError,
            "mu and tolerances must be finite and > 0",
            id="solver-config-mu-x",
        ),
    ],
)
def test_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
