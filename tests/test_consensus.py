import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from groupspeed import consensus
from groupspeed import scenario as scen
from groupspeed.consensus import FORM_AGREEMENT_TOL, SolverConfig
from groupspeed.errors import DimensionMismatch, EmptyDomainIntersection
from groupspeed.netsim import CompleteTopology, FixedTopology, RandomFailureTopology
from groupspeed.riskmodel import RiskBank
from groupspeed.scenario import LOW_POLLUTION_POINTS, load_scenario

from conftest import QuadraticGroup, parabola_points, random_convex_curve
from test_advisory import GROUPS as ADVISORY_GROUPS

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
        # The first step overshoots the common domain, and the clamp puts every
        # agent on the domain's upper edge, so the spread of 1.4e-6 becomes 0;
        # the run converges, as it does from exactly equal speeds.
        s = load_scenario(SCENARIOS / "low_pollution.json")
        bank = s.build_risks()
        config = SolverConfig(mu=24.0, consensus_tol=0.005)
        starts = [np.full(15, 8.0), 8.0 + 1e-7 * np.arange(15)]
        traces = [consensus.run(s0, s.build_topology(), bank, config)
                  for s0 in starts]
        assert [t.stop_reason for t in traces] == ["converged", "converged"]
        assert traces[1].spreads[0] > 0.0
        assert traces[1].spreads[1] == 0.0
        assert np.all(traces[1].speeds[1] == bank.domain[1])

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


    def test_empty_domain_intersection(self):
        # speed domains [0.125, 1] and [1.875, 15] do not overlap
        bank = RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 30.0])
        with pytest.raises(EmptyDomainIntersection):
            consensus.run([1.0, 2.0], CompleteTopology(2), bank, _config())


def _low_pollution_report(distances):
    """run_experiment on identical low-pollution curves at these distances (km)."""
    spec = scen.BUILTIN_SPECS["low_pollution"] | {
        "n_agents": len(distances),
        "curves": {"base_control_points": LOW_POLLUTION_POINTS,
                   "perturbation_radius": 0.0},
        "distances": {"values": list(distances)},
    }
    return scen.run_experiment(scen.generate_scenario(spec))


class TestBoundaryOptimum:
    """Optima on an edge of the common speed domain, where sum g_i' != 0."""

    def test_pair_stops_on_the_edge_at_once(self):
        # common domain [12.5, 25]; the first step overshoots 25 and is clamped
        report = _low_pollution_report([5.0, 40.0])
        assert report.certificate.at_boundary
        assert report.certificate.s_star == 25.0
        assert report.converged
        assert report.trace.iterations == 1
        assert report.final_speed == 25.0

    def test_mean_an_ulp_below_the_edge_converges(self):
        # every speed is clamped to hi = 4.503 / 0.2 = 22.515, yet their mean
        # rounds below it; the projected step is still 0
        report = _low_pollution_report([4.503] + [40.0] * 14)
        assert report.certificate.at_boundary
        assert report.converged
        assert np.all(report.trace.final_speeds == report.certificate.s_star)
        assert report.final_speed == pytest.approx(report.certificate.s_star, abs=1e-12)

    @pytest.mark.parametrize(
        "distances",
        list(itertools.combinations([5.0, 10.0, 15.0, 20.0, 30.0, 40.0], 2)),
        ids=lambda d: "%g-%g" % d,
    )
    def test_two_agent_pairs_converge_to_the_oracle(self, distances):
        report = _low_pollution_report(distances)
        assert report.converged
        assert report.oracle_gap < 1e-3


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


    def test_rows_parse_back_to_the_trace(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "high_pollution.json")
        trace = scen.run_experiment(scenario).trace
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(len(trace.speeds)))
        speeds = np.array([[float(v) for v in row[1:-2]] for row in rows])
        assert np.array_equal(speeds, trace.speeds)
        assert [float(row[-2]) for row in rows] == trace.spreads
        assert [float(row[-1]) for row in rows] == trace.couplings


def _public_run(initial_speeds, topology, bank, config):
    """`consensus.run` written with the public, validating calls only.

    Returns the speeds, couplings and stop reason.
    """
    s = bank.clamp(np.asarray(initial_speeds, dtype=float))
    speeds, couplings = [], []
    for k in range(config.max_iterations + 1):
        speeds.append(s)
        couplings.append(consensus.coupling(bank, s, config.mu))
        mean = float(np.mean(s))
        residual = abs(bank.clamp(mean - np.sum(bank.derivative(mean))) - mean)
        if np.ptp(s) < config.consensus_tol and residual < config.optimality_tol:
            reason = consensus.CONVERGED
        elif k == config.max_iterations:
            reason = f"no convergence within {config.max_iterations} iterations"
        elif not np.all(np.isfinite(s)):
            reason = "non-finite speeds encountered"
        else:
            topology.record_speeds(k, s)
            s = consensus.step(s, topology.build_matrix(k), bank, config)
            continue
        return np.array(speeds), couplings, reason


def _assert_same_trace(trace, public):
    speeds, couplings, reason = public
    assert trace.stop_reason == reason
    assert trace.speeds.tobytes() == speeds.tobytes()
    assert np.array(trace.couplings).tobytes() == np.array(couplings).tobytes()


PROXIMITY = {"n_agents": 12, "topology": {"model": "proximity", "radius": 0.2}}


def _scenario(name):
    """A shipped scenario, a group of test_advisory.py, or a proximity group."""
    if name in scen.BUILTIN_SPECS:
        return load_scenario(SCENARIOS / f"{name}.json")
    profile, edits = ADVISORY_GROUPS.get(name, ("low_pollution", PROXIMITY))
    return scen.generate_scenario(scen.BUILTIN_SPECS[profile] | edits)


class TestRunIsThePublicStep:
    """run's one g' pass per iteration gives the public calls' trace, bit for bit."""

    @pytest.mark.parametrize(
        "name", [*scen.BUILTIN_SPECS, *ADVISORY_GROUPS, "low-proximity"]
    )
    def test_advisories(self, name):
        scenario = _scenario(name)
        report = scen.run_experiment(scenario)
        config = SolverConfig(**(scenario.solver | {"mu": report.mu}))
        public = _public_run(
            scenario.initial_speeds, scenario.build_topology(), scenario.build_risks(),
            config,
        )
        _assert_same_trace(report.trace, public)

    @pytest.mark.parametrize(
        "start, mu", [([1.0, 1.1], 1e300), ([1.0, np.nan], 0.1)],
        ids=["overflow", "nan-start"],
    )
    def test_non_finite_speeds(self, start, mu):
        traces = []
        with np.errstate(over="ignore", invalid="ignore"):
            for run in (consensus.run, _public_run):
                traces.append(run(start, CompleteTopology(2), QuadraticGroup([0, 0]),
                                  _config(mu=mu)))
        assert traces[0].stop_reason == "non-finite speeds encountered"
        _assert_same_trace(*traces)


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
