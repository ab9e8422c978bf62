"""Exact symmetries of the advisory, which need no reference solver.

- Scaling: every distance and speed times 2**k rescales g' by 2**-k and g''
  by 4**-k exactly, so with mu times 4**k a run's whole trace scales by 2**k,
  bit for bit.
- Permutation: relabelling the agents, and a fixed graph's links with them,
  keeps s* and the iteration count; the speeds are permuted up to the order
  of sums.
- Duplication: two copies of every agent double phi exactly, so s* stays,
  and the copies' speeds agree up to the order of sums.

Each advisory must also converge to s*: a fault that breaks the iteration
equally under both labellings still shows.
"""

import numpy as np
import pytest

from groupspeed import consensus
from groupspeed import scenario as scen
from groupspeed.riskmodel import RiskBank

from conftest import random_convex_points

N = 12


def _ring(n):
    return [[i, (i + 1) % n] for i in range(n)]


def _ragged_spec(seed):
    rng = np.random.default_rng(seed)
    curves = [random_convex_points(rng, n_pts=int(m)) for m in rng.integers(4, 13, N)]
    return scen.BUILTIN_SPECS["high_pollution"] | {
        "n_agents": N, "seed": seed, "curves": {"per_agent_control_points": curves}
    }


def _group(kind, seed):
    """A 12-agent scenario on a complete graph: a shipped profile, or ragged."""
    if kind == "ragged":
        return scen.generate_scenario(_ragged_spec(seed))
    spec = scen.BUILTIN_SPECS[kind] | {"n_agents": N, "seed": seed}
    return scen.generate_scenario(spec)


GROUPS = [
    (kind, seed)
    for kind in ("low_pollution", "high_pollution", "ragged")
    for seed in (3, 4)
]
GRAPHS = ["complete", "fixed"]


def _rebuilt(scenario, order, edges):
    """The scenario with agent j taken from agent order[j], on these links.

    edges None keeps the complete graph.
    """
    spec = scenario.to_dict()
    for section, key in (("curves", "per_agent_control_points"),
                         ("distances", "values"), ("initial_speeds", "values")):
        spec[section][key] = [spec[section][key][i] for i in order]
    spec["n_agents"] = len(order)
    if edges is not None:
        spec["topology"] = {"model": "fixed", "edges": edges}
    return scen.generate_scenario(spec)


def _converged_to_s_star(report):
    assert report.converged, report.trace.stop_reason
    assert report.oracle_gap < report.scenario.solver["consensus_tol"]


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("kind, seed", GROUPS)
def test_relabelled_agents_give_the_same_advisory(kind, seed, graph):
    scenario = _group(kind, seed)
    edges = _ring(N) if graph == "fixed" else None
    base = scen.run_experiment(_rebuilt(scenario, range(N), edges))
    order = np.random.default_rng(seed).permutation(N)
    new_label = np.argsort(order)
    moved = None if edges is None else [
        [int(new_label[a]), int(new_label[b])] for a, b in edges
    ]
    relabelled = scen.run_experiment(_rebuilt(scenario, order, moved))
    for report in (base, relabelled):
        _converged_to_s_star(report)
    assert relabelled.trace.iterations == base.trace.iterations
    assert relabelled.certificate.s_star == base.certificate.s_star
    np.testing.assert_allclose(
        relabelled.trace.speeds, base.trace.speeds[:, order], rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("kind, seed", GROUPS)
def test_duplicated_agents_give_the_same_optimum(kind, seed, graph):
    scenario = _group(kind, seed)
    single_edges = double_edges = None
    if graph == "fixed":  # one ring per copy; the broadcast G keeps them in step
        single_edges = _ring(N)
        double_edges = _ring(N) + [[a + N, b + N] for a, b in _ring(N)]
    single = scen.run_experiment(_rebuilt(scenario, range(N), single_edges))
    double = scen.run_experiment(
        _rebuilt(scenario, [*range(N), *range(N)], double_edges)
    )
    for report in (single, double):
        _converged_to_s_star(report)
    assert double.certificate.s_star == single.certificate.s_star
    # the copies agree up to the order of the sums in P s
    speeds = double.trace.speeds
    np.testing.assert_allclose(speeds[:, :N], speeds[:, N:], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [-3, 2])
@pytest.mark.parametrize("kind, seed", GROUPS)
def test_bank_slopes_scale_exactly(kind, seed, k):
    scenario = _group(kind, seed)
    bank = scenario.build_risks()
    scaled = RiskBank(scenario.control_points, scenario.distances * 2.0**k)
    lo, hi = bank.domain
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(bank.lo, bank.hi, (5, N))
    rows = np.stack([rng.uniform(lo, hi, N), np.full(N, rng.uniform(lo, hi))])
    for s in (*speeds, rows, lo, hi):
        s2 = np.multiply(s, 2.0**k)
        assert np.array_equal(scaled.derivative(s2), bank.derivative(s) / 2.0**k)
        assert np.array_equal(
            scaled.second_derivative(s2), bank.second_derivative(s) / 4.0**k
        )
    # the consensus loop's unvalidated pass over the rows (s_i) and (mean)
    assert np.array_equal(
        scaled._derivative_in_domain(rows * 2.0**k), bank.derivative(rows) / 2.0**k
    )
    assert scaled.domain == (lo * 2.0**k, hi * 2.0**k)


@pytest.mark.parametrize("k", [-3, 2])
@pytest.mark.parametrize(
    "topology",
    [
        {"model": "complete"},
        {"model": "fixed", "edges": _ring(N)},
        {"model": "leader_star"},
        {"model": "random_failure", "link_up_probability": 0.5},
    ],
    ids=lambda t: t["model"],
)
@pytest.mark.parametrize("kind, seed", GROUPS)
def test_run_with_mu_given_scales_exactly(kind, seed, topology, k):
    scenario = _group(kind, seed)
    scenario.topology = topology
    mu = scen.run_experiment(scenario).mu
    f = 2.0**k
    config = consensus.SolverConfig(
        mu=mu, consensus_tol=0.005, optimality_tol=1e-6, max_iterations=500
    )
    # g' scales by 1/f, so G needs mu * f**2 and the residual a tolerance / f
    scaled_config = consensus.SolverConfig(
        mu=mu * f * f, consensus_tol=0.005 * f, optimality_tol=1e-6 / f,
        max_iterations=500,
    )
    bank = scenario.build_risks()
    scaled_bank = RiskBank(scenario.control_points, scenario.distances * f)
    trace = consensus.run(
        scenario.initial_speeds, scenario.build_topology(), bank, config
    )
    scaled = consensus.run(
        scenario.initial_speeds * f, scenario.build_topology(), scaled_bank,
        scaled_config,
    )
    assert trace.converged, trace.stop_reason
    assert scaled.stop_reason == trace.stop_reason
    assert scaled.speeds.tobytes() == (trace.speeds * f).tobytes()
    assert scaled.couplings == [G * f for G in trace.couplings]
