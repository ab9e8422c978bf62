"""Whole advisories against an independent optimum.

The reference is built here from the scenario's control points alone: one
scipy CubicSpline per agent and a bounded scalar minimisation of
sum_i f_i(d_i / s) over the common speed domain. Nothing in groupspeed
computes it, so a fault shared by the consensus run and the oracle still shows.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from groupspeed import scenario as scen

from conftest import random_convex_points


class Reference:
    """The group's splines, distances and common speed domain."""

    def __init__(self, scenario):
        curves = [np.asarray(pts, dtype=float).T for pts in scenario.control_points]
        self.splines = [CubicSpline(t, r) for t, r in curves]
        self.distances = scenario.distances
        self.lo = max(d / t[-1] for (t, _), d in zip(curves, self.distances))
        self.hi = min(d / t[0] for (t, _), d in zip(curves, self.distances))

    def total_risk(self, s):
        return sum(f(d / s) for f, d in zip(self.splines, self.distances))

    def derivative_sum(self, s):
        """sum_i g_i'(s) with g_i(s) = f_i(d_i / s)."""
        return sum(
            -(d / (s * s)) * f(d / s, 1) for f, d in zip(self.splines, self.distances)
        )

    def optimum(self):
        res = minimize_scalar(
            self.total_risk, bounds=(self.lo, self.hi), method="bounded",
            options={"xatol": 1e-10},
        )
        return float(res.x)


def _ring(n):
    return {"model": "fixed", "edges": [[i, (i + 1) % n] for i in range(n)]}


def _ragged_curves(n, seed):
    """n random convex curves of 4-12 control points each."""
    rng = np.random.default_rng(seed)
    return [random_convex_points(rng, n_pts=int(m)) for m in rng.integers(4, 13, n)]


GROUPS = {
    "low-complete": ("low_pollution", {}),
    "high-random-failure": (
        "high_pollution",
        {"topology": {"model": "random_failure", "link_up_probability": 0.5}},
    ),
    "ragged-leader-star": (
        "low_pollution",
        {
            "n_agents": 12,
            "curves": {"per_agent_control_points": _ragged_curves(12, 3)},
            "topology": {"model": "leader_star"},
        },
    ),
    "ragged-random-failure": (
        "high_pollution",
        {
            "n_agents": 20,
            "curves": {"per_agent_control_points": _ragged_curves(20, 4)},
            "topology": {"model": "random_failure", "link_up_probability": 0.5},
        },
    ),
    # the common domain [12.5, 25] km/h clips the optimum at its upper end
    "boundary-pair": (
        "low_pollution",
        {
            "n_agents": 2,
            "curves": {"base_control_points": scen.LOW_POLLUTION_POINTS,
                       "perturbation_radius": 0.0},
            "distances": {"values": [5.0, 40.0]},
        },
    ),
    "high-fixed-ring": ("high_pollution", {"n_agents": 10, "topology": _ring(10)}),
}


@pytest.mark.parametrize("name", GROUPS)
def test_advisory_reaches_the_independent_optimum(name):
    profile, edits = GROUPS[name]
    scenario = scen.generate_scenario(scen.BUILTIN_SPECS[profile] | edits)
    report = scen.run_experiment(scenario)
    solver = scenario.solver
    ref = Reference(scenario)

    assert report.converged, report.trace.stop_reason
    final = report.trace.final_speeds
    mean = float(np.mean(final))
    assert abs(mean - ref.optimum()) < solver["consensus_tol"]
    assert np.ptp(final) < solver["consensus_tol"]
    # the projected condition: a gradient step from the mean, clipped into the
    # common domain, stays at the mean
    step = np.clip(mean - ref.derivative_sum(mean), ref.lo, ref.hi)
    assert abs(step - mean) < solver["optimality_tol"]
