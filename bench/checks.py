"""Output checks built on the benchmark's own reference, not on the program.

The reference optimum is computed here from the scenario's control points
alone: one scipy CubicSpline per agent and a bounded scalar minimisation of
sum_i f_i(d_i / s) over the common speed domain. Nothing in groupspeed is
called, so a fault shared by the program's solver and its oracle still shows.
"""

import os
import xml.etree.ElementTree as ET

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

SVG_FILES = ("speeds.svg", "risk_vs_time.svg", "risk_vs_speed.svg")


class Reference:
    """Independent model of one group: splines, distances, speed domain."""

    def __init__(self, scenario):
        self.splines = []
        lows, highs = [], []
        for pts, d in zip(scenario.control_points, scenario.distances):
            t, r = np.asarray(pts, dtype=float).T
            self.splines.append(CubicSpline(t, r))
            lows.append(d / t[-1])
            highs.append(d / t[0])
        self.distances = np.asarray(scenario.distances, dtype=float)
        self.domain = (max(lows), min(highs))

    def total_risk(self, s):
        return sum(f(d / s) for f, d in zip(self.splines, self.distances))

    def derivative_sum(self, s):
        """sum_i g_i'(s) with g_i(s) = f_i(d_i / s)."""
        return sum(
            -(d / s**2) * f(d / s, 1) for f, d in zip(self.splines, self.distances)
        )

    def optimum(self):
        lo, hi = self.domain
        res = minimize_scalar(
            self.total_risk, bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-10},
        )
        return float(res.x)


def check_advisory(result):
    """Errors in one advisory; an empty list means it passed."""
    scenario, report = result["scenario"], result["report"]
    solver = scenario.solver
    consensus_tol = solver.get("consensus_tol", 0.01)
    optimality_tol = solver.get("optimality_tol", 1e-6)
    ref = Reference(scenario)
    final = np.asarray(report.trace.final_speeds, dtype=float)
    if len(final) != scenario.n_agents:
        return [f"{len(final)} final speeds for {scenario.n_agents} agents"]
    mean = float(np.mean(final))
    errors = []
    optimum = ref.optimum()
    if not abs(mean - optimum) < consensus_tol:
        errors.append(f"common speed {mean!r} vs reference optimum {optimum!r}")
    spread = float(np.ptp(final))
    if not spread < consensus_tol:
        errors.append(f"final spread {spread!r} >= consensus_tol {consensus_tol}")
    residual = abs(float(ref.derivative_sum(mean)))
    if not residual < optimality_tol:
        errors.append(f"|sum g_i'(mean)| = {residual!r} >= {optimality_tol}")
    return errors


def check_audit(result):
    """Errors in one audit: the advisory checks plus the audit's own outputs."""
    scenario, report = result["scenario"], result["report"]
    errors = check_advisory(result)
    if result["verify_status"] != 0 or "FAIL:" in result["verify_output"]:
        errors.append(f"invariant suite failed: {result['verify_output']!r}")

    brute, s_star = result["brute"], result["certificate"].s_star
    lo, hi = Reference(scenario).domain
    grid_step = (hi - lo) / (result["grid"] - 1)
    if not abs(brute.grid_argmin - s_star) <= grid_step * (1 + 1e-9):
        errors.append(
            f"grid argmin {brute.grid_argmin!r} more than one step {grid_step!r}"
            f" from the oracle {s_star!r}"
        )

    workdir = result["workdir"]
    n = scenario.n_agents
    with open(os.path.join(workdir, "trace.csv")) as fh:
        lines = fh.read().splitlines()
    header = "k," + ",".join(f"s_{i}" for i in range(1, n + 1)) + ",spread,G"
    if not lines or lines[0] != header:
        errors.append(f"trace.csv header {lines[:1]!r}")
    if len(lines) - 1 != report.trace.iterations + 1:
        errors.append(
            f"trace.csv has {len(lines) - 1} rows for {report.trace.iterations}"
            " iterations"
        )
    for name in SVG_FILES:
        try:
            root = ET.parse(os.path.join(workdir, name)).getroot()
        except (OSError, ET.ParseError) as exc:
            errors.append(f"{name}: {exc}")
            continue
        if not root.tag.endswith("svg"):
            errors.append(f"{name}: root element {root.tag!r}")
    return errors

