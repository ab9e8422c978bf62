"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import copy
import time

import numpy as np
import pytest

from groupspeed import consensus, netsim, oracle
from groupspeed import scenario as scen
from groupspeed.netsim import (
    CompleteTopology,
    FixedTopology,
    LeaderStarTopology,
    RandomFailureTopology,
)
from groupspeed.riskmodel import RiskBank, SpeedRisk, check_quasi_convexity

from conftest import QuadraticGroup, parabola_points, random_convex_curve


def _report(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {n} ({label}): {detail}")
    assert ok, f"criterion {n} ({label}) failed: {detail}"


def _shipped(name, seed=None):
    spec = copy.deepcopy(scen.BUILTIN_SPECS[name])
    if seed is not None:
        spec["seed"] = seed
    return scen.generate_scenario(spec)


def test_criterion_1_convergence_budget():
    t0 = time.perf_counter()
    report = scen.run_experiment(_shipped("low_pollution"))
    elapsed = time.perf_counter() - t0
    k = next(
        i for i, spread in enumerate(report.trace.spreads) if spread < 0.01
    )
    ok = report.converged and k <= 50 and elapsed < 1.0
    _report(
        1, "convergence budget", ok,
        f"spread<0.01 at k={k}, converged at k={report.trace.iterations}, "
        f"{elapsed:.3f}s",
    )


def test_criterion_2_optimality_both_scenarios():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("low_pollution", "high_pollution"):
        s = _shipped(name)
        report = scen.run_experiment(s)
        bank = s.build_risks()
        residual = abs(np.sum(bank.derivative(bank.clamp(report.final_speed))))
        gap = abs(report.final_speed - report.certificate.s_star)
        ok = ok and residual < 1e-4 and gap < 0.01
        details.append(f"{name}: |sum g'|={residual:.2e}, oracle gap={gap:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, "optimality", ok, "; ".join(details) + f", {elapsed:.3f}s")


def test_criterion_3_oracle_self_consistency():
    t0 = time.perf_counter()
    checked = 0
    for i in range(20):
        name = "low_pollution" if i % 2 == 0 else "high_pollution"
        s = _shipped(name, seed=100 + i)
        g_list = s.build_risks()
        cert = oracle.solve_common_speed(g_list, tol=1e-9)
        assert not cert.at_boundary
        rep = oracle.brute_force_verify(g_list, cert.s_star, grid=100_000)
        assert rep.passed, f"seed {100 + i}: offset {rep.offset} > step {rep.grid_step}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 20 and elapsed < 10.0
    _report(3, "oracle self-consistency", ok,
            f"{checked}/20 randomized scenarios, {elapsed:.2f}s")


def test_criterion_4_closed_form_quadratic():
    g_list = RiskBank([parabola_points(lo=0.25, hi=2.0)] * 2, [2.0, 3.0])
    cert = oracle.solve_common_speed(g_list, tol=1e-10)

    config = consensus.SolverConfig(
        mu=consensus.auto_mu(g_list, cert.s_star),
        consensus_tol=1e-9,
        optimality_tol=1e-10,
        max_iterations=2000,
    )
    trace = consensus.run([2.0, 3.5], CompleteTopology(2), g_list, config)
    ok = (
        abs(cert.s_star - 2.6) < 1e-6
        and trace.converged
        and abs(trace.final_common_speed - 2.6) < 1e-6
    )
    _report(4, "closed-form check", ok,
            f"oracle={cert.s_star:.9f}, consensus={trace.final_common_speed:.9f}")


def test_criterion_5_quasi_convexity_suite():
    rng = np.random.default_rng(2024)
    worst_offset = 0.0
    for i in range(20):
        curve = random_convex_curve(rng)
        d = float(rng.uniform(1.5, 4.0))
        g = SpeedRisk(curve, d)
        rep = check_quasi_convexity(g, samples=10_000, seed=i)
        assert rep.passed, f"curve {i}: counterexample {rep.counterexample}"

        lo, hi = g.speed_domain
        grid = np.linspace(lo, hi, 10_000)
        step = (hi - lo) / (len(grid) - 1)
        argmin_g = grid[int(np.argmin(g.value(grid)))]
        offset = abs(argmin_g - d / curve.tipping_point)
        assert offset < 2 * step, f"curve {i}: minimizer offset {offset} vs step {step}"
        worst_offset = max(worst_offset, offset / step)
    _report(5, "quasi-convexity suite", True,
            f"20 curves x 10^4 triples; worst minimizer offset {worst_offset:.2f} steps")


def test_criterion_6_matrix_suite():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(2, 16))
        kind = trial % 4
        seed = int(rng.integers(0, 2**32))
        if kind == 0:
            top = CompleteTopology(n, seed=seed)
        elif kind == 1:
            top = LeaderStarTopology(n, seed=seed)
        elif kind == 2:
            top = RandomFailureTopology(n, float(rng.uniform(0, 1)), seed=seed)
        else:
            edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
            top = FixedTopology(n, edges, seed=seed)
        P = top.build_matrix(int(rng.integers(0, 1000)))
        assert np.all(P >= 0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(np.diag(P) > 0)

    pts = parabola_points(lo=0.25, hi=2.0)
    g_list = RiskBank([pts] * 8, rng.uniform(1.5, 3.0, 8))
    config = consensus.SolverConfig(mu=0.05, consensus_tol=1e-6,
                                    optimality_tol=1e-6, max_iterations=10)
    worst = 0.0
    for trial in range(100):
        top = RandomFailureTopology(8, 0.5, seed=trial)
        speeds = np.array([rng.uniform(*g.speed_domain) for g in g_list])
        k = int(rng.integers(0, 100))
        a = consensus.step(speeds, top.build_matrix(k), g_list, config)
        b = consensus.step_per_agent(speeds, top, k, g_list, config)
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < consensus.FORM_AGREEMENT_TOL
    _report(6, "matrix suite", ok,
            f"10^3 matrices OK; form disagreement max {worst:.2e}")


def test_criterion_7_lure_stability_boundary():
    rng = np.random.default_rng(7)
    successes = 0
    for trial in range(10):
        n = int(rng.integers(2, 7))
        a = rng.uniform(1.0, 5.0, n)
        g_list = QuadraticGroup(a)
        y_star = float(np.mean(a))
        bound = 2.0 / (2.0 * n)

        ys_stable = consensus.scalar_descent(
            g_list, y0=y_star + rng.uniform(0.5, 1.5), mu=0.9 * bound, n_iter=80
        )
        converged = abs(ys_stable[-1] - y_star) < 1e-6

        ys_unstable = consensus.scalar_descent(
            g_list, y0=y_star + rng.uniform(0.05, 0.2), mu=1.1 * bound, n_iter=80
        )
        diverged = (
            not np.isfinite(ys_unstable[-1])
            or abs(ys_unstable[-1] - y_star) > abs(ys_unstable[0] - y_star)
        )
        if converged and diverged:
            successes += 1
    ok = successes == 10
    _report(7, "stability boundary", ok, f"{successes}/10 seeded trials")


def test_criterion_8_scenario_ordering():
    low = oracle.solve_common_speed(_shipped("low_pollution").build_risks())
    high = oracle.solve_common_speed(_shipped("high_pollution").build_risks())
    ok = high.s_star > low.s_star
    _report(8, "scenario ordering", ok,
            f"high {high.s_star:.3f} km/h > low {low.s_star:.3f} km/h")


def test_criterion_9_determinism(tmp_path):
    ok = True
    details = []
    for name in ("low_pollution", "high_pollution"):
        blobs = []
        for run_idx in range(2):
            out = tmp_path / f"{name}_{run_idx}"
            scen.run_experiment(_shipped(name), out_dir=out)
            blobs.append((out / "trace.csv").read_bytes())
        same = blobs[0] == blobs[1]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    _report(9, "determinism", ok, "; ".join(details))
