"""Coupled consensus iteration s(k+1) = P(k) s(k) + G(s(k)) e.

The averaging part P(k) pulls the speed vector toward agreement while the
broadcast scalar G(s) = -mu * sum_i g_i'(s_i) steers the agreement value
toward the aggregate optimum. Speeds are plain float arrays, one per agent.
Every function takes the group's risks as one evaluator, a `RiskBank`, and
reads only its per-agent derivatives, curvatures and common speed domain.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

FORM_AGREEMENT_TOL = 1e-12
CONVERGED = "converged"  # the stop reason of a run that converged


@dataclass(frozen=True)
class SolverConfig:
    mu: float  # step gain on the derivative sum
    consensus_tol: float = 0.01  # max spread allowed at convergence, km/h
    optimality_tol: float = 1e-6  # |sum g_i'| allowed at convergence
    max_iterations: int = 500

    def __post_init__(self):
        values = (self.mu, self.consensus_tol, self.optimality_tol)
        if any(isinstance(v, bool) for v in (*values, self.max_iterations)):
            raise ValueError(f"solver values must be numbers, got {self}")
        try:
            positive = all(math.isfinite(v) and v > 0 for v in values)
        except TypeError:  # not a number
            positive = False
        if not positive:
            raise ValueError(f"mu and tolerances must be finite and > 0, got {values}")
        try:
            budget = operator.index(self.max_iterations)
        except TypeError:  # a fractional count such as 2.5, or not a number
            budget = 0
        if budget < 1:
            raise ValueError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}"
            )


def _speeds(bank, s):
    """s as a float array, one speed per agent of the bank."""
    s = np.asarray(s, dtype=float)
    if len(s) != len(bank):
        raise DimensionMismatch(f"{len(s)} speeds for {len(bank)} risk functions")
    return s


def coupling(bank, s, mu):
    """G(s) = -mu * sum_i g_i'(s_i), broadcast identically to all agents."""
    return -mu * float(np.sum(bank.derivative(_speeds(bank, s))))


def _advance(P, s, G, domain):
    """The update s(k+1) = clamp(P(k) s(k) + G e) onto the common domain."""
    return np.clip(P @ s + G, *domain)


def step(s, P, bank, config):
    """One iteration, s(k+1) = clamp(P(k) s(k) + G(s(k)) e)."""
    s = np.asarray(s, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.shape != (len(s), len(s)):
        raise DimensionMismatch(f"matrix shape {P.shape} vs {len(s)} speeds")
    return _advance(P, s, coupling(bank, s, config.mu), bank.domain)


def step_per_agent(s, topology, k, bank, config):
    """Per-agent form of the same update.

    Each agent applies q_i = eta * sum_{j in N}(s_j - s_i) with the equal
    weight eta = 1/(|N|+1), then adds the broadcast coupling G.
    Must agree with the matrix form to within FORM_AGREEMENT_TOL.
    """
    s = np.asarray(s, dtype=float)
    G = coupling(bank, s, config.mu)
    new = np.empty_like(s)
    for i in range(len(s)):
        nbrs = topology.neighbors(k, i)
        eta = 1.0 / (len(nbrs) + 1)
        q = eta * sum(s[j] - s[i] for j in nbrs)
        new[i] = s[i] + q + G
    return bank.clamp(new)


@dataclass(frozen=True)
class SimulationTrace:
    """Record of a consensus run, one row per iteration k = 0..iterations."""

    speeds: np.ndarray  # (iterations + 1, n)
    couplings: list
    stop_reason: str  # CONVERGED, or why the run stopped without converging

    @property
    def iterations(self):
        return len(self.speeds) - 1

    @property
    def converged(self):
        return self.stop_reason == CONVERGED

    @property
    def spreads(self):
        return np.ptp(self.speeds, axis=1).tolist()

    @property
    def final_speeds(self):
        return self.speeds[-1]

    @property
    def final_common_speed(self):
        return float(np.mean(self.speeds[-1]))

    def to_csv(self, path):
        n = len(self.speeds[0])
        header = "k," + ",".join(f"s_{i + 1}" for i in range(n)) + ",spread,G"
        lines = [header]
        for k, (s, spread, G) in enumerate(
            zip(self.speeds.tolist(), self.spreads, self.couplings)
        ):
            vals = ",".join(map(repr, s))
            lines.append(f"{k},{vals},{spread!r},{G!r}")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def run(initial_speeds, topology, bank, config):
    """Iterate until consensus + optimality, the budget or a non-finite speed.

    Converged means max spread < consensus_tol and the projected step
    |clamp(mean - sum g_i'(mean)) - mean| < optimality_tol. The trace's
    stop_reason says which ending it was. One unvalidated g_i' pass per
    iteration serves the rows (s_i) and (mean): the clamp keeps both in the
    domain, the mean to within rounding.
    """
    s = _speeds(bank, initial_speeds)
    domain = lo, hi = bank.domain
    s = np.clip(s, lo, hi)
    if len(s) != topology.n_agents:
        raise DimensionMismatch(
            f"{len(s)} initial speeds for {topology.n_agents} agents"
        )
    rows = np.empty((2, len(s)))
    speeds, couplings = [], []
    for k in range(config.max_iterations + 1):
        spread = float(np.ptp(s))
        rows[0] = s
        rows[1] = mean = float(np.mean(s))
        slope, slope_at_mean = bank._derivative_in_domain(rows)
        G = -config.mu * float(slope.sum())
        speeds.append(s)
        couplings.append(G)

        residual = abs(min(max(mean - slope_at_mean.sum(), lo), hi) - mean)
        if spread < config.consensus_tol and residual < config.optimality_tol:
            reason = CONVERGED
        elif k == config.max_iterations:
            reason = f"no convergence within {config.max_iterations} iterations"
        elif not np.isfinite(s).all():
            reason = "non-finite speeds encountered"
        else:
            topology.record_speeds(k, s)
            s = _advance(topology.build_matrix(k), s, G, domain)
            continue
        return SimulationTrace(np.array(speeds), couplings, reason)


@dataclass(frozen=True)
class StabilityReport:
    """Local stability of the scalar agreement-direction iteration.

    The consensus dynamics along the agreement direction reduce to
    y(k+1) = y - mu * sum g_i'(y); its fixed point is stable when the
    derivative 1 - mu * sum g_i''(y*) has magnitude below one.
    """

    h_prime: float
    stable: bool
    curvature_sum: float
    mu_interval: tuple | None  # (0, 2/curvature_sum) when curvature positive
    slow: bool  # |h'| within 0.05 of 1: stable but slowly contracting


def lure_stability(bank, y_star, mu):
    curv = float(np.sum(bank.second_derivative(float(y_star))))
    h_prime = 1.0 - mu * curv
    interval = (0.0, 2.0 / curv) if curv > 0 else None
    stable = abs(h_prime) < 1.0
    return StabilityReport(
        h_prime=h_prime,
        stable=stable,
        curvature_sum=curv,
        mu_interval=interval,
        slow=stable and abs(h_prime) > 0.95,
    )


def scalar_descent(bank, y0, mu, n_iter):
    """Iterate the scalar agreement-direction dynamics directly (no clamping)."""
    ys = [float(y0)]
    y = float(y0)
    for _ in range(n_iter):
        y = y + coupling(bank, np.full(len(bank), y), mu)
        ys.append(y)
        if not np.isfinite(y):
            break
    return ys


def auto_mu(bank, y_star):
    """Step gain at half the scalar stability bound at y_star."""
    report = lure_stability(bank, y_star, 0.0)
    if report.mu_interval is None:
        raise ValueError(
            f"nonpositive curvature sum {report.curvature_sum} at y={y_star}"
        )
    return 0.5 * report.mu_interval[1]
