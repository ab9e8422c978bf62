"""Coupled consensus iteration s(k+1) = P(k) s(k) + G(s(k)) e.

The averaging part P(k) pulls the speed vector toward agreement while the
broadcast scalar G(s) = -mu * sum_i g_i'(s_i) steers the agreement value
toward the aggregate optimum. Derivative evaluation is confined to the
Aggregator so individual risk functions never leave it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonConvergence

FORM_AGREEMENT_TOL = 1e-12
SPREAD_BLOWUP_FACTOR = 1e3


@dataclass(frozen=True)
class SolverConfig:
    mu: float  # step gain on the derivative sum
    consensus_tol: float = 0.01  # max spread allowed at convergence, km/h
    optimality_tol: float = 1e-6  # |sum g_i'| allowed at convergence
    max_iterations: int = 500

    def __post_init__(self):
        if min(self.mu, self.consensus_tol, self.optimality_tol) <= 0:
            raise ValueError("mu and tolerances must be strictly positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ConsensusState:
    speeds: np.ndarray  # km/h, one per agent
    iteration: int = 0


class Aggregator:
    """Central-agent role: sees every g_i and broadcasts scalar summaries.

    Keeps the risk functions out of the per-agent update path.
    """

    def __init__(self, g_list):
        self.g_list = list(g_list)

    def derivative_sum(self, s):
        s = np.asarray(s, dtype=float)
        if len(s) != len(self.g_list):
            raise DimensionMismatch(
                f"{len(s)} speeds for {len(self.g_list)} risk functions"
            )
        return float(sum(g.derivative(si) for g, si in zip(self.g_list, s)))

    def second_derivative_sum(self, y):
        return float(sum(g.second_derivative(y) for g in self.g_list))

    def coupling(self, s, mu):
        """G(s) = -mu * sum_i g_i'(s_i), broadcast identically to all agents."""
        return -mu * self.derivative_sum(s)

    def residual_at(self, y):
        """|sum g_i'(y)| at a common speed, clamping y into each agent's domain."""
        return abs(sum(g.derivative(g.clamp(y)) for g in self.g_list))

    def clamp(self, s):
        return np.array([g.clamp(si) for g, si in zip(self.g_list, s)])


def coupling(g_list, s, mu):
    return Aggregator(g_list).coupling(s, mu)


def step(state, P, g_list, config):
    """One iteration: averaging plus broadcast coupling, then domain clamp."""
    agg = g_list if isinstance(g_list, Aggregator) else Aggregator(g_list)
    s = np.asarray(state.speeds, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.shape != (len(s), len(s)):
        raise DimensionMismatch(f"matrix shape {P.shape} vs state length {len(s)}")
    return _advance(state, P, agg, agg.coupling(s, config.mu))


def _advance(state, P, agg, G):
    """The update itself, given the coupling G already computed for state."""
    new = agg.clamp(P @ np.asarray(state.speeds, dtype=float) + G)
    return ConsensusState(speeds=new, iteration=state.iteration + 1)


def step_per_agent(state, topology, k, g_list, config):
    """Per-agent form of the same update.

    Each agent applies q_i = eta * sum_{j in N}(s_j - s_i) with the equal
    weight eta = 1/(|N|+1), then adds the broadcast -mu * derivative sum.
    Must agree with the matrix form to within FORM_AGREEMENT_TOL.
    """
    agg = g_list if isinstance(g_list, Aggregator) else Aggregator(g_list)
    s = np.asarray(state.speeds, dtype=float)
    broadcast = config.mu * agg.derivative_sum(s)
    new = np.empty_like(s)
    for i in range(len(s)):
        nbrs = topology.neighbors(k, i)
        eta = 1.0 / (len(nbrs) + 1)
        q = eta * sum(s[j] - s[i] for j in nbrs)
        new[i] = s[i] + q - broadcast
    return ConsensusState(speeds=agg.clamp(new), iteration=state.iteration + 1)


@dataclass
class SimulationTrace:
    """Per-iteration record of a consensus run."""

    speeds: list = field(default_factory=list)  # one vector per iteration, k=0 first
    spreads: list = field(default_factory=list)
    couplings: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

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
            zip(self.speeds, self.spreads, self.couplings)
        ):
            vals = ",".join(repr(float(x)) for x in s)
            lines.append(f"{k},{vals},{spread!r},{G!r}")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def run(initial_speeds, topology, g_list, config):
    """Iterate until consensus + optimality or the budget runs out.

    Stops when max spread < consensus_tol and |sum g_i'(mean)| <
    optimality_tol. Raises NonConvergence (with the partial trace attached)
    on budget exhaustion, non-finite speeds, or spread blow-up.
    """
    agg = Aggregator(g_list)
    s = agg.clamp(np.asarray(initial_speeds, dtype=float))
    if len(s) != topology.n_agents:
        raise DimensionMismatch(
            f"{len(s)} initial speeds for {topology.n_agents} agents"
        )
    trace = SimulationTrace()
    spread0 = float(np.ptp(s)) if len(s) > 1 else 1.0
    state = ConsensusState(speeds=s, iteration=0)

    for k in range(config.max_iterations + 1):
        spread = float(np.ptp(state.speeds))
        G = agg.coupling(state.speeds, config.mu)
        trace.speeds.append(np.array(state.speeds))
        trace.spreads.append(spread)
        trace.couplings.append(G)
        trace.iterations = k

        residual = agg.residual_at(float(np.mean(state.speeds)))
        if spread < config.consensus_tol and residual < config.optimality_tol:
            trace.converged = True
            return trace
        if k == config.max_iterations:
            break
        if not np.all(np.isfinite(state.speeds)):
            raise NonConvergence("non-finite speeds encountered", trace)
        if spread0 > 0 and spread > SPREAD_BLOWUP_FACTOR * spread0:
            raise NonConvergence("spread blew up beyond the divergence guard", trace)

        topology.record_speeds(k, state.speeds)
        state = _advance(state, topology.build_matrix(k), agg, G)

    raise NonConvergence(
        f"no convergence within {config.max_iterations} iterations", trace
    )


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


def lure_stability(g_list, y_star, mu):
    agg = g_list if isinstance(g_list, Aggregator) else Aggregator(g_list)
    curv = agg.second_derivative_sum(y_star)
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


def scalar_descent(g_list, y0, mu, n_iter):
    """Iterate the scalar agreement-direction dynamics directly (no clamping)."""
    agg = g_list if isinstance(g_list, Aggregator) else Aggregator(g_list)
    ys = [float(y0)]
    y = float(y0)
    for _ in range(n_iter):
        y = y - mu * agg.derivative_sum(np.full(len(agg.g_list), y))
        ys.append(y)
        if not np.isfinite(y):
            break
    return ys


def auto_mu(g_list, y_star, fraction=0.5):
    """Step gain at `fraction` of the scalar stability bound at y_star."""
    agg = g_list if isinstance(g_list, Aggregator) else Aggregator(g_list)
    curv = agg.second_derivative_sum(y_star)
    if curv <= 0:
        raise ValueError(f"nonpositive curvature sum {curv} at y={y_star}")
    return fraction * 2.0 / curv
