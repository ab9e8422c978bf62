"""Time-varying communication topologies and their row-stochastic matrices.

Each model gives the links of iteration k as index arrays (src, dst), dst
hearing src. The neighbor sets, the equal-weight averaging matrix (1/(deg_i + 1)
per in-neighbor, strictly positive diagonal) and the ergodicity check read them.
"""

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidSpec


@dataclass(frozen=True)
class ErgodicityReport:
    """Union-graph strong-connectivity check over an iteration window.

    This is a practical proxy for strong ergodicity of the matrix sequence,
    not a proof of it.
    """

    connected: bool
    k_start: int
    window: int
    note: str = "union-graph strong connectivity; proxy, not a proof"


class TopologySequence:
    """Base class: deterministic links per iteration k given (model, seed)."""

    def __init__(self, n_agents, seed=0):
        if n_agents < 1:
            raise DegenerateInput(f"n_agents must be >= 1, got {n_agents}")
        self.n_agents = int(n_agents)
        self.seed = operator.index(seed)
        if self.seed < 0:
            raise DegenerateInput(f"seed must be >= 0, got {seed}")

    def edges(self, k):
        """The links of iteration k as index arrays (src, dst): dst hears src.

        No self-loops and no repeated links. Constant graphs set `_edges` once;
        the other models override this.
        """
        return self._edges

    def neighbors(self, k, i):
        """The set of agents whose speed agent i receives at iteration k."""
        self._check_agent(i)
        src, dst = self.edges(k)
        return {int(j) for j in src[dst == i]}

    def _check_agent(self, i):
        if not 0 <= i < self.n_agents:
            raise IndexError(f"agent index {i} out of range [0, {self.n_agents})")

    def _pairs(self, edges):
        """Validated (m, 2) index array of an edge list."""
        pairs = np.asarray(edges)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise DegenerateInput(f"edges must be integer index pairs, got {pairs.dtype}")
        pairs = pairs.astype(np.intp, copy=False).reshape(-1, 2)
        outside = np.any((pairs < 0) | (pairs >= self.n_agents), axis=1)
        bad = outside | (pairs[:, 0] == pairs[:, 1])
        if np.any(bad):
            a, b = pairs[np.argmax(bad)]
            raise DegenerateInput(f"edge ({a}, {b}) is a self-loop or out of range")
        return pairs

    def record_speeds(self, k, speeds):
        """Hook for models whose graph depends on agent motion; default no-op."""

    def build_matrix(self, k):
        """Row-stochastic P(k): eta = 1/(|N_k^i|+1) per row, diagonal 1 - deg*eta."""
        n = self.n_agents
        src, dst = self.edges(k)
        deg = np.bincount(dst, minlength=n)
        eta = 1.0 / (deg + 1)
        P = np.zeros((n, n))
        P[dst, src] = eta[dst]
        np.fill_diagonal(P, 1.0 - deg * eta)
        return P

    def check_ergodicity_window(self, k_start, window):
        """Strong connectivity of the directed union graph over the window.

        Strongly connected means every agent is reachable from agent 0 both
        along the links and against them.
        """
        if window < 1:
            raise DegenerateInput(f"window must be >= 1, got {window}")
        union = np.zeros((self.n_agents, self.n_agents), dtype=bool)
        for k in range(k_start, k_start + window):
            src, dst = self.edges(k)
            union[src, dst] = True
        connected = _reaches_all(union) and _reaches_all(union.T)
        return ErgodicityReport(connected=connected, k_start=k_start, window=window)


def _reaches_all(adjacency):
    """Whether every node is reachable from node 0; adjacency[i, j] is a link i -> j."""
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


class CompleteTopology(TopologySequence):
    """Everyone hears everyone, at every k."""

    def __init__(self, n_agents, seed=0):
        super().__init__(n_agents, seed)
        self._edges = np.nonzero(~np.eye(self.n_agents, dtype=bool))[::-1]


class FixedTopology(TopologySequence):
    """Constant graph from an explicit edge list.

    Edges are undirected pairs (i, j) unless `directed`, in which case
    (src, dst) means dst hears src.
    """

    def __init__(self, n_agents, edges, directed=False, seed=0):
        super().__init__(n_agents, seed)
        if not isinstance(directed, bool):
            raise DegenerateInput(f"directed must be true or false, got {directed!r}")
        pairs = self._pairs(edges)
        if not directed:
            pairs = np.concatenate([pairs, pairs[:, ::-1]])
        self._edges = tuple(np.unique(pairs, axis=0).T)


class LeaderStarTopology(TopologySequence):
    """Leader (agent 0) hears all; every other agent hears only the leader."""

    def __init__(self, n_agents, seed=0):
        super().__init__(n_agents, seed)
        leaves = np.arange(1, self.n_agents)
        leader = np.zeros_like(leaves)
        self._edges = np.concatenate([leaves, leader]), np.concatenate([leader, leaves])


class RandomFailureTopology(TopologySequence):
    """Base graph whose links are up independently per iteration.

    Each undirected base edge is up at iteration k with probability
    `link_up_probability`, drawn from a stream derived from (seed, k) so
    replays are bit-identical and queries at distinct k are independent.
    """

    def __init__(self, n_agents, link_up_probability, base=None, seed=0):
        super().__init__(n_agents, seed)
        if not 0.0 <= link_up_probability <= 1.0:
            raise DegenerateInput(
                f"link_up_probability must be in [0, 1], got {link_up_probability}"
            )
        self.p = float(link_up_probability)
        pairs = np.triu_indices(self.n_agents, 1) if base is None else self._pairs(base).T
        low, high = np.minimum(*pairs), np.maximum(*pairs)
        # one draw per base edge, repeats included, in sorted (low, high) order
        self._draws = np.sort(low * self.n_agents + high)

    def edges(self, k):
        rng = np.random.default_rng([self.seed, int(k)])
        up = self._draws[rng.random(len(self._draws)) < self.p]
        a, b = np.divmod(up[np.diff(up, prepend=-1) != 0], self.n_agents)
        return np.concatenate([a, b]), np.concatenate([b, a])


class ProximityTopology(TopologySequence):
    """Agents on a 1-D route; links between agents within `radius` km.

    Positions advance each iteration from the speeds the simulation records
    via `record_speeds`; until a speed vector is recorded for some k the
    positions simply stay at their k=0 values. Replays that feed the same
    speed sequence reproduce the same graphs.
    """

    def __init__(self, n_agents, radius=0.05, route_span=0.5, dt_hours=1.0 / 360.0, seed=0):
        super().__init__(n_agents, seed)
        for name, value in (("radius", radius), ("dt_hours", dt_hours)):
            if not (math.isfinite(value) and value > 0):
                raise DegenerateInput(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(route_span):
            raise DegenerateInput(f"route_span must be finite, got {route_span}")
        rng = np.random.default_rng(seed)
        self.radius = float(radius)
        self.dt_hours = float(dt_hours)
        self._positions = {0: rng.uniform(0.0, route_span, n_agents)}
        self._recorded = [0]  # sorted keys of _positions

    def record_speeds(self, k, speeds):
        speeds = np.asarray(speeds, dtype=float)
        if len(speeds) != self.n_agents:
            raise DegenerateInput("speed vector length mismatch")
        pos = self._positions_at(k)
        if k + 1 not in self._positions:
            bisect.insort(self._recorded, k + 1)
        self._positions[k + 1] = pos + speeds * self.dt_hours

    def _positions_at(self, k):
        """Positions of the latest recorded iteration k' <= k."""
        if k < 0:
            raise IndexError(f"iteration {k} precedes the initial positions")
        keys = self._recorded
        return self._positions[keys[bisect.bisect_right(keys, k) - 1]]

    def edges(self, k):
        pos = self._positions_at(k)
        close = np.abs(pos[:, None] - pos[None, :]) <= self.radius
        np.fill_diagonal(close, False)
        return np.nonzero(close)[::-1]  # row i lists the agents i hears


MODELS = {
    "complete": CompleteTopology,
    "fixed": FixedTopology,
    "leader_star": LeaderStarTopology,
    "random_failure": RandomFailureTopology,
    "proximity": ProximityTopology,
}


def make_topology(spec, n_agents, seed=0):
    """Build a TopologySequence from a scenario topology spec dict.

    The spec's keys other than `model` are the model constructor's keyword
    arguments, and a `seed` key overrides the `seed` argument. Raises
    InvalidSpec for an unknown model, a missing or unknown key and any
    malformed value.
    """
    params = {"seed": seed} | spec
    model = params.pop("model", None)
    if not isinstance(model, str) or model not in MODELS:
        raise InvalidSpec(f"unknown topology model {model!r}")
    try:
        return MODELS[model](n_agents, **params)
    except (DegenerateInput, TypeError, ValueError) as exc:
        raise InvalidSpec(f"topology: {exc}") from exc
