"""Time-varying communication topologies and their row-stochastic matrices.

Each model gives the links of iteration k as index arrays (src, dst), dst
hearing src. The neighbor sets, the equal-weight averaging matrix (1/(deg_i + 1)
per in-neighbor, strictly positive diagonal) and the ergodicity check read them.
"""

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
        self.seed = int(seed)

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
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
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
        """Strong connectivity of the directed union graph over the window."""
        if window < 1:
            raise DegenerateInput(f"window must be >= 1, got {window}")
        links = [self.edges(k) for k in range(k_start, k_start + window)]
        src, dst = map(np.concatenate, zip(*links))
        n = self.n_agents
        union = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        n_strong, _ = connected_components(union, directed=True, connection="strong")
        return ErgodicityReport(connected=n_strong == 1, k_start=k_start, window=window)


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
        pairs = self._pairs(edges)
        if not directed:
            pairs = np.concatenate([pairs, pairs[:, ::-1]])
        self._edges = tuple(np.unique(pairs, axis=0).T)


class LeaderStarTopology(TopologySequence):
    """Leader (agent 0) hears all; every other agent hears only the leader."""

    def edges(self, k):
        leaves = np.arange(1, self.n_agents)
        leader = np.zeros_like(leaves)
        return np.concatenate([leaves, leader]), np.concatenate([leader, leaves])


class RandomFailureTopology(TopologySequence):
    """Base graph whose links are up independently per iteration.

    Each undirected base edge is up at iteration k with probability
    `link_up_probability`, drawn from a stream derived from (seed, k) so
    replays are bit-identical and queries at distinct k are independent.
    The last k's links are kept, so per-agent queries share one draw.
    """

    def __init__(self, n_agents, link_up_probability, base=None, seed=0):
        super().__init__(n_agents, seed)
        if not 0.0 <= link_up_probability <= 1.0:
            raise DegenerateInput(
                f"link_up_probability must be in [0, 1], got {link_up_probability}"
            )
        self.p = float(link_up_probability)
        if base is None:
            base = np.column_stack(np.triu_indices(self.n_agents, 1))
        low, high = np.sort(self._pairs(base), axis=1).T
        # one draw per base edge, repeats included, in sorted (low, high) order
        self._draws = np.sort(low * self.n_agents + high)
        self._last = (None, None)

    def edges(self, k):
        if self._last[0] != k:
            rng = np.random.default_rng([self.seed, int(k)])
            up = self._draws[rng.random(len(self._draws)) < self.p]
            a, b = np.divmod(up[np.diff(up, prepend=-1) != 0], self.n_agents)
            self._last = (k, (np.concatenate([a, b]), np.concatenate([b, a])))
        return self._last[1]


class ProximityTopology(TopologySequence):
    """Agents on a 1-D route; links between agents within `radius` km.

    Positions advance each iteration from the speeds the simulation records
    via `record_speeds`; until a speed vector is recorded for some k the
    positions simply stay at their k=0 values. Replays that feed the same
    speed sequence reproduce the same graphs.
    """

    def __init__(self, n_agents, radius=0.05, route_span=0.5, dt_hours=1.0 / 360.0, seed=0):
        super().__init__(n_agents, seed)
        if radius <= 0:
            raise DegenerateInput(f"radius must be positive, got {radius}")
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


def make_topology(spec, n_agents, seed=0):
    """Build a TopologySequence from a scenario topology spec dict."""
    model = spec.get("model")
    if model == "complete":
        return CompleteTopology(n_agents, seed=seed)
    if model == "fixed":
        if "edges" not in spec:
            raise InvalidSpec("fixed topology requires an 'edges' list")
        return FixedTopology(
            n_agents, spec["edges"], directed=spec.get("directed", False), seed=seed
        )
    if model == "leader_star":
        return LeaderStarTopology(n_agents, seed=seed)
    if model == "random_failure":
        if "link_up_probability" not in spec:
            raise InvalidSpec("random_failure topology requires 'link_up_probability'")
        base = spec.get("base")  # None means complete base graph
        return RandomFailureTopology(
            n_agents, spec["link_up_probability"], base=base, seed=seed
        )
    if model == "proximity":
        return ProximityTopology(
            n_agents,
            radius=spec.get("radius", 0.05),
            route_span=spec.get("route_span", 0.5),
            dt_hours=spec.get("dt_hours", 1.0 / 360.0),
            seed=seed,
        )
    raise InvalidSpec(f"unknown topology model {model!r}")
