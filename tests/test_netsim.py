import copy

import numpy as np
import pytest

from groupspeed.errors import DegenerateInput, InvalidSpec
from groupspeed.netsim import (
    CompleteTopology,
    FixedTopology,
    LeaderStarTopology,
    ProximityTopology,
    RandomFailureTopology,
    make_topology,
)
from groupspeed.scenario import BUILTIN_SPECS, generate_scenario


def _random_topology(rng):
    n = int(rng.integers(2, 12))
    kind = rng.integers(0, 4)
    seed = int(rng.integers(0, 2**32))
    if kind == 0:
        return CompleteTopology(n, seed=seed)
    if kind == 1:
        return LeaderStarTopology(n, seed=seed)
    if kind == 2:
        return RandomFailureTopology(n, float(rng.uniform(0, 1)), seed=seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    return FixedTopology(n, edges, seed=seed)


def _any_topology(rng):
    """A seeded topology of any of the five models, some with recorded motion."""
    n = int(rng.integers(1, 13))
    seed = int(rng.integers(0, 2**32))
    kind = rng.integers(0, 6)
    if kind == 0:
        return CompleteTopology(n, seed=seed)
    if kind == 1:
        return LeaderStarTopology(n, seed=seed)
    if kind == 2:
        return RandomFailureTopology(n, float(rng.uniform(0, 1)), seed=seed)
    if kind == 3:
        top = ProximityTopology(n, radius=float(rng.uniform(0.01, 0.2)), seed=seed)
        for k in sorted(rng.choice(8, size=3, replace=False)):
            top.record_speeds(int(k), rng.uniform(-30, 30, n))
        return top
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(2 * n, 2)) if a != b]
    if kind == 4:
        return RandomFailureTopology(n, float(rng.uniform(0, 1)), base=pairs, seed=seed)
    return FixedTopology(n, pairs, directed=bool(rng.integers(0, 2)), seed=seed)


def _reference_matrix(top, k):
    """P(k) as a per-row loop over the neighbor sets."""
    n = top.n_agents
    P = np.zeros((n, n))
    for i in range(n):
        nbrs = top.neighbors(k, i)
        eta = 1.0 / (len(nbrs) + 1)
        for j in nbrs:
            P[i, j] = eta
        P[i, i] = 1.0 - len(nbrs) * eta
    return P


def _reference_strongly_connected(top, k_start, window):
    """Forward and backward breadth-first search from agent 0 over the union graph."""
    n = top.n_agents
    hears = [set() for _ in range(n)]
    for k in range(k_start, k_start + window):
        for i in range(n):
            hears[i] |= top.neighbors(k, i)
    heard_by = [set() for _ in range(n)]
    for i, srcs in enumerate(hears):
        for j in srcs:
            heard_by[j].add(i)

    def reaches_all(adjacent):
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [j for i in frontier for j in adjacent[i] if j not in seen]
            seen.update(frontier)
        return len(seen) == n

    return reaches_all(hears) and reaches_all(heard_by)


class TestNeighbors:
    def test_complete(self):
        top = CompleteTopology(4)
        assert top.neighbors(0, 0) == {1, 2, 3}
        assert top.neighbors(123, 2) == {0, 1, 3}

    def test_all_links_down(self):
        top = RandomFailureTopology(5, 0.0, seed=9)
        for k in range(20):
            for i in range(5):
                assert top.neighbors(k, i) == set()

    def test_mean_degree_monte_carlo(self):
        # binomial expectation: 14 potential links at p = 0.5
        top = RandomFailureTopology(15, 0.5, seed=42)
        degs = [len(top.neighbors(k, i)) for k in range(667) for i in range(15)]
        assert np.mean(degs) == pytest.approx(7.0, abs=0.2)

    def test_symmetry_of_symmetric_models(self):
        rng = np.random.default_rng(1)
        for top in (CompleteTopology(6), RandomFailureTopology(6, 0.4, seed=3)):
            for k in range(10):
                for i in range(6):
                    for j in top.neighbors(k, i):
                        assert i in top.neighbors(k, j)

    def test_no_self_loops(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            top = _random_topology(rng)
            for k in range(5):
                for i in range(top.n_agents):
                    assert i not in top.neighbors(k, i)

    def test_index_out_of_range(self):
        top = CompleteTopology(3)
        with pytest.raises(IndexError):
            top.neighbors(0, 3)
        with pytest.raises(IndexError):
            top.neighbors(0, -1)

    def test_rejects_self_loops_and_out_of_range_edges(self):
        for edges in ([(1, 1)], [(0, 3)], [(-1, 0)]):
            with pytest.raises(DegenerateInput):
                FixedTopology(3, edges)
            with pytest.raises(DegenerateInput):
                RandomFailureTopology(3, 0.5, base=edges)

    def test_determinism(self):
        a = RandomFailureTopology(8, 0.37, seed=123)
        b = RandomFailureTopology(8, 0.37, seed=123)
        for k in range(30):
            for i in range(8):
                assert a.neighbors(k, i) == b.neighbors(k, i)

    def test_each_form_of_base_draws_its_pairs_in_sorted_order(self):
        n, p, seed = 9, 0.4, 17
        complete = [[i, j] for i in range(n) for j in range(i + 1, n)]
        ring = [(i, (i + 1) % n) for i in range(n)]  # (8, 0) comes reversed
        bases = {
            "default": None,
            "complete": complete,
            "ring": ring,
            "reversed": [(b, a) for a, b in ring],
            "repeats": ring + ring[:3] + [(b, a) for a, b in ring[3:5]],
        }
        edges = {}
        for name, base in bases.items():
            top = RandomFailureTopology(n, p, base=base, seed=seed)
            # one draw per pair, as low * n + high, sorted row by row and then overall
            pairs = complete if base is None else base
            draws = sorted(min(a, b) * n + max(a, b) for a, b in pairs)
            assert top._draws.tolist() == draws
            edges[name] = [top.edges(k) for k in range(30)]
            for k, (src, dst) in enumerate(edges[name]):
                up = np.random.default_rng([seed, k]).random(len(draws)) < p
                links = {divmod(d, n) for d, u in zip(draws, up) if u}
                links |= {(b, a) for a, b in links}
                assert sorted(zip(src.tolist(), dst.tolist())) == sorted(links)
        for a, b in (("default", "complete"), ("ring", "reversed")):
            for (src_a, dst_a), (src_b, dst_b) in zip(edges[a], edges[b]):
                assert np.array_equal(src_a, src_b) and np.array_equal(dst_a, dst_b)


class TestBuildMatrix:
    def test_complete_n3_all_thirds(self):
        P = CompleteTopology(3).build_matrix(0)
        np.testing.assert_allclose(P, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_empty_graph_identity(self):
        P = RandomFailureTopology(4, 0.0, seed=1).build_matrix(0)
        np.testing.assert_array_equal(P, np.eye(4))

    def test_leader_star_n3(self):
        P = LeaderStarTopology(3).build_matrix(0)
        np.testing.assert_allclose(P[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(P[1], [1 / 2, 1 / 2, 0.0], atol=1e-15)
        np.testing.assert_allclose(P[2], [1 / 2, 0.0, 1 / 2], atol=1e-15)

    def test_row_stochastic_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            top = _random_topology(rng)
            for k in range(4):
                P = top.build_matrix(k)
                assert np.all(P >= 0)
                np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(np.diag(P) > 0)

    def test_equals_per_row_reference_for_every_model(self):
        rng = np.random.default_rng(11)
        kinds = set()
        for _ in range(200):
            top = _any_topology(rng)
            kinds.add(type(top))
            for k in (0, 1, 3, 9, 250):
                np.testing.assert_array_equal(top.build_matrix(k), _reference_matrix(top, k))
        assert len(kinds) == 5

    def test_consensus_preservation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            top = _random_topology(rng)
            c = float(rng.uniform(-5, 5))
            v = np.full(top.n_agents, c)
            np.testing.assert_allclose(top.build_matrix(0) @ v, v, atol=1e-12)


class TestErgodicityWindow:
    def test_complete_window_one(self):
        rep = CompleteTopology(5).check_ergodicity_window(0, 1)
        assert rep.connected
        assert "proxy" in rep.note

    def test_disconnected_cliques(self):
        edges = [(0, 1), (2, 3)]
        top = FixedTopology(4, edges)
        for window in (1, 5, 50):
            assert not top.check_ergodicity_window(0, window).connected

    def test_random_failure_mostly_connected(self):
        hits = 0
        for seed in range(1000):
            top = RandomFailureTopology(15, 0.3, seed=seed)
            if top.check_ergodicity_window(0, 10).connected:
                hits += 1
        assert hits >= 990

    def test_agrees_with_breadth_first_search(self):
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(200):
            top = _any_topology(rng)
            k_start, window = int(rng.integers(0, 10)), int(rng.integers(1, 6))
            expected = _reference_strongly_connected(top, k_start, window)
            assert top.check_ergodicity_window(k_start, window).connected == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_directed_chain_is_not_strongly_connected(self):
        chain = [(0, 1), (1, 2), (2, 3)]
        for window in (1, 5):
            top = FixedTopology(4, chain, directed=True)
            assert not top.check_ergodicity_window(0, window).connected
            assert FixedTopology(4, chain).check_ergodicity_window(0, window).connected
            cycle = FixedTopology(4, chain + [(3, 0)], directed=True)
            assert cycle.check_ergodicity_window(0, window).connected

    def test_complete_union_at_high_in_degree(self):
        # 299 links into every agent: a narrow integer count of them would wrap
        assert CompleteTopology(300).check_ergodicity_window(0, 10).connected

    def test_bad_window(self):
        with pytest.raises(DegenerateInput):
            CompleteTopology(3).check_ergodicity_window(0, 0)


class TestProximity:
    def test_deterministic_initial_positions(self):
        a = ProximityTopology(6, radius=0.2, seed=77)
        b = ProximityTopology(6, radius=0.2, seed=77)
        for i in range(6):
            assert a.neighbors(0, i) == b.neighbors(0, i)

    def test_positions_advance_with_recorded_speeds(self):
        top = ProximityTopology(2, radius=0.01, route_span=0.0, seed=0)
        # both start at 0; one agent sprints away until the link breaks
        assert top.neighbors(0, 0) == {1}
        for k in range(40):
            top.record_speeds(k, [0.0, 20.0])
        assert top.neighbors(40, 0) == set()

    def test_sparse_records_use_latest_iteration_at_or_before_k(self):
        top = ProximityTopology(2, radius=0.01, route_span=0.0, dt_hours=0.01, seed=0)
        top.record_speeds(0, [0.0, 2.0])  # k >= 1: 0.02 km apart
        top.record_speeds(9, [2.0, 0.0])  # k >= 10: together again
        top.record_speeds(4, [0.0, -2.0])  # k in 5..9: together, recorded late
        linked = {k: top.neighbors(k, 0) == {1} for k in range(13)}
        assert linked == {k: k == 0 or k >= 5 for k in range(13)}
        assert top.neighbors(10_000, 1) == {0}
        with pytest.raises(IndexError):
            top.neighbors(-1, 0)

    def test_bad_radius(self):
        with pytest.raises(DegenerateInput):
            ProximityTopology(3, radius=0.0)


class TestMakeTopology:
    def test_builds_each_model(self):
        assert isinstance(make_topology({"model": "complete"}, 4), CompleteTopology)
        assert isinstance(
            make_topology({"model": "fixed", "edges": [[0, 1]]}, 2), FixedTopology
        )
        assert isinstance(
            make_topology({"model": "leader_star"}, 3), LeaderStarTopology
        )
        assert isinstance(
            make_topology({"model": "random_failure", "link_up_probability": 0.5}, 4),
            RandomFailureTopology,
        )
        assert isinstance(
            make_topology({"model": "proximity", "radius": 0.1}, 4), ProximityTopology
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param({"model": "mesh"}, "unknown topology model", id="mesh"),
            pytest.param({"model": ["complete"]}, "unknown topology model", id="list-model"),
            pytest.param({"model": None}, "unknown topology model", id="null-model"),
            pytest.param({"model": "fixed"}, "missing 1 required", id="fixed-no-edges"),
            pytest.param(
                {"model": "random_failure"}, "missing 1 required",
                id="random_failure-no-probability",
            ),
            pytest.param(
                {"model": "proximity", "radus": 0.2}, "unexpected keyword argument 'radus'",
                id="proximity-radus",
            ),
            pytest.param(
                {"model": "fixed", "edges": [[0, 1]], "directd": True},
                "unexpected keyword argument 'directd'", id="fixed-directd",
            ),
            pytest.param(
                {"model": "random_failure", "link_up_probability": 0.5, "bse": [[0, 1]]},
                "unexpected keyword argument 'bse'", id="random_failure-bse",
            ),
            pytest.param(
                {"model": "complete", "directed": False},
                "unexpected keyword argument 'directed'", id="complete-directed",
            ),
        ],
    )
    def test_invalid_specs(self, spec, message):
        with pytest.raises(InvalidSpec, match=message):
            make_topology(spec, 4)

    def test_omitted_keys_take_the_defaults_and_the_seed_falls_back(self):
        speeds = np.random.default_rng(0).uniform(10.0, 20.0, (30, 6))
        for spec, key, default in [
            ({"model": "fixed", "edges": [[0, 1], [2, 3]]}, "directed", False),
            ({"model": "random_failure", "link_up_probability": 0.5}, "base", None),
            ({"model": "proximity"}, "radius", 0.05),
            ({"model": "proximity"}, "route_span", 0.5),
            ({"model": "proximity"}, "dt_hours", 1.0 / 360.0),
        ]:
            omitted = make_topology(spec, 6, seed=3)
            explicit = make_topology(spec | {key: default}, 6, seed=3)
            for k in range(30):
                for top in (omitted, explicit):
                    top.record_speeds(k, speeds[k])
                assert _same_edges(omitted, explicit, k), (spec, key, k)

        spec = copy.deepcopy(BUILTIN_SPECS["low_pollution"])
        spec["seed"] = 11
        spec["topology"] = {"model": "random_failure", "link_up_probability": 0.5}
        fallback = generate_scenario(spec).build_topology()
        spec["topology"]["seed"] = 12
        own = generate_scenario(spec).build_topology()
        assert (fallback.seed, own.seed) == (11, 12)
        for top in (fallback, own):
            reference = RandomFailureTopology(15, 0.5, seed=top.seed)
            assert all(_same_edges(top, reference, k) for k in range(30))


def _same_edges(a, b, k):
    return all(np.array_equal(x, y) for x, y in zip(a.edges(k), b.edges(k), strict=True))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: RandomFailureTopology(3, 1.5),
            "link_up_probability must be in",
            id="link-up-probability-1.5",
        ),
        pytest.param(
            lambda: ProximityTopology(3).record_speeds(0, [10.0, 12.0]),
            "speed vector length mismatch",
            id="record-speeds-wrong-length",
        ),
    ],
)
def test_rejects_bad_input(call, message):
    with pytest.raises(DegenerateInput, match=message):
        call()
