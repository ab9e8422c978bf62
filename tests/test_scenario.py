import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from groupspeed import scenario as scen
from groupspeed.errors import InvalidSpec
from groupspeed.scenario import LOW_POLLUTION_POINTS

from conftest import random_convex_points


def low_spec(**overrides):
    spec = copy.deepcopy(scen.BUILTIN_SPECS["low_pollution"])
    spec.update(overrides)
    return spec


class TestGenerateScenario:
    def test_materializes_within_declared_ranges(self):
        s = scen.generate_scenario(low_spec())
        assert s.n_agents == 15
        assert len(s.distances) == 15
        assert all(15.0 <= d <= 20.0 for d in s.distances)
        assert all(10.0 <= v <= 15.0 for v in s.initial_speeds)
        assert len(s.control_points) == 15

    def test_zero_perturbation_identical_curves(self):
        spec = low_spec()
        spec["curves"]["perturbation_radius"] = 0.0
        s = scen.generate_scenario(spec)
        assert all(np.array_equal(cp, s.control_points[0]) for cp in s.control_points)

    def test_deterministic_given_seed(self):
        a = scen.generate_scenario(low_spec())
        b = scen.generate_scenario(low_spec())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_samples(self):
        a = scen.generate_scenario(low_spec(seed=1))
        b = scen.generate_scenario(low_spec(seed=2))
        assert not np.array_equal(a.distances, b.distances)

    def test_save_is_byte_identical(self, tmp_path):
        s = scen.generate_scenario(low_spec())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        s.save(p1)
        scen.generate_scenario(low_spec()).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_identical_runs(self, tmp_path):
        s = scen.generate_scenario(low_spec())
        path = tmp_path / "scenario.json"
        s.save(path)
        reloaded = scen.load_scenario(path)
        r1 = scen.run_experiment(s, out_dir=tmp_path / "o1")
        r2 = scen.run_experiment(reloaded, out_dir=tmp_path / "o2")
        assert (tmp_path / "o1" / "trace.csv").read_bytes() == (
            tmp_path / "o2" / "trace.csv"
        ).read_bytes()

    def test_rejects_bad_schema_version(self):
        with pytest.raises(InvalidSpec):
            scen.generate_scenario(low_spec(schema_version=99))

    def test_rejects_missing_field(self):
        spec = low_spec()
        del spec["distances"]
        with pytest.raises(InvalidSpec):
            scen.generate_scenario(spec)

    def test_rejects_bad_uniform_range(self):
        spec = low_spec()
        spec["distances"] = {"uniform": [20.0, 15.0]}
        with pytest.raises(InvalidSpec):
            scen.generate_scenario(spec)

    def test_rejects_wrong_value_count(self):
        spec = low_spec()
        spec["distances"] = {"values": [16.0, 17.0]}
        with pytest.raises(InvalidSpec):
            scen.generate_scenario(spec)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda spec: [spec], "spec must be a mapping", id="not-a-mapping"),
            pytest.param(
                lambda spec: spec | {"n_agents": 0}, "n_agents must be >= 1", id="n_agents-0"
            ),
            pytest.param(
                lambda spec: spec
                | {"curves": {"per_agent_control_points": [LOW_POLLUTION_POINTS] * 3}},
                "3 curve sets for 15 agents",
                id="curve-set-count",
            ),
            pytest.param(
                lambda spec: spec
                | {
                    "curves": {
                        "per_agent_control_points": [
                            [p + [0.0] for p in LOW_POLLUTION_POINTS]
                        ]
                        * 15
                    }
                },
                r"must be \(time, risk\) pairs",
                id="points-not-pairs",
            ),
            pytest.param(
                lambda spec: spec
                | {"curves": spec["curves"] | {"perturbation_radius": 1.0}},
                r"perturbation_radius must be in \[0, 1\)",
                id="radius-1.0",
            ),
            pytest.param(
                lambda spec: spec
                | {"curves": spec["curves"] | {"perturbation_radius": "x"}},
                "malformed field",
                id="radius-x",
            ),
            pytest.param(
                lambda spec: spec
                | {"curves": {"base_control_points": [[0.2, "x"]] * 10}},
                "malformed field",
                id="base-control-point-x",
            ),
            pytest.param(
                lambda spec: spec | {"curves": {}},
                "curves must give base_control_points",
                id="no-curve-source",
            ),
            pytest.param(
                lambda spec: spec
                | {
                    "curves": {
                        "base_control_points": [[0.2, float("nan")]]
                        + LOW_POLLUTION_POINTS[1:]
                    }
                },
                "control points must be finite",
                id="nan-control-point",
            ),
            pytest.param(
                lambda spec: spec | {"distances": {"range": [15.0, 20.0]}},
                "distances must give 'values' or 'uniform'",
                id="neither-values-nor-uniform",
            ),
            pytest.param(
                lambda spec: spec
                | {"curves": {"base_control_points": LOW_POLLUTION_POINTS,
                              "perturbation_radus": 0.0}},
                "curves: unexpected key 'perturbation_radus'",
                id="perturbation_radus",
            ),
            pytest.param(
                lambda spec: spec
                | {
                    "curves": {
                        "per_agent_control_points": [LOW_POLLUTION_POINTS] * 15,
                        "perturbation_radius": 0.1,
                    }
                },
                "curves: unexpected key 'perturbation_radius'",
                id="per-agent-with-radius",
            ),
            pytest.param(
                lambda spec: spec
                | {
                    "curves": {
                        "per_agent_control_points": [LOW_POLLUTION_POINTS] * 15,
                        "base_control_points": LOW_POLLUTION_POINTS,
                    }
                },
                "curves: unexpected key 'base_control_points'",
                id="both-curve-forms",
            ),
            pytest.param(
                lambda spec: spec
                | {"distances": {"values": [16.0] * 15, "uniform": [15.0, 20.0]}},
                "distances: unexpected key 'uniform'",
                id="values-and-uniform",
            ),
            pytest.param(
                lambda spec: spec
                | {"initial_speeds": {"uniform": [10.0, 15.0], "unit": "km/h"}},
                "initial_speeds: unexpected key 'unit'",
                id="uniform-with-unit",
            ),
        ],
    )
    def test_rejects_invalid_spec(self, edit, message):
        with pytest.raises(InvalidSpec, match=message):
            scen.generate_scenario(edit(low_spec()))

    @pytest.mark.parametrize(
        "section, value",
        [
            ("topology", {"model": "complete", "radius": 1}),
            ("topology", {"model": "nope"}),
            ("topology", {"model": "random_failure", "link_up_probability": 2}),
            ("solver", {"mu": None, "tolerance": 1e-3}),
            ("solver", {"mu": -1}),
        ],
    )
    def test_rejects_what_run_rejects_with_its_message(self, section, value):
        with pytest.raises(InvalidSpec) as at_generation:
            scen.generate_scenario(low_spec(**{section: value}))
        # the same section, in a scenario that was not generated from it
        s = dataclasses.replace(scen.generate_scenario(low_spec()), **{section: value})
        with pytest.raises(InvalidSpec) as at_run:
            scen.run_experiment(s)
        assert str(at_generation.value) == str(at_run.value)
        assert section in str(at_run.value)

    @pytest.mark.parametrize("solver", [{"mu": None}, {}])
    def test_null_or_missing_mu_is_automatic(self, solver):
        s = scen.generate_scenario(low_spec(solver=solver))
        bank = s.build_risks()
        mu = scen.consensus.auto_mu(bank, scen.oracle.solve_common_speed(bank).s_star)
        assert scen.run_experiment(s, max_iters=1).mu == mu

    def test_shares_no_dict_or_list_with_callers(self):
        spec = low_spec()
        spec["topology"] = {"model": "fixed", "edges": [[0, 1], [1, 2]]}
        s = scen.generate_scenario(spec)
        before = json.dumps(s.to_dict())

        def scribble(node):
            if isinstance(node, dict):
                for value in node.values():
                    scribble(value)
                node["scribbled"] = True
            elif isinstance(node, list):
                for value in node:
                    scribble(value)
                node.append("scribbled")

        scribble(spec)
        scribble(s.to_dict())
        assert json.dumps(s.to_dict()) == before

    def test_explicit_values_pass_through(self):
        spec = low_spec(n_agents=2)
        spec["distances"] = {"values": [16.0, 18.0]}
        spec["initial_speeds"] = {"values": [11.0, 12.0]}
        s = scen.generate_scenario(spec)
        assert np.array_equal(s.distances, [16.0, 18.0])
        assert np.array_equal(s.initial_speeds, [11.0, 12.0])

    def test_base_curve_group_is_one_array(self, tmp_path):
        # unsorted points, two of them at one time: sorted by time, then risk
        base = [[0.5333, 0.9], *LOW_POLLUTION_POINTS[::-1]]
        spec = low_spec()
        spec["curves"]["base_control_points"] = base
        s = scen.generate_scenario(spec)
        assert isinstance(s.control_points, np.ndarray)
        assert s.control_points.shape == (15, 11, 2)
        # the same group as a list of arrays: one time stretch per agent, the
        # seed's first draw, and Python's round per value
        scales = np.random.default_rng(spec["seed"]).uniform(0.9, 1.1, 15)
        curves = [
            np.array([[round(t * float(c), 6), r] for t, r in base]) for c in scales
        ]
        reference = dataclasses.replace(
            s, control_points=[pts[np.lexsort(pts.T[::-1])] for pts in curves]
        )
        assert json.dumps(s.to_dict()) == json.dumps(reference.to_dict())
        s.save(tmp_path / "stacked.json")
        reference.save(tmp_path / "list.json")
        saved = (tmp_path / "stacked.json").read_bytes()
        assert saved == (tmp_path / "list.json").read_bytes()
        first = s.control_points[0]
        assert first[1].tolist() == [round(0.5333 * scales[0], 6), 0.6754]
        assert first[2].tolist() == [round(0.5333 * scales[0], 6), 0.9]

    def test_ragged_per_agent_curves_load_and_run(self, tmp_path):
        rng = np.random.default_rng(6)
        curves = [random_convex_points(rng, n_pts=m) for m in (4, 12, 7, 9)]
        spec = low_spec(n_agents=4)
        spec["curves"] = {"per_agent_control_points": curves}
        s = scen.generate_scenario(spec)
        assert [pts.shape for pts in s.control_points] == [
            (4, 2), (12, 2), (7, 2), (9, 2)
        ]
        path = tmp_path / "ragged.json"
        s.save(path)
        reloaded = scen.load_scenario(path)
        assert reloaded.to_dict() == s.to_dict()
        assert scen.run_experiment(reloaded).converged


class TestRunExperiment:
    def test_low_pollution_converges_with_artifacts(self, tmp_path):
        s = scen.generate_scenario(low_spec())
        report = scen.run_experiment(s, out_dir=tmp_path)
        assert report.converged
        assert report.trace.iterations <= 50
        assert report.oracle_gap < 0.01
        for name in ("trace.csv", "speeds.svg", "risk_vs_time.svg", "risk_vs_speed.svg"):
            assert (tmp_path / name).exists()
        svg = (tmp_path / "speeds.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_high_exceeds_low_optimum(self):
        low = scen.run_experiment(
            scen.generate_scenario(scen.BUILTIN_SPECS["low_pollution"])
        )
        high = scen.run_experiment(
            scen.generate_scenario(scen.BUILTIN_SPECS["high_pollution"])
        )
        assert high.certificate.s_star > low.certificate.s_star
        assert high.final_speed > low.final_speed

    def test_disconnected_cliques_do_not_converge(self):
        spec = low_spec(n_agents=4)
        spec["topology"] = {"model": "fixed", "edges": [[0, 1], [2, 3]]}
        spec["initial_speeds"] = {"values": [10.0, 10.5, 14.5, 15.0]}
        spec["solver"] = {
            "mu": 1e-12,  # coupling effectively off: pure within-clique averaging
            "consensus_tol": 0.01,
            "optimality_tol": 1e-6,
            "max_iterations": 60,
        }
        report = scen.run_experiment(spec_to_scenario(spec))
        assert not report.converged
        assert report.trace.spreads[-1] > 0.01
        assert not report.ergodicity.connected

    def test_dump_matrices(self, tmp_path):
        s = scen.generate_scenario(low_spec())
        scen.run_experiment(s, out_dir=tmp_path, dump_matrices=True)
        dumped = sorted((tmp_path / "matrices").glob("P_*.csv"))
        assert dumped
        P = np.loadtxt(dumped[0], delimiter=",")
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_summary_mentions_ergodicity_proxy(self):
        s = scen.generate_scenario(low_spec())
        report = scen.run_experiment(s)
        text = "\n".join(report.summary_lines())
        assert "proxy" in text
        assert "oracle" in text


def spec_to_scenario(spec):
    return scen.generate_scenario(spec)


class TestShippedScenarioFiles:
    @pytest.mark.parametrize("name", ["low_pollution", "high_pollution"])
    def test_files_match_builtin_specs(self, name):
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        with open(path) as fh:
            on_disk = json.load(fh)
        regenerated = scen.generate_scenario(scen.BUILTIN_SPECS[name]).to_dict()
        assert on_disk == regenerated
