import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import groupspeed
from groupspeed import scenario as scen
from groupspeed.cli import main
from groupspeed.errors import InvalidSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestGenerate:
    def test_builtin_spec(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["generate", "--spec", "low_pollution", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["n_agents"] == 15
        assert "wrote" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--spec", "low_pollution", "--out", str(a), "--seed", "7"])
        main(["generate", "--spec", "low_pollution", "--out", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("name", ["low_pollution", "high_pollution"])
    def test_builtin_reproduces_shipped_file(self, tmp_path, name):
        out = tmp_path / "s.json"
        assert main(["generate", "--spec", name, "--out", str(out)]) == 0
        assert out.read_bytes() == (SCENARIOS / f"{name}.json").read_bytes()

    def test_spec_from_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            (SCENARIOS / "low_pollution.json").read_text()
        )
        out = tmp_path / "s.json"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0


class TestRun:
    def test_converged_run_exits_zero(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", str(SCENARIOS / "low_pollution.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True  iterations: 5\n" in out  # no stop reason
        assert (tmp_path / "trace.csv").exists()

    def test_nonconvergence_exits_nonzero(self, tmp_path, capsys):
        spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
        spec["n_agents"] = 4
        spec["curves"] = {
            "base_control_points": spec["curves"]["per_agent_control_points"][0],
            "perturbation_radius": 0.05,
        }
        spec["distances"] = {"uniform": [15.0, 20.0]}
        spec["initial_speeds"] = {"values": [10.0, 10.5, 14.5, 15.0]}
        spec["topology"] = {"model": "fixed", "edges": [[0, 1], [2, 3]]}
        spec["solver"]["mu"] = 1e-12
        spec["solver"]["max_iterations"] = 40
        path = tmp_path / "cliques.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(path)]) == 1
        out = capsys.readouterr().out
        assert (
            "converged: False  iterations: 40"
            "  stop: no convergence within 40 iterations\n"
        ) in out

    def test_max_iters_flag(self, tmp_path):
        code = main(
            ["run", "--scenario", str(SCENARIOS / "low_pollution.json"),
             "--out", str(tmp_path), "--max-iters", "1"]
        )
        assert code == 1  # one iteration is not enough to hit optimality

    def test_dump_matrices_flag(self, tmp_path):
        main(
            ["run", "--scenario", str(SCENARIOS / "low_pollution.json"),
             "--out", str(tmp_path), "--dump-matrices"]
        )
        assert list((tmp_path / "matrices").glob("P_*.csv"))

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("r1", "r2"):
            main(
                ["run", "--scenario", str(SCENARIOS / "low_pollution.json"),
                 "--out", str(tmp_path / d)]
            )
        assert (tmp_path / "r1" / "trace.csv").read_bytes() == (
            tmp_path / "r2" / "trace.csv"
        ).read_bytes()

    def test_svgs_parse_with_markup_in_label(self, tmp_path):
        label = "Dublin <-> Maynooth & back"
        spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
        spec["label"] = label
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        for name in ("speeds.svg", "risk_vs_time.svg", "risk_vs_speed.svg"):
            root = ElementTree.parse(tmp_path / name).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
        title = ElementTree.parse(tmp_path / "speeds.svg").find(".//{*}text")
        assert title.text == f"Speed convergence: {label}"


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", str(SCENARIOS / "low_pollution.json"),
             "--out", str(tmp_path), "--mu", "5.0,15.0", "--seeds", "1,2"]
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "mu,seed,converged,iterations,final_speed,oracle_gap"
        assert len(rows) == 5


class TestVerify:
    def test_shipped_scenario_passes(self, capsys):
        assert main(["verify", "--scenario", str(SCENARIOS / "low_pollution.json")]) == 0
        out = capsys.readouterr().out
        assert "quasi-convexity" in out
        assert "ergodicity proxy" in out

    def test_seed_override_matches_run(self, tmp_path, capsys):
        """`verify --seed` regenerates the scenario as `run --seed` does."""
        spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
        spec["topology"] = {"model": "random_failure", "link_up_probability": 0.012}
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(spec))
        scenario = ["--scenario", str(path), "--seed", "3"]
        main(["run", *scenario, "--max-iters", "10"])
        run_out = capsys.readouterr().out
        assert main(["verify", *scenario]) == 0
        verify_out = capsys.readouterr().out
        # seed 3 draws a connected union graph over the first 10 iterations
        assert "ergodicity proxy (window 10): connected" in run_out
        assert "ergodicity proxy: connected" in verify_out

    def test_unknown_scenario_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert main(["verify", "--scenario", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBadInput:
    """Bad values and unreadable files end in `error:` and exit 2."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu", -1),
            ("mu", float("nan")),
            ("mu", float("inf")),
            ("consensus_tol", float("nan")),
            ("max_iterations", 0),
            ("max_iterations", 2.5),
            ("n_agents", "x"),
            ("seed", "x"),
            ("seed", -1),
            pytest.param(
                "topology",
                {"model": "random_failure", "link_up_probability": 0.5, "seed": -1},
                id="topology-seed--1",
            ),
            pytest.param(
                "topology",
                {"model": "random_failure", "link_up_probability": "x"},
                id="topology-link_up_probability-x",
            ),
            pytest.param(
                "topology", {"model": "proximity", "radius": "x"}, id="topology-radius-x"
            ),
            pytest.param(
                "topology", {"model": "fixed", "edges": [[0, "a"]]}, id="topology-edges-a"
            ),
            ("n_agents", 15.9),
            ("seed", 1.7),
            pytest.param(
                "topology",
                {"model": "random_failure", "link_up_probability": 0.5, "seed": 1.7},
                id="topology-seed-1.7",
            ),
            pytest.param(
                "topology", {"model": "fixed", "edges": [[0, 1.7]]}, id="topology-edges-1.7"
            ),
            pytest.param(
                "topology",
                {"model": "fixed", "edges": [[0, 1]], "directed": "no"},
                id="topology-directed-no",
            ),
            pytest.param(
                "topology", {"model": "proximity", "radius": float("nan")},
                id="topology-radius-nan",
            ),
            pytest.param(
                "topology", {"model": "proximity", "dt_hours": -0.01},
                id="topology-dt_hours--0.01",
            ),
            pytest.param(
                "topology", {"model": "proximity", "route_span": float("inf")},
                id="topology-route_span-inf",
            ),
            pytest.param(
                "topology", {"model": "proximity", "radus": 0.2}, id="topology-radus"
            ),
            pytest.param("topology", {"model": "fixed"}, id="topology-no-edges"),
            pytest.param("topology", {"model": ["complete"]}, id="topology-model-list"),
            pytest.param(
                "distances", {"values": [float("nan")] * 15}, id="distances-nan"
            ),
            pytest.param(
                "distances", {"uniform": [15.0, float("inf")]}, id="distances-uniform-inf"
            ),
            pytest.param(
                "initial_speeds", {"values": [float("nan")] + [12.0] * 14},
                id="initial_speeds-nan",
            ),
        ],
    )
    def test_bad_value(self, tmp_path, capsys, field, value):
        spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
        (spec["solver"] if field in spec["solver"] else spec)[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("distances",), {"uniform": ["a", 20]}, id="uniform-a"),
            pytest.param(("distances",), {"uniform": [1]}, id="uniform-one-bound"),
            pytest.param(
                ("distances",), {"values": ["x"] + [16.0] * 14}, id="distances-x"
            ),
            pytest.param(
                ("initial_speeds",), {"values": ["x"] + [12.0] * 14},
                id="initial_speeds-x",
            ),
            pytest.param(
                ("curves", "per_agent_control_points", 0, 0), [0.5, "x"],
                id="control-point-x",
            ),
        ],
    )
    def test_non_numeric_value(self, tmp_path, capsys, path, value):
        spec = _edited_spec(path, value)
        with pytest.raises(InvalidSpec):
            scen.generate_scenario(spec)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            *(pytest.param((f,), True, id=f) for f in ("n_agents", "seed")),
            *(
                pytest.param(("solver", f), True, id=f)
                for f in ("mu", "consensus_tol", "optimality_tol", "max_iterations")
            ),
            pytest.param(
                ("topology",),
                {"model": "random_failure", "link_up_probability": True},
                id="link_up_probability",
            ),
            pytest.param(
                ("topology",),
                {"model": "random_failure", "link_up_probability": 0.5, "seed": True},
                id="topology-seed",
            ),
            *(
                pytest.param(("topology",), {"model": "proximity", f: True}, id=f)
                for f in ("radius", "route_span", "dt_hours")
            ),
            pytest.param(
                ("topology",), {"model": "fixed", "edges": [[0, 1], [1, True]]},
                id="edges",
            ),
            pytest.param(
                ("distances",), {"values": [True] + [16.0] * 14}, id="distances-values"
            ),
            pytest.param(
                ("distances",), {"uniform": [True, 20.0]}, id="distances-uniform"
            ),
            pytest.param(
                ("initial_speeds",), {"values": [12.0] * 14 + [True]},
                id="initial_speeds-values",
            ),
            pytest.param(
                ("initial_speeds",), {"uniform": [True, 15.0]},
                id="initial_speeds-uniform",
            ),
            pytest.param(
                ("curves",),
                {"base_control_points": scen.LOW_POLLUTION_POINTS,
                 "perturbation_radius": True},
                id="perturbation_radius",
            ),
            pytest.param(
                ("curves", "per_agent_control_points", 0, 0, 1), True,
                id="control-point",
            ),
            pytest.param(
                ("curves",),
                {"base_control_points": [[0.2, True]] + scen.LOW_POLLUTION_POINTS[1:]},
                id="base-control-point",
            ),
            pytest.param(("schema_version",), True, id="schema_version"),
        ],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, path, value):
        spec = _edited_spec(path, value)
        with pytest.raises(InvalidSpec, match="True"):
            scen.run_experiment(scen.generate_scenario(spec))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_solver_key(self, tmp_path, capsys):
        spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
        spec["solver"]["max_iteration"] = 10  # misspelt max_iterations
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error: solver:" in capsys.readouterr().err

    def test_sweep_zero_mu(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenario", str(SCENARIOS / "low_pollution.json"),
             "--out", str(tmp_path), "--mu", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--mu", "x"), ("--seeds", "y")])
    def test_sweep_unparsable_list(self, tmp_path, capsys, flag, value):
        args = ["sweep", "--scenario", str(SCENARIOS / "low_pollution.json"),
                "--out", str(tmp_path), "--mu", "5.0"]
        assert main(args + [flag, value]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_curvature_sum(self, tmp_path, capsys):
        # two 1e-10 km routes: the common domain is narrower than the oracle's
        # bracket, so s* is its midpoint, where the curvature sum is -8.1e18
        spec = scen.BUILTIN_SPECS["low_pollution"] | {
            "n_agents": 2, "distances": {"values": [1e-10, 1e-10]}
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error: step gain: nonpositive curvature sum" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("distance", [1e-300, 1e308])
    def test_extreme_distance(self, tmp_path, capsys, command, distance):
        # speeds of ~1e-300 or ~1e308 km/h cannot be cubed in float64; the
        # error comes before any evaluation, so with no RuntimeWarning
        spec = scen.BUILTIN_SPECS["low_pollution"] | {
            "n_agents": 2, "distances": {"values": [distance, distance]}
        }
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(spec))
        assert main([command, "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: distance {distance} km")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,')
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def _edited_spec(path, value):
    """The shipped low-pollution spec with the entry at path set to value."""
    spec = json.loads((SCENARIOS / "low_pollution.json").read_text())
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


def _fresh_interpreter(code):
    """Standard output of `code` run in a new interpreter that imports this package."""
    src = str(Path(groupspeed.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_needs_no_scipy():
    code = "import sys, groupspeed; print([m for m in sys.modules if 'scipy' in m])"
    assert _fresh_interpreter(code) == "[]"


def test_cli_imports_beyond_numpy():
    """The modules `import groupspeed.cli` adds to numpy's, on Python 3.11.

    The benchmark times this import in fresh interpreters as set-up, so a new
    module on this path has to be added here on purpose.
    """
    code = (
        "import sys, numpy; before = set(sys.modules); import groupspeed.cli; "
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[0] != 'groupspeed'))"
    )
    added = [
        "_json", "argparse", "copy", "dataclasses", "gettext",
        "json", "json.decoder", "json.encoder", "json.scanner",
    ]
    assert _fresh_interpreter(code) == repr(added)
