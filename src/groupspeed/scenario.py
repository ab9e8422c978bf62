"""Scenario schema, seeded generation, and experiment execution.

A scenario file is JSON with a schema_version field. Fields may be given
either explicitly (per-agent lists) or as generator specs (base curve plus
perturbation radius, uniform ranges); `generate_scenario` materializes every
sampled quantity so that saving and reloading reproduces runs byte for byte.
"""

import copy
import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import consensus, netsim, oracle, svgchart
from .errors import DegenerateInput, InvalidSpec
from .riskmodel import RiskBank

SCHEMA_VERSION = 1

# Two shipped curve profiles, digitized approximations of published
# risk-vs-travel-time shapes at two background PM2.5 levels. The low profile
# bottoms out near 1.25 h, the high profile near 0.45 h (heavier pollution
# favors shorter exposure). Approximations, not ground truth.
LOW_POLLUTION_POINTS = [
    [0.2, 0.8008], [0.5333, 0.6754], [0.8667, 0.5883], [1.2, 0.5507],
    [1.5333, 0.5736], [1.8667, 0.6682], [2.2, 0.8456], [2.5333, 1.1168],
    [2.8667, 1.4931], [3.2, 1.9854],
]
HIGH_POLLUTION_POINTS = [
    [0.1, 0.9619], [0.3111, 0.7842], [0.5222, 0.7595], [0.7333, 0.899],
    [0.9444, 1.2142], [1.1556, 1.7163], [1.3667, 2.4166], [1.5778, 3.3263],
    [1.7889, 4.4567], [2.0, 5.8193],
]


def _builtin_spec(label, points):
    """A shipped 15-agent spec: the curve profile perturbed per agent."""
    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "seed": 1,
        "n_agents": 15,
        "curves": {"base_control_points": points, "perturbation_radius": 0.1},
        "distances": {"uniform": [15.0, 20.0]},
        "initial_speeds": {"uniform": [10.0, 15.0]},
        "topology": {"model": "complete"},
        "solver": {
            "mu": None,
            "consensus_tol": 0.005,
            "optimality_tol": 1e-6,
            "max_iterations": 500,
        },
    }


BUILTIN_SPECS = {
    "low_pollution": _builtin_spec(
        "low pollution (PM2.5 50 ug/m3)", LOW_POLLUTION_POINTS
    ),
    "high_pollution": _builtin_spec(
        "high pollution (PM2.5 153 ug/m3)", HIGH_POLLUTION_POINTS
    ),
}


@dataclass
class Scenario:
    """Fully materialized experiment description."""

    label: str
    seed: int
    n_agents: int
    control_points: list | np.ndarray  # a sequence of (m_i, 2) arrays: (hours, risk)
    distances: np.ndarray  # km
    initial_speeds: np.ndarray  # km/h
    topology: dict
    solver: dict

    def to_dict(self):
        curves = [pts.tolist() for pts in self.control_points]
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "seed": self.seed,
            "n_agents": self.n_agents,
            "curves": {"per_agent_control_points": curves},
            "distances": {"values": self.distances.tolist()},
            "initial_speeds": {"values": self.initial_speeds.tolist()},
            "topology": copy.deepcopy(self.topology),
            "solver": copy.deepcopy(self.solver),
        }

    def save(self, path):
        with open(path, "w", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def build_risks(self):
        """The group's RiskBank, fitted from its curves and distances."""
        return RiskBank(self.control_points, self.distances)

    def build_topology(self):
        return netsim.make_topology(self.topology, self.n_agents, seed=self.seed)


def generate_scenario(spec):
    """Materialize a scenario spec: sample everything the spec leaves random.

    All draws come from one generator seeded by the spec's seed, in a fixed
    order, so equal (spec, seed) always yields the identical scenario.
    Raises InvalidSpec for a missing field and for any malformed value.
    """
    try:
        return _generate(spec)
    except KeyError as exc:
        raise InvalidSpec(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed field: {exc}") from exc


def _generate(spec):
    if not isinstance(spec, dict):
        raise InvalidSpec("spec must be a mapping")
    version = spec.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise InvalidSpec(f"unsupported schema_version {version!r}")
    n = operator.index(_numbers(spec["n_agents"], "n_agents"))
    seed = operator.index(_numbers(spec["seed"], "seed"))
    curves = spec["curves"]
    distances = spec["distances"]
    speeds = spec["initial_speeds"]
    topology = copy.deepcopy(dict(spec["topology"]))
    for key, value in topology.items():
        if key not in ("model", "directed"):  # the rest are numbers or edge lists
            _numbers(value, f"topology {key}")
    solver = dict(spec["solver"])
    if n < 1:
        raise InvalidSpec(f"n_agents must be >= 1, got {n}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)

    if "per_agent_control_points" in curves:
        _only(curves, "curves", "per_agent_control_points")
        per_agent = _numbers(curves["per_agent_control_points"], "control points")
        cp = [np.array(pts, dtype=float) for pts in per_agent]
        if len(cp) != n:
            raise InvalidSpec(f"{len(cp)} curve sets for {n} agents")
        if any(pts.ndim != 2 or pts.shape[1] != 2 for pts in cp):
            raise InvalidSpec("control points must be (time, risk) pairs")
        cp = [_by_time(pts) for pts in cp]
    elif "base_control_points" in curves:
        _only(curves, "curves", "base_control_points", "perturbation_radius")
        base = _numbers(curves["base_control_points"], "control points")
        base = [list(map(float, p)) for p in base]
        radius = curves.get("perturbation_radius", 0.1)
        radius = float(_numbers(radius, "perturbation_radius"))
        if not 0.0 <= radius < 1.0:
            raise InvalidSpec(f"perturbation_radius must be in [0, 1), got {radius}")
        # per-agent time-axis stretch moves tipping and breakeven together
        scales = rng.uniform(1.0 - radius, 1.0 + radius, n).tolist()
        # Python's round per value: np.round can differ in the last digit
        cp = [[[round(t * c, 6), r] for t, r in base] for c in scales]
        cp = _by_time(np.array(cp).reshape(n, len(base), 2))  # one (n, m, 2) array
    else:
        raise InvalidSpec("curves must give base_control_points or per_agent_control_points")

    dist = _materialize(rng, distances, n, "distances")
    init = _materialize(rng, speeds, n, "initial_speeds")
    # read as run_experiment reads them, which sets a null or missing mu itself
    netsim.make_topology(topology, n, seed=seed)
    _solver_config(solver if solver.get("mu") is not None else solver | {"mu": 1.0})

    return Scenario(
        label=str(spec.get("label", "")),
        seed=seed,
        n_agents=n,
        control_points=cp,
        distances=dist,
        initial_speeds=init,
        topology=topology,
        solver=solver,
    )


def _by_time(pts):
    """Control points sorted by time, then risk, along the second-last axis."""
    if not np.isfinite(pts).all():
        raise InvalidSpec("control points must be finite")
    order = np.lexsort((pts[..., 1], pts[..., 0]))
    return np.take_along_axis(pts, order[..., None], axis=-2)


def _numbers(value, name):
    """value as given; InvalidSpec if it, or any entry of a list in it, is a boolean.

    JSON true and false load as bools, which int, float and numpy read as 1 and 0.
    """
    if isinstance(value, bool):
        raise InvalidSpec(f"{name}: expected a number, got {value!r}")
    if isinstance(value, (list, tuple)):
        for v in value:
            _numbers(v, name)
    return value


def _only(section, name, form, *optional):
    """InvalidSpec naming the field if `section` has a key beyond its form's."""
    for key in section:
        if key != form and key not in optional:
            raise InvalidSpec(f"{name}: unexpected key {key!r} with {form!r}")


def _materialize(rng, field_spec, n, name):
    if "values" in field_spec:
        _only(field_spec, name, "values")
        vals = np.array([float(v) for v in _numbers(field_spec["values"], name)])
        if len(vals) != n:
            raise InvalidSpec(f"{name}: {len(vals)} values for {n} agents")
        if not np.isfinite(vals).all():
            raise InvalidSpec(f"{name}: values must be finite")
        return vals
    if "uniform" in field_spec:
        _only(field_spec, name, "uniform")
        lo, hi = _numbers(field_spec["uniform"], name)
        if not 0 < lo < hi < math.inf:
            raise InvalidSpec(f"{name}: bad uniform range [{lo}, {hi}]")
        return np.array([round(float(v), 6) for v in rng.uniform(lo, hi, n)])
    raise InvalidSpec(f"{name} must give 'values' or 'uniform'")


def load_scenario(path):
    with open(path) as fh:
        spec = json.load(fh)
    return generate_scenario(spec)


@dataclass
class ExperimentReport:
    scenario: Scenario
    trace: consensus.SimulationTrace
    certificate: oracle.OptimalityCertificate
    mu: float
    ergodicity: netsim.ErgodicityReport

    @property
    def converged(self):
        return self.trace.converged

    @property
    def final_speed(self):
        return self.trace.final_common_speed

    @property
    def oracle_gap(self):
        return abs(self.final_speed - self.certificate.s_star)

    def summary_lines(self):
        c = self.certificate
        lines = [
            f"scenario: {self.scenario.label}",
            f"agents: {self.scenario.n_agents}  seed: {self.scenario.seed}",
            f"converged: {self.converged}  iterations: {self.trace.iterations}"
            + ("" if self.converged else f"  stop: {self.trace.stop_reason}"),
            f"final common speed: {self.final_speed:.4f} km/h",
            f"final spread: {self.trace.spreads[-1]:.3e} km/h",
            f"oracle optimum: {c.s_star:.4f} km/h (residual {c.residual:.3e},"
            f" bracket {c.bracket:.1e}, boundary: {c.at_boundary})",
            f"oracle gap: {self.oracle_gap:.3e} km/h",
            f"step gain mu: {self.mu:.6g}",
            f"ergodicity proxy (window {self.ergodicity.window}): "
            f"{'connected' if self.ergodicity.connected else 'NOT connected'}"
            f" [{self.ergodicity.note}]",
        ]
        return lines


def run_experiment(scenario, out_dir=None, dump_matrices=False, max_iters=None):
    """Run consensus plus the oracle, emit trace/plots, return a report."""
    bank = scenario.build_risks()
    topology = scenario.build_topology()
    certificate = oracle.solve_common_speed(bank)

    solver = dict(scenario.solver)
    if max_iters is not None:
        solver["max_iterations"] = max_iters
    if solver.get("mu") is None:
        try:
            solver["mu"] = consensus.auto_mu(bank, certificate.s_star)
        except ValueError as exc:  # the group's curvature sum at s* is not positive
            raise DegenerateInput(f"step gain: {exc}") from exc
    config = _solver_config(solver)
    trace = consensus.run(scenario.initial_speeds, topology, bank, config)

    window = min(10, max(1, trace.iterations))
    ergodicity = topology.check_ergodicity_window(0, window)

    report = ExperimentReport(
        scenario=scenario,
        trace=trace,
        certificate=certificate,
        mu=config.mu,
        ergodicity=ergodicity,
    )

    if out_dir is not None:
        _emit_artifacts(report, bank, topology, out_dir, dump_matrices)
    return report


def _solver_config(solver):
    """consensus.SolverConfig(**solver); InvalidSpec for an unknown key or a bad value."""
    try:
        return consensus.SolverConfig(**solver)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"solver: {exc}") from exc


def _emit_artifacts(report, bank, topology, out_dir, dump_matrices):
    os.makedirs(out_dir, exist_ok=True)
    trace = report.trace
    trace.to_csv(os.path.join(out_dir, "trace.csv"))

    ks = np.arange(len(trace.speeds))
    speed_series = [(f"agent {i + 1}" if i < 5 else "", ks, speeds)
                    for i, speeds in enumerate(trace.speeds.T)]
    svgchart.write_chart(
        os.path.join(out_dir, "speeds.svg"),
        speed_series,
        title=f"Speed convergence: {report.scenario.label}",
        x_label="iteration k",
        y_label="recommended speed (km/h)",
    )

    # one bank call per panel: column i of each (200, n) grid is agent i's
    ts = np.linspace(bank.t_lo, bank.t_hi, 200)
    ss = np.linspace(bank.lo, np.minimum(bank.hi, 3.0 * bank.minimizer), 200)
    time_series = [("", t, f) for t, f in zip(ts.T, bank._f(ts, 0).T)]
    speed_risk_series = [("", s, g) for s, g in zip(ss.T, bank.value(ss).T)]
    svgchart.write_chart(
        os.path.join(out_dir, "risk_vs_time.svg"),
        time_series,
        title="Risk vs travel time",
        x_label="travel time (h)",
        y_label="relative risk",
    )
    svgchart.write_chart(
        os.path.join(out_dir, "risk_vs_speed.svg"),
        speed_risk_series,
        title="Risk vs speed",
        x_label="speed (km/h)",
        y_label="relative risk",
    )

    if dump_matrices:
        mdir = os.path.join(out_dir, "matrices")
        os.makedirs(mdir, exist_ok=True)
        for k in range(min(trace.iterations, 50)):
            np.savetxt(
                os.path.join(mdir, f"P_{k:04d}.csv"),
                topology.build_matrix(k),
                delimiter=",",
            )
