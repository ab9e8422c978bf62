"""Command-line interface: generate, run, sweep, verify."""

import argparse
import json
import os
import sys

import numpy as np

from . import scenario as scen
from .errors import GroupSpeedError, InvalidSpec
from .riskmodel import check_quasi_convexity


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="groupspeed",
        description="Group speed-advisory consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="materialize a scenario file from a spec")
    g.add_argument(
        "--spec",
        required=True,
        help=f"path to a spec JSON, or a builtin name: {', '.join(scen.BUILTIN_SPECS)}",
    )
    g.add_argument("--out", required=True, help="output scenario path")
    _add_common(g)

    r = sub.add_parser("run", help="run an experiment from a scenario file")
    r.add_argument("--scenario", required=True, help="scenario JSON path")
    r.add_argument("--out", default=None, help="output directory for trace/plots")
    r.add_argument("--dump-matrices", action="store_true")
    r.add_argument("--max-iters", type=int, default=None)
    _add_common(r)

    w = sub.add_parser("sweep", help="grid sweep over step gains and seeds")
    w.add_argument("--scenario", required=True)
    w.add_argument("--out", required=True)
    w.add_argument("--mu", required=True, help="comma-separated step gains")
    w.add_argument("--seeds", default="1", help="comma-separated seeds")
    w.add_argument("--max-iters", type=int, default=None)

    v = sub.add_parser("verify", help="invariant suite on a scenario")
    v.add_argument("--scenario", required=True)
    _add_common(v)

    return parser


def _load_spec(spec_arg):
    if spec_arg in scen.BUILTIN_SPECS:
        return json.loads(json.dumps(scen.BUILTIN_SPECS[spec_arg]))
    with open(spec_arg) as fh:
        return json.load(fh)


def cmd_generate(args):
    spec = _load_spec(args.spec)
    if args.seed is not None:
        spec["seed"] = args.seed
    s = scen.generate_scenario(spec)
    s.save(args.out)
    print(f"wrote {args.out} ({s.n_agents} agents, label: {s.label!r})")
    return 0


def _load_scenario(args):
    """The scenario file, regenerated under --seed when one is given."""
    s = scen.load_scenario(args.scenario)
    if args.seed is None:
        return s
    spec = s.to_dict()
    spec["seed"] = args.seed
    return scen.generate_scenario(spec)


def cmd_run(args):
    s = _load_scenario(args)
    report = scen.run_experiment(
        s, out_dir=args.out, dump_matrices=args.dump_matrices, max_iters=args.max_iters
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.converged else 1


def cmd_sweep(args):
    try:
        mus = [float(m) for m in args.mu.split(",")]
        seeds = [int(x) for x in args.seeds.split(",")]
    except ValueError as exc:
        raise InvalidSpec(f"sweep: {exc}") from exc
    s = scen.load_scenario(args.scenario)
    os.makedirs(args.out, exist_ok=True)
    rows = ["mu,seed,converged,iterations,final_speed,oracle_gap"]
    worst = 0
    for mu in mus:
        for seed in seeds:
            spec = s.to_dict()
            spec["seed"] = seed
            spec["solver"]["mu"] = mu
            sc = scen.generate_scenario(spec)
            report = scen.run_experiment(sc, max_iters=args.max_iters)
            rows.append(
                f"{mu},{seed},{int(report.converged)},{report.trace.iterations},"
                f"{report.final_speed!r},{report.oracle_gap!r}"
            )
            worst = max(worst, 0 if report.converged else 1)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path} ({len(rows) - 1} runs)")
    return worst


def cmd_verify(args):
    s = _load_scenario(args)
    failures = []
    for i, g in enumerate(s.build_risks()):
        rep = check_quasi_convexity(g, samples=10_000, seed=s.seed + i)
        if not rep.passed:
            failures.append(f"agent {i}: quasi-convexity counterexample {rep.counterexample}")
    topology = s.build_topology()
    for k in range(20):
        P = topology.build_matrix(k)
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            failures.append(f"P({k}) violates row-stochasticity")
        if np.any(np.diag(P) <= 0):
            failures.append(f"P({k}) has a nonpositive diagonal entry")
    erg = topology.check_ergodicity_window(0, 10)
    print(f"quasi-convexity: {s.n_agents} agents checked")
    print(f"matrices: 20 iterations checked")
    print(
        f"ergodicity proxy: {'connected' if erg.connected else 'NOT connected'}"
        f" [{erg.note}]"
    )
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (GroupSpeedError, OSError, json.JSONDecodeError) as exc:
        # a bad scenario or spec, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
