"""Benchmark of the groupspeed speed advisory.

Run from the repository root:

    python3 bench/run.py --workload small_groups --seed 1 --seconds 20 --trace 0

Workloads: small_groups, large_lossy_groups, audit (see bench/README.md).
With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 the program's layers are wrapped by bench/tracing.py and the run
reports the per-layer metrics instead. Every output is checked against the
benchmark's own reference (bench/checks.py). The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The program is imported from src/ next to this directory, never from an
installed copy; without it the run exits with status 1.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="internal: import the program, generate one round, print seconds",
    )
    return p.parse_args(argv)


def import_program():
    """The groupspeed package and its modules, from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import groupspeed
    from groupspeed import cli, consensus, netsim, oracle, riskmodel, scenario, svgchart

    if not Path(groupspeed.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"groupspeed found at {groupspeed.__file__}, not in {SRC}")
    return SimpleNamespace(
        groupspeed=groupspeed, cli=cli, consensus=consensus, netsim=netsim,
        oracle=oracle, riskmodel=riskmodel, scenario=scenario, svgchart=svgchart,
    )


def measure_setup(args):
    """Median over fresh interpreters of: import the program, generate a round."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_workload(gs, args, tracer):
    """Closed loop over whole rounds until --seconds have passed."""
    builtin = gs.scenario.BUILTIN_SPECS
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))

    def request(spec, tag):
        if args.workload == "audit":
            return workloads.audit(gs, spec, str(workdir / tag))
        return workloads.advise(gs, spec)

    try:
        warmup = workloads.round_specs(
            args.workload, args.seed, workloads.WARMUP_ROUND, builtin
        )[0]
        request(warmup, "warmup")
        if tracer is not None:
            tracer.install(gs)

        run = SimpleNamespace(
            attempted=0, failed=0, latencies=[], results=[], round0=None, rounds=0
        )
        start = time.perf_counter()
        while True:
            specs = workloads.round_specs(args.workload, args.seed, run.rounds, builtin)
            for i, spec in enumerate(specs):
                run.attempted += 1
                if tracer is not None:
                    tracer.request = f"r{run.rounds}c{i}"
                t = time.perf_counter()
                try:
                    result = request(spec, f"r{run.rounds}c{i}")
                except Exception:  # a failed request is counted, the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    run.failed += 1
                    continue
                latency = time.perf_counter() - t
                if not result["report"].converged:
                    print(f"{spec['label']}: no convergence", file=sys.stderr)
                    run.failed += 1
                    continue
                run.latencies.append(latency)
                run.results.append(result)
            if tracer is not None and run.rounds == 0:
                run.round0 = (Counter(tracer.calls), len(run.results))
            run.rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        run.wall = time.perf_counter() - start
        # before the checks import more of scipy into this process
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()

        import checks

        check = checks.check_audit if args.workload == "audit" else checks.check_advisory
        run.errors = [
            f"{result['scenario'].label}: {err}"
            for result in run.results
            for err in check(result)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def end_to_end_metrics(run, setup_s):
    agents = sum(r["scenario"].n_agents for r in run.results)
    return {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
        "requests_per_s": (len(run.results) / run.wall, "1/s"),
        "agents_advised_per_s": (agents / run.wall, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def layer_metrics(run, tracer):
    """Times in ms per request over the run; counts per request over round 0."""
    from tracing import ALL, SCALAR_EVALS

    n = len(run.results)
    calls0, n0 = run.round0
    n0 = max(n0, 1)

    def ms(name):
        return 1e3 * tracer.seconds[name] / n

    def self_ms(name):
        return 1e3 * tracer.self_seconds[name] / n

    def per0(name, parent=ALL):
        return tracer.count(name, parent, calls0) / n0

    consensus_derivs = tracer.count(
        "riskmodel.scalar_derivative", "consensus.run", calls0
    )
    agent_rows = tracer.count("consensus.agent_rows", ALL, calls0)
    return {
        "riskmodel.fit_ms": (ms("riskmodel.fit_risk_curve"), "ms"),
        "riskmodel.fit_calls": (per0("riskmodel.fit_risk_curve"), "count"),
        "riskmodel.scalar_eval_calls": (sum(per0(s) for s in SCALAR_EVALS), "count"),
        "riskmodel.scalar_eval_ms": (sum(ms(s) for s in SCALAR_EVALS), "ms"),
        "riskmodel.array_points": (per0("riskmodel.array_points"), "count"),
        "riskmodel.array_eval_ms": (ms("riskmodel.array_eval"), "ms"),
        "riskmodel.quasi_convexity_ms": (ms("riskmodel.check_quasi_convexity"), "ms"),
        "oracle.solve_ms": (ms("oracle.solve_common_speed"), "ms"),
        "oracle.derivative_calls": (
            per0("riskmodel.scalar_derivative", "oracle.solve_common_speed"), "count"
        ),
        "oracle.brute_force_ms": (ms("oracle.brute_force_verify"), "ms"),
        "consensus.run_ms": (ms("consensus.run"), "ms"),
        "consensus.self_ms": (self_ms("consensus.run"), "ms"),
        "consensus.iterations": (per0("consensus.iterations"), "count"),
        "consensus.auto_mu_ms": (ms("consensus.auto_mu"), "ms"),
        "consensus.derivative_evals_per_agent_step": (
            consensus_derivs / max(agent_rows, 1), "ratio"
        ),
        "consensus.trace_csv_ms": (ms("consensus.to_csv"), "ms"),
        "netsim.build_matrix_ms": (ms("netsim.build_matrix"), "ms"),
        "netsim.build_matrix_calls": (per0("netsim.build_matrix"), "count"),
        "netsim.neighbors_calls": (per0("netsim.neighbors"), "count"),
        "netsim.ergodicity_ms": (ms("netsim.check_ergodicity_window"), "ms"),
        "netsim.record_speeds_ms": (ms("netsim.record_speeds"), "ms"),
        "scenario.generate_ms": (ms("scenario.generate_scenario"), "ms"),
        "scenario.run_experiment_ms": (ms("scenario.run_experiment"), "ms"),
        "scenario.self_ms": (self_ms("scenario.run_experiment"), "ms"),
        "svgchart.write_ms": (ms("svgchart.write_chart"), "ms"),
        "svgchart.bytes_written": (per0("svgchart.bytes_written"), "B"),
        "cli.verify_ms": (ms("cli.main"), "ms"),
        "trace.request_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        gs = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 1

    if args.setup_probe:
        for spec in workloads.round_specs(
            args.workload, args.seed, 0, gs.scenario.BUILTIN_SPECS
        ):
            gs.scenario.generate_scenario(spec)
        print(time.perf_counter() - _T0)
        return 0

    setup_s = measure_setup(args) if not args.trace else None
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run = run_workload(gs, args, tracer)
    for err in run.errors:
        print("CHECK FAILED:", err, file=sys.stderr)
    if not run.results:
        print("no request completed", file=sys.stderr)
        return 1

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(run, tracer)
    else:
        metrics = end_to_end_metrics(run, setup_s)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
