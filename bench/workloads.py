"""Seeded request streams and the requests themselves.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned. Requests come in rounds; a round is a
fixed grid of cells (size band x pollution profile x topology) and every
cell draws a fresh group from its own seed, so two runs with different
seeds see the same mix of work but never the same group.

The program receives only the scenario spec the benchmark built. It
materialises the spec itself with `generate_scenario`.
"""

import contextlib
import copy
import io
import itertools
import os

import numpy as np

POLLUTION = ("low_pollution", "high_pollution")

SMALL_BANDS = ((5, 9), (10, 14), (15, 19), (20, 24), (25, 30))
SMALL_TOPOLOGIES = (
    {"model": "complete"},
    {"model": "random_failure", "link_up_probability": 0.5},
    {"model": "leader_star"},
)

# Fixed sizes: with sizes drawn from 100-150 the O(n^3) ergodicity check made
# the mix, and so every figure, depend on the seed. One pollution profile, so
# the three sizes give three well-separated latencies and the median is the
# middle cell's median, not the gap between two cells. The high profile's ~44
# iterations put per-iteration consensus cost next to the ergodicity check.
LARGE_BANDS = ((100, 100), (125, 125), (150, 150))
LARGE_POLLUTION = ("high_pollution",)
LARGE_TOPOLOGY = {"model": "random_failure", "link_up_probability": 0.05}

AUDIT_BANDS = ((8, 13), (14, 20))
BRUTE_FORCE_GRID = 100_000

# (size bands, pollution profiles, topologies); a round is their product
GRIDS = {
    "small_groups": (SMALL_BANDS, POLLUTION, SMALL_TOPOLOGIES),
    "large_lossy_groups": (LARGE_BANDS, LARGE_POLLUTION, (LARGE_TOPOLOGY,)),
    "audit": (AUDIT_BANDS, POLLUTION, SMALL_TOPOLOGIES),
}

# the warm-up request uses a stream no measured request draws from
WARMUP_ROUND = -1


def round_specs(workload, seed, round_index, builtin_specs):
    """The scenario specs of one round, in a fixed order."""
    specs = []
    cells = itertools.product(*GRIDS[workload])
    for cell, ((lo, hi), profile, topology) in enumerate(cells):
        rng = np.random.default_rng([seed, round_index + 1, cell])
        spec = copy.deepcopy(builtin_specs[profile])
        spec["n_agents"] = int(rng.integers(lo, hi + 1))
        spec["seed"] = int(rng.integers(2**31))
        spec["topology"] = dict(topology)
        spec["label"] = f"{workload} r{round_index} c{cell} {profile}"
        specs.append(spec)
    return specs


def advise(gs, spec):
    """One advisory: the spec in, the experiment report out."""
    scenario = gs.scenario.generate_scenario(spec)
    return {"scenario": scenario, "report": gs.scenario.run_experiment(scenario)}


def audit(gs, spec, workdir):
    """The audit path: invariant suite, brute-force check, run with artifacts."""
    scenario = gs.scenario.generate_scenario(spec)
    os.makedirs(workdir)
    path = os.path.join(workdir, "scenario.json")
    scenario.save(path)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        verify_status = gs.cli.main(["verify", "--scenario", path])
    g_list = scenario.build_risks()
    certificate = gs.oracle.solve_common_speed(g_list)
    brute = gs.oracle.brute_force_verify(
        g_list, certificate.s_star, grid=BRUTE_FORCE_GRID
    )
    report = gs.scenario.run_experiment(scenario, out_dir=workdir)
    return {
        "scenario": scenario,
        "report": report,
        "verify_status": verify_status,
        "verify_output": captured.getvalue(),
        "certificate": certificate,
        "brute": brute,
        "grid": BRUTE_FORCE_GRID,
        "workdir": workdir,
    }
