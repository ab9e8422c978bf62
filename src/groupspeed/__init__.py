"""Group speed-advisory consensus simulator.

Drives a fleet of agents to a single common speed minimizing the sum of
strictly quasi-convex health-risk utilities, with an independent bisection
oracle checking global optimality.
"""

from .consensus import SolverConfig, auto_mu, coupling, lure_stability, run, step
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyDomainIntersection,
    GroupSpeedError,
    InteriorMinimumMissing,
    InvalidSpec,
    NonConvexFit,
    OutOfDomain,
)
from .netsim import TopologySequence, make_topology
from .oracle import brute_force_verify, solve_common_speed
from .riskmodel import (
    RiskBank,
    RiskCurve,
    SpeedRisk,
    check_quasi_convexity,
    fit_risk_curve,
)
from .scenario import (
    BUILTIN_SPECS,
    Scenario,
    generate_scenario,
    load_scenario,
    run_experiment,
)

__version__ = "0.1.0"
