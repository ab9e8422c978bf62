"""Independent ground-truth solver for the optimal common speed.

At the group optimum the aggregate derivative sum_i g_i'(s) vanishes, which
is equivalent to phi(s) := sum_i d_i f_i'(d_i/s) = 0. phi is strictly
decreasing in s (each f_i' is strictly increasing in travel time, and
travel time falls with speed), so bisection on phi is exact up to bracket
width. A brute-force grid scan over the summed objective serves as the
oracle's own cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput


@dataclass(frozen=True)
class OptimalityCertificate:
    s_star: float  # km/h
    residual: float  # sum_i g_i'(s_star)
    t_star_list: tuple  # per-agent travel times d_i/s_star, hours
    bracket: float  # final bisection interval width
    at_boundary: bool = False  # optimum clipped by the common speed domain


def solve_common_speed(bank, tol=1e-8):
    """Bisection root of phi on the common speed domain.

    When phi does not change sign the optimum sits on a domain boundary; the
    certificate then carries the better endpoint with `at_boundary` set.
    """
    if len(bank) == 0:
        raise DegenerateInput("empty agent list")
    lo, hi = bank.domain
    f_lo, f_hi = bank.phi(lo), bank.phi(hi)

    if f_lo * f_hi > 0:
        # strictly decreasing phi: all-positive means the root lies above hi
        s_star = hi if f_lo > 0 else lo
        return _certificate(bank, s_star, bracket=hi - lo, at_boundary=True)

    a, b = lo, hi
    while b - a > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = bank.phi(m)
        if fm == 0.0:
            a = b = m
            break
        # phi decreases: the root lies below a negative phi(m), above a positive
        a, b = (a, m) if fm < 0.0 else (m, b)
    return _certificate(bank, 0.5 * (a + b), bracket=b - a, at_boundary=False)


def _certificate(bank, s_star, bracket, at_boundary):
    return OptimalityCertificate(
        s_star=float(s_star),
        residual=float(np.sum(bank.derivative(s_star))),
        t_star_list=tuple((bank.distance / s_star).tolist()),
        bracket=float(bracket),
        at_boundary=at_boundary,
    )


@dataclass(frozen=True)
class BruteForceReport:
    passed: bool
    grid_argmin: float
    grid_step: float
    offset: float  # |grid_argmin - s_star|


def brute_force_verify(bank, s_star, grid=100_000):
    """Grid-scan the summed objective and compare its argmin with s_star.

    Passes when the grid argmin lies within one grid step of s_star, i.e.
    the derivative-sum root really does minimize the total risk.
    """
    if grid < 1000:
        raise DegenerateInput(f"grid must be >= 1000, got {grid}")
    lo, hi = bank.domain
    s = np.linspace(lo, hi, grid)
    argmin = float(s[int(np.argmin(bank.total_value(s)))])
    step = (hi - lo) / (grid - 1)
    offset = abs(argmin - s_star)
    return BruteForceReport(
        passed=offset <= step, grid_argmin=argmin, grid_step=step, offset=offset
    )
