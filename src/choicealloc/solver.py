"""Numerical oracle for the surrogate minimisation, independent of the closed form.

Minimising the posynomial B(x) = sum_i exp(alpha_i) / prod_k x_k ** beta_k on
the budget plane sum(x) = R (spending everything is optimal) is a geometric
program, convex in log coordinates (Boyd, Kim, Vandenberghe & Hassibi, "A
tutorial on geometric programming", Optim. Eng. 2007). Write x = R * softmax(u),
q = x / R, p = softmax(V) over the locations, A for the locations-by-entries
betas and S for the betas in one location's utility. Then phi(u) = ln B has
gradient S q - A^T p and Hessian S (diag q - q q^T) + A^T (diag p - p p^T) A.
Adding S q q^T fixes the gauge u + c * 1 and leaves S diag q, plus p_i b b^T
on location i's local block (b the local betas), minus one rank-one term, so
a damped Newton step (Boyd & Vandenberghe, *Convex Optimization*, sec. 10.2)
costs O(n) and builds no n x n array. Mirror-descent steps u <- u - grad phi
come first while each lowers B by a factor e or more. Both phases backtrack
on ln B with an Armijo test and, at its round-off floor, accept a step that
shrinks the gradient spread instead.

Only softmax weights enter, so the steps do not depend on shifting alpha or
scaling the budget, and nothing comes from the closed form. At the optimum
every partial derivative of B equals the multiplier; their relative spread is
the stopping rule and the reported certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .allocator import SolveReport
from .model import (
    Allocation,
    AllocationError,
    FEASIBILITY_SLACK,
    Scenario,
    _containing_sums,
    _gradient_vector,
    _location_sums,
    _log_sum_exp,
    _vector,
    evaluate,
    flatten,
)

_NEWTON_STEPS = 50  # cap on the Newton phase
_HALVINGS = 40  # trial steps per line search: 1, 1/2, ..., 2**-39
_ARMIJO = 1e-4  # fraction of the predicted decrease of ln B a step must achieve
#: Mirror descent goes on while its full step is accepted and lowers ln B by
#: at least this much, i.e. B by a factor e; nearer the optimum Newton is cheaper.
_FIRST_ORDER_GAIN = 1.0


class ConvergenceError(RuntimeError):
    """The oracle ran out of iterations or progress before reaching stationarity.

    Carries the last iterate so callers can inspect how far the solve got, and
    the same ``diagnostics`` dict a successful solve puts in its report.
    """

    def __init__(
        self,
        message: str,
        allocation: Allocation,
        residual: float,
        iterations: int,
        diagnostics: dict | None = None,
    ):
        super().__init__(message)
        self.allocation = allocation
        self.residual = residual
        self.iterations = iterations
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class OracleConfig:
    """Stopping and initialisation knobs for the numerical solve.

    Attributes:
        max_iterations: cap on the mirror-descent steps; the Newton steps
            that follow have their own cap of 50.
        objective_tolerance: round-off floor of ln B relative to the size of
            the utilities' terms; a step within it is judged by the spread.
        stationarity_tolerance: convergence threshold on the gradient spread
            (max - min) relative to |mean gradient|.
        initial_point: starting allocation; None means a uniform split of the
            budget. A custom point is rescaled onto the budget plane.
    """

    max_iterations: int = 100_000
    objective_tolerance: float = 1e-14
    stationarity_tolerance: float = 1e-9
    initial_point: Allocation | None = None

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.objective_tolerance <= 0 or self.stationarity_tolerance <= 0:
            raise ValueError("tolerances must be positive")


def _gradient_spread(g: np.ndarray) -> float:
    """Relative spread (max - min) / |mean| of the gradient components."""
    mean = float(np.mean(g))
    return float((np.max(g) - np.min(g)) / abs(mean))


@dataclass(frozen=True)
class _Point:
    """One iterate and everything the oracle needs there."""

    log_q: np.ndarray  # ln(x / R)
    q: np.ndarray  # shares x / R
    p: np.ndarray  # location choice weights softmax(V)
    ln_b: float
    gradient: np.ndarray  # of ln B in u
    spread: float  # relative spread of B's gradient in x
    floor: float  # round-off floor of ln B


def _point(design, s: float, log_r: float, z: np.ndarray, tolerance: float) -> _Point | None:
    """The iterate with shares softmax(z); None if a share underflows to zero."""
    log_q = z - _log_sum_exp(z)
    q = np.exp(log_q)
    if not q.min() > 0.0:
        return None
    log_terms = design.beta * (log_r + log_q)
    v = design.alpha - _location_sums(design, log_terms)
    ln_b = _log_sum_exp(v)
    p = np.exp(v - ln_b)
    # A^T p: a local entry sits in its own location's utility, a central one in all.
    a = design.beta * _containing_sums(design, p)
    magnitude = float(np.max(design.alpha + _location_sums(design, np.abs(log_terms))))
    return _Point(
        log_q=log_q,
        q=q,
        p=p,
        ln_b=ln_b,
        gradient=s * q - a,
        # B's gradient in x is -B * a / x, so its relative spread is that of a / q.
        spread=_gradient_spread(a / q),
        floor=tolerance * (1.0 + magnitude),
    )


def _newton_direction(design, s: float, point: _Point) -> np.ndarray:
    """Solve (hess phi + S q q^T) d = -grad phi in O(n).

    The matrix is D - v v^T: D is S diag q plus p_i b b^T on location i's
    local block, and v holds p_i b on the local entries and 0 on the central
    ones. D is inverted block by block with Sherman-Morrison, then the
    rank-one term once more.
    """
    n_loc, k = design.local_shape
    n_local = n_loc * k
    b = design.beta[:k]
    delta = s * point.q
    v = np.zeros_like(delta)
    v[:n_local] = (point.p[:, None] * b).ravel()
    solved = np.stack([-point.gradient, v], axis=1) / delta[:, None]
    if k:
        local = solved[:n_local].reshape(n_loc, k, 2)
        w = b / delta[:n_local].reshape(n_loc, k)
        factor = point.p / (1.0 + point.p * (w @ b))
        local -= w[:, :, None] * (factor[:, None] * (b @ local))[:, None, :]
    y, z = solved[:, 0], solved[:, 1]
    return y + z * ((v @ y) / (1.0 - v @ z))


def _line_search(
    at: Callable[[np.ndarray], _Point | None], point: _Point, direction: np.ndarray
) -> tuple[_Point | None, int]:
    """Backtrack from the full step; returns the accepted point and the trials made."""
    slope = float(point.gradient @ direction)
    if not slope < 0.0:
        return None, 0
    step = 1.0
    for trial in range(1, _HALVINGS + 1):
        new = at(point.log_q + step * direction)
        if new is not None and (
            new.ln_b <= point.ln_b + _ARMIJO * step * slope
            or (new.ln_b <= point.ln_b + point.floor and new.spread < point.spread)
        ):
            return new, trial
        step *= 0.5
    return None, _HALVINGS


def solve_numerical(scenario: Scenario, config: OracleConfig | None = None) -> SolveReport:
    """Minimise the surrogate numerically; raises ConvergenceError on failure.

    The reported multiplier is the mean gradient component at the final
    iterate and the stationarity residual is the largest absolute deviation
    from it. The report's ``diagnostics`` hold the steps of each phase, the
    line-search trials, the final relative spread and the seconds per phase.
    """
    config = config or OracleConfig()
    tolerance = config.stationarity_tolerance
    design = scenario._design
    r = scenario.budget
    log_r = math.log(r)
    s = float(_location_sums(design, design.beta)[0])  # the same for every location

    def at(z: np.ndarray) -> _Point | None:
        return _point(design, s, log_r, z, config.objective_tolerance)

    if config.initial_point is None:
        x = np.full(design.n_entries, r / design.n_entries)
    else:
        x = flatten(scenario, config.initial_point)
    start = time.perf_counter()
    point = at(np.log(x))
    first_order = newton = trials = 0

    while first_order < config.max_iterations and point.spread > tolerance:
        new, used = _line_search(at, point, -point.gradient)
        trials += used
        if new is None:
            break
        decrease = point.ln_b - new.ln_b
        point = new
        first_order += 1
        if used > 1 or decrease < _FIRST_ORDER_GAIN:
            break
    handover = time.perf_counter()

    while newton < _NEWTON_STEPS and point.spread > tolerance:
        new, used = _line_search(at, point, _newton_direction(design, s, point))
        trials += used
        if new is None:
            break
        point = new
        newton += 1

    diagnostics = {
        "first_order_steps": first_order,
        "newton_steps": newton,
        "line_search_trials": trials,
        "relative_spread": point.spread,
        "seconds": {
            "first_order": handover - start,
            "newton": time.perf_counter() - handover,
        },
    }
    x = r * point.q
    allocation = Allocation._from_vector(design, x)
    iterations = first_order + newton
    if point.spread > tolerance:
        raise ConvergenceError(
            f"no stationary point within {iterations} iterations "
            f"(gradient spread {point.spread:.3e} > {tolerance:.3e})",
            allocation=allocation,
            residual=point.spread,
            iterations=iterations,
            diagnostics=diagnostics,
        )
    g = _gradient_vector(design, x)
    multiplier = float(np.mean(g))
    return SolveReport(
        allocation=allocation,
        evaluation=evaluate(scenario, allocation),
        multiplier=multiplier,
        stationarity_residual=float(np.max(np.abs(g - multiplier))),
        diagnostics=diagnostics,
    )


def kkt_residual(scenario: Scenario, allocation: Allocation) -> float:
    """Stationarity defect of a full-budget allocation.

    Returns max_k |g_k - mean(g)| / |mean(g)| over the surrogate gradient g.
    Zero (up to round-off) characterises the optimum; any other full-budget
    point has a strictly positive residual.
    """
    design, x = _vector(scenario, allocation)
    total = float(x.sum())
    if abs(total - scenario.budget) > FEASIBILITY_SLACK * scenario.budget:
        raise AllocationError(
            f"kkt_residual needs a full-budget allocation; total {total} != {scenario.budget}"
        )
    g = _gradient_vector(design, x)
    mean = float(np.mean(g))
    return float(np.max(np.abs(g - mean)) / abs(mean))
