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

The oracle has no settings: every solve starts from the uniform split and
stops on the constants below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .allocator import SolveReport, _stationarity_residual
from .model import (
    Allocation,
    AllocationError,
    FEASIBILITY_SLACK,
    Scenario,
    _evaluation,
    _exp_or_inf,
    _location_sums,
    _log_state,
    _log_sum_exp,
    _transposed,
    _vector,
)

_FIRST_ORDER_STEPS = 100_000  # cap on the mirror-descent phase
_NEWTON_STEPS = 50  # cap on the Newton phase
_HALVINGS = 40  # trial steps per line search: 1, 1/2, ..., 2**-39
_ARMIJO = 1e-4  # fraction of the predicted decrease of ln B a step must achieve
#: Mirror descent goes on while its full step is accepted and lowers ln B by
#: at least this much, i.e. B by a factor e; nearer the optimum Newton is cheaper.
_FIRST_ORDER_GAIN = 1.0
#: Round-off floor of ln B relative to the size of the utilities' terms; a
#: step within it is judged by the gradient spread instead.
_OBJECTIVE_TOLERANCE = 1e-14
#: The solve stops once the gradient spread (max - min) relative to |mean
#: gradient| is at most this.
_STATIONARITY_TOLERANCE = 1e-9


class ConvergenceError(RuntimeError):
    """The oracle ran out of steps or progress before reaching stationarity.

    Carries the last iterate so callers can inspect how far the solve got, and
    the same ``diagnostics`` dict a successful solve puts in its report: the
    steps of each phase, the line-search trials and the final relative spread.
    """

    def __init__(self, message: str, allocation: Allocation, diagnostics: dict):
        super().__init__(message)
        self.allocation = allocation
        self.diagnostics = diagnostics


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


def _point(scenario, s: float, log_r: float, z: np.ndarray) -> _Point | None:
    """The iterate with shares softmax(z); None if a share underflows to zero."""
    log_q = z - _log_sum_exp(z)
    q = np.exp(log_q)
    if not q.min() > 0.0:
        return None
    log_terms = scenario._beta * (log_r + log_q)
    v = scenario._alpha - _location_sums(scenario, log_terms)
    ln_b = _log_sum_exp(v)
    p = np.exp(v - ln_b)
    a = _transposed(scenario, p)
    magnitude = float((scenario._alpha + _location_sums(scenario, np.abs(log_terms))).max())
    # B's gradient in x is -B * a / x, so its relative spread is that of a / q.
    ratio = a / q
    return _Point(
        log_q=log_q,
        q=q,
        p=p,
        ln_b=ln_b,
        gradient=s * q - a,
        spread=float((ratio.max() - ratio.min()) / abs(float(ratio.mean()))),
        floor=_OBJECTIVE_TOLERANCE * (1.0 + magnitude),
    )


def _newton_direction(scenario: Scenario, s: float, point: _Point) -> np.ndarray:
    """Solve (hess phi + S q q^T) d = -grad phi in O(n).

    The matrix is D - v v^T: D is S diag q plus p_i b b^T on location i's
    local block, and v holds p_i b on the local entries and 0 on the central
    ones. D is inverted block by block with Sherman-Morrison, then the
    rank-one term once more.
    """
    n_loc, k = scenario._local_shape
    n_local = n_loc * k
    b = scenario._beta[:k]
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


def solve_numerical(scenario: Scenario) -> SolveReport:
    """Minimise the surrogate numerically; raises ConvergenceError on failure.

    Starts from the uniform split of the budget. The reported multiplier is
    the mean gradient component at the final iterate and the stationarity
    residual is the largest absolute deviation from it. The report's
    ``diagnostics`` hold the steps of each phase, the line-search trials, the
    final relative spread and the seconds per phase.
    """
    r = scenario.budget
    log_r = math.log(r)
    s = float(_location_sums(scenario, scenario._beta)[0])  # the same for every location

    def at(z: np.ndarray) -> _Point | None:
        return _point(scenario, s, log_r, z)

    start = time.perf_counter()
    point = at(np.log(np.full(scenario.n_entries, r / scenario.n_entries)))
    first_order = newton = trials = 0

    while first_order < _FIRST_ORDER_STEPS and point.spread > _STATIONARITY_TOLERANCE:
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

    while newton < _NEWTON_STEPS and point.spread > _STATIONARITY_TOLERANCE:
        new, used = _line_search(at, point, _newton_direction(scenario, s, point))
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
    allocation = Allocation._from_vector(scenario, x)
    if point.spread > _STATIONARITY_TOLERANCE:
        raise ConvergenceError(
            f"no stationary point within {first_order + newton} iterations "
            f"(gradient spread {point.spread:.3e} > {_STATIONARITY_TOLERANCE:.3e})",
            allocation=allocation,
            diagnostics=diagnostics,
        )
    v, ln_b, gradient = _log_state(scenario, allocation)
    level = float(gradient.mean())
    return SolveReport(
        allocation=allocation,
        evaluation=_evaluation(scenario, v, ln_b),
        multiplier=-_exp_or_inf(ln_b) * level,
        stationarity_residual=_stationarity_residual(ln_b, gradient, level),
        diagnostics=diagnostics,
    )


def kkt_residual(scenario: Scenario, allocation: Allocation) -> float:
    """Stationarity defect of a full-budget allocation.

    Returns max_k |g_k - mean(g)| / |mean(g)| over the surrogate gradient g.
    Zero (up to round-off) characterises the optimum; any other full-budget
    point has a strictly positive residual. The gradient is the allocation's
    certificate (a solver's output already holds it); the total is checked
    on every call.
    """
    x = _vector(scenario, allocation)
    total = float(x.sum())
    if abs(total - scenario.budget) > FEASIBILITY_SLACK * scenario.budget:
        raise AllocationError(
            f"kkt_residual needs a full-budget allocation; total {total} != {scenario.budget}"
        )
    # g = -B * gradient with B > 0, so B cancels and nothing overflows.
    gradient = _log_state(scenario, allocation)[2]
    mean = float(gradient.mean())
    # max_k |g_k - mean| from g's extremes: rounding keeps their order, so this is exact.
    return max(float(gradient.max()) - mean, mean - float(gradient.min())) / mean
