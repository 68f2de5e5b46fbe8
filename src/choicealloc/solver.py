"""Numerical oracle for the surrogate minimisation, independent of the closed form.

Minimises the convex surrogate B over the scaled simplex {x > 0, sum(x) = R}
with entropic mirror descent: multiplicative updates x <- x * exp(-eta * g)
followed by rescaling onto the budget plane. The update keeps iterates
strictly positive and on the plane by construction. Step sizes adapt by
backtracking: halve on an objective increase, double after an accepted step,
starting from 1.0 in the dual (log) coordinates.

Using the full budget is known to be optimal, so restricting the search to the
plane sum(x) = R loses nothing. At the constrained optimum every partial
derivative of B takes a common value (the multiplier), which gives both the
stopping rule and the reported certificate.

On ill-conditioned instances first-order steps bottom out while the gradient
spread is still well above tolerance: B goes flat to double precision across a
basin the spread can still resolve. A damped Newton corrector on the
stationarity equations (equal gradient components on the budget plane)
finishes the job; it uses only the analytic Hessian of B, nothing from the
closed-form solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import SolveReport
from .model import (
    Allocation,
    AllocationError,
    FEASIBILITY_SLACK,
    Scenario,
    _containing_sums,
    _design,
    _gradient_vector,
    _surrogate_value,
    _utilities,
    evaluate,
    flatten,
    unflatten,
)

_MIN_STEP = 1e-30
_MAX_STEP = 1e12
_STALL_LIMIT = 256  # consecutive accepted steps with negligible progress
#: Objective increases up to this relative amount are indistinguishable from
#: evaluation round-off (B = exp(ln B) inherits the absolute round-off of the
#: log-domain utilities, a few ulps of their log terms); such steps may still
#: be accepted if they strictly shrink the
#: gradient spread, which stays measurable long after B pins.
_NOISE_ALLOWANCE = 1e-14


class ConvergenceError(RuntimeError):
    """The oracle ran out of iterations or progress before reaching stationarity.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message: str, allocation: Allocation, residual: float, iterations: int):
        super().__init__(message)
        self.allocation = allocation
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class OracleConfig:
    """Stopping and initialisation knobs for the numerical solve.

    Attributes:
        max_iterations: hard cap on accepted descent steps.
        objective_tolerance: relative decrease of B below which a step counts
            as stalled; a long stall ends the solve.
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


def _hessian(design, x: np.ndarray) -> np.ndarray:
    """Analytic Hessian of B, dense, from the location structure.

    H_kl = beta_k beta_l / (x_k x_l) * (sum of terms containing both k and l)
    plus beta_k / x_k**2 * (sum of terms containing k) on the diagonal. Two
    local entries share only their own location's term, and only if they
    belong to the same location; a local and a central entry share the local
    one's term; two central entries share every term, B.
    """
    terms = np.exp(_utilities(design, x))
    containing = _containing_sums(design, terms)
    n_loc, k = design.local_shape
    n_local = n_loc * k
    shared = np.zeros((x.size, x.size))
    by_location = np.arange(n_local).reshape(n_loc, k)
    shared[by_location[:, :, None], by_location[:, None, :]] = terms[:, None, None]
    shared[:n_local, n_local:] = containing[:n_local, None]
    shared[n_local:, :n_local] = containing[None, :n_local]
    shared[n_local:, n_local:] = terms.sum()
    scaled = design.beta / x
    return np.outer(scaled, scaled) * shared + np.diag(scaled * containing / x)


def _newton_polish(
    design, x: np.ndarray, budget: float, tolerance: float, max_steps: int = 50
) -> np.ndarray:
    """Drive the gradient spread to tolerance with damped Newton steps.

    Solves grad B(x) = lambda * 1 subject to sum(x) = budget via the bordered
    system [[H, -1], [1^T, 0]]; H is the analytic Hessian of B. Steps are
    damped to keep x strictly positive and accepted only if they shrink the
    spread. Returns the improved point (always positive, always on the plane).
    """
    n = x.size
    for _ in range(max_steps):
        g = _gradient_vector(design, x)
        spread = _gradient_spread(g)
        if spread <= tolerance:
            break
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = _hessian(design, x)
        bordered[:n, n] = -1.0
        bordered[n, :n] = 1.0
        rhs = np.concatenate([-(g - np.mean(g)), [0.0]])
        try:
            delta = np.linalg.solve(bordered, rhs)[:n]
        except np.linalg.LinAlgError:
            break
        # Fraction-to-boundary damping keeps the iterate strictly positive.
        tau = 1.0
        shrinking = delta < 0.0
        if np.any(shrinking):
            tau = min(tau, float(0.9 * np.min(x[shrinking] / -delta[shrinking])))
        improved = False
        while tau > 1e-12:
            x_new = x + tau * delta
            if np.all(x_new > 0.0):
                x_new *= budget / x_new.sum()
                if _gradient_spread(_gradient_vector(design, x_new)) < spread:
                    x = x_new
                    improved = True
                    break
            tau *= 0.5
        if not improved:
            break
    return x


def solve_numerical(scenario: Scenario, config: OracleConfig | None = None) -> SolveReport:
    """Minimise the surrogate numerically; raises ConvergenceError on failure.

    The reported multiplier is the mean gradient component at the final
    iterate and the stationarity residual is the largest absolute deviation
    from it.
    """
    config = config or OracleConfig()
    design = _design(scenario)
    r = scenario.budget

    if config.initial_point is None:
        x = np.full(design.n_entries, r / design.n_entries)
    else:
        x = flatten(scenario, config.initial_point)
        x = x * (r / x.sum())

    b_value = _surrogate_value(design, x)
    eta = 1.0
    stall = 0
    iterations = 0
    ln_r = math.log(r)

    for iterations in range(1, config.max_iterations + 1):
        g = _gradient_vector(design, x)
        spread = _gradient_spread(g)
        if spread <= config.stationarity_tolerance:
            break
        log_x = np.log(x)

        def try_step(step: float) -> tuple[np.ndarray, float, float] | None:
            """One multiplicative update; None if it neither lowers B nor the spread."""
            z = log_x - step * g
            z -= z.max()
            x_new = np.exp(z - math.log(float(np.exp(z).sum())) + ln_r)
            b_new = _surrogate_value(design, x_new)
            if b_new < b_value * (1.0 - _NOISE_ALLOWANCE):
                return x_new, b_new, spread
            # At the floor B differences drown in round-off; fall back to
            # requiring a strictly smaller gradient spread.
            if b_new <= b_value * (1.0 + _NOISE_ALLOWANCE) and np.all(x_new > 0.0):
                spread_new = _gradient_spread(_gradient_vector(design, x_new))
                if spread_new < spread:
                    return x_new, b_new, spread_new
            return None

        # Line search over the step size: halve from the carried step, and if
        # nothing is acceptable below it, probe upward instead (the terminal
        # phase may need a far larger step than the descent phase did).
        result = None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            trial = eta
            while trial >= _MIN_STEP:
                result = try_step(trial)
                if result is not None:
                    break
                trial *= 0.5
            if result is None:
                trial = eta * 2.0
                while trial <= _MAX_STEP:
                    result = try_step(trial)
                    if result is not None:
                        break
                    trial *= 2.0
        if result is None:
            break
        x_new, b_new, spread_new = result
        relative_decrease = (b_value - b_new) / b_value
        x, b_value = x_new, b_new
        eta = min(trial * 2.0, _MAX_STEP)
        if relative_decrease < config.objective_tolerance and spread_new > 0.995 * spread:
            stall += 1
            if stall >= _STALL_LIMIT:
                break
        else:
            stall = 0
    if _gradient_spread(_gradient_vector(design, x)) > config.stationarity_tolerance:
        x = _newton_polish(design, x, r, config.stationarity_tolerance)
    g = _gradient_vector(design, x)
    spread = _gradient_spread(g)
    allocation = unflatten(scenario, x)
    if spread > config.stationarity_tolerance:
        raise ConvergenceError(
            f"no stationary point within {iterations} iterations "
            f"(gradient spread {spread:.3e} > {config.stationarity_tolerance:.3e})",
            allocation=allocation,
            residual=spread,
            iterations=iterations,
        )
    multiplier = float(np.mean(g))
    return SolveReport(
        allocation=allocation,
        evaluation=evaluate(scenario, allocation),
        multiplier=multiplier,
        stationarity_residual=float(np.max(np.abs(g - multiplier))),
    )


def kkt_residual(scenario: Scenario, allocation: Allocation) -> float:
    """Stationarity defect of a full-budget allocation.

    Returns max_k |g_k - mean(g)| / |mean(g)| over the surrogate gradient g.
    Zero (up to round-off) characterises the optimum; any other full-budget
    point has a strictly positive residual.
    """
    x = flatten(scenario, allocation)
    total = float(x.sum())
    if abs(total - scenario.budget) > FEASIBILITY_SLACK * scenario.budget:
        raise AllocationError(
            f"kkt_residual needs a full-budget allocation; total {total} != {scenario.budget}"
        )
    g = _gradient_vector(_design(scenario), x)
    mean = float(np.mean(g))
    return float(np.max(np.abs(g - mean)) / abs(mean))
