"""Budget allocation rules: the closed-form optimum and two field heuristics.

The optimum splits the budget across resources proportionally to their
sensitivities beta, then splits each local resource's share across locations
by a softmax of alpha / (1 + sum of local betas). The CLE and CELP rules mimic
how practitioners allocate: a fraction gamma goes to central resources (split
equally), the rest to local resources, split either equally over locations
(CLE) or proportionally to attractiveness (CELP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Allocation,
    Evaluation,
    Scenario,
    _evaluation,
    _exp_or_inf,
    _log_gradient,
    evaluate,
)

#: Grid searched by default when tuning gamma for the heuristic rules.
DEFAULT_GAMMA_GRID: tuple[float, ...] = tuple(g / 100 for g in range(1, 100))


@dataclass(frozen=True)
class SolveReport:
    """An allocation together with its optimality certificate.

    Attributes:
        allocation: the solution, summing to the full budget.
        evaluation: probabilities and surrogate at the solution.
        multiplier: the (negative) Lagrange multiplier on the budget plane.
        stationarity_residual: max |dB/dx_k - multiplier| over entries; at a
            true optimum every partial derivative equals the multiplier. It
            is absolute, so it scales with |multiplier|, and it is inf (or 0)
            where B overflows; ``kkt_residual`` is the scale-free check.
        diagnostics: how an iterative solve went (see ``solve_numerical``);
            None for the closed form.
    """

    allocation: Allocation
    evaluation: Evaluation
    multiplier: float
    stationarity_residual: float
    diagnostics: dict | None = None


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly between 0 and 1, got {gamma}")
    return gamma


def solve_closed_form(scenario: Scenario) -> SolveReport:
    """Globally optimal allocation, in closed form.

    Central resource j receives beta_j / (sum of all betas) * budget. Local
    resource j's identical share is further split over locations i with
    weights softmax(alpha_i / (1 + sum of local betas)). The multiplier and
    the stationarity residual certify optimality of the result; the residual
    is pure floating-point noise (at most ~1e-8 relative to the multiplier).
    Past the double range the multiplier saturates to -inf, as the surrogate
    saturates to inf, and the residual is then inf unless it is exactly 0.
    """
    all_betas = [b for _, b in scenario.local_resources + scenario.central_resources]
    beta_sum = math.fsum(all_betas)
    local_beta_sum = math.fsum(b for _, b in scenario.local_resources)
    r = scenario.budget

    scaled = scenario._alpha / (1.0 + local_beta_sum)
    shares = np.exp(scaled - scaled.max())
    shares /= shares.sum()
    log_weight_sum = float(np.logaddexp.reduce(scaled))
    if not shares.all():
        i = int(np.argmin(shares))
        raise FloatingPointError(
            f"optimal share of location {scenario.location_ids[i]!r} underflows to 0.0 "
            f"(ln share {float(scaled[i]) - log_weight_sum:.6g})"
        )

    x = scenario._beta * r / beta_sum
    x[: scenario._n_local] *= np.repeat(shares, scenario._local_shape[1])
    allocation = Allocation._from_vector(scenario, x)

    # Multiplier from the stationarity condition, assembled in the log domain
    # because R ** (1 + sum beta) overflows quickly.
    ln_lam = (
        (1.0 + local_beta_sum) * log_weight_sum
        + (1.0 + beta_sum) * (math.log(beta_sum) - math.log(r))
        - math.fsum(b * math.log(b) for b in all_betas)
    )
    v, ln_b, gradient = _log_gradient(scenario, x)
    return SolveReport(
        allocation=allocation,
        evaluation=_evaluation(scenario, v, ln_b),
        multiplier=-_exp_or_inf(ln_lam),
        stationarity_residual=_stationarity_residual(ln_b, gradient, _exp_or_inf(ln_lam - ln_b)),
    )


def _stationarity_residual(ln_b: float, gradient: np.ndarray, level: float) -> float:
    """max_k |dB/dx_k - multiplier| for the multiplier -B * level, where B's
    gradient is -B * gradient: B * max_k |gradient_k - level|. It is 0 when
    that maximum is, so a saturated B gives inf or 0, never nan."""
    deviation = float(np.max(np.abs(gradient - level)))
    return _exp_or_inf(ln_b) * deviation if deviation else 0.0


def cle_rule(scenario: Scenario, gamma: float) -> Allocation:
    """Central and Location-Equal rule.

    gamma * budget is split equally over central resources; the remainder is
    split equally over every (location, local resource) pair. Defined only
    when both resource groups are nonempty.
    """
    gamma = _check_gamma(gamma)
    _require_both_groups(scenario, "CLE")
    r = scenario.budget
    n_pairs = len(scenario.locations) * len(scenario.local_resources)
    central_amount = gamma * r / len(scenario.central_resources)
    local_amount = (1.0 - gamma) * r / n_pairs
    return _rule_allocation(scenario, local_amount, central_amount)


def celp_rule(scenario: Scenario, gamma: float) -> Allocation:
    """Central-Equal and Location-Proportional rule.

    Central split as in CLE; each local resource's share of (1 - gamma) *
    budget is divided over locations proportionally to their attractiveness.
    Requires every location's alpha to be positive, otherwise some entry
    would receive nothing.
    """
    gamma = _check_gamma(gamma)
    _require_both_groups(scenario, "CELP")
    alpha = scenario._alpha
    alpha_total = math.fsum(alpha.tolist())
    if alpha_total <= 0.0:
        raise ValueError("CELP is undefined when every location has zero attractiveness")
    zero = np.flatnonzero(alpha <= 0.0)
    if zero.size:
        i = int(zero[0])
        raise ValueError(
            f"CELP would allocate nothing to location {scenario.location_ids[i]!r} "
            f"(alpha = {float(alpha[i])})"
        )
    r = scenario.budget
    per_resource = (1.0 - gamma) * r / len(scenario.local_resources)
    central_amount = gamma * r / len(scenario.central_resources)
    return _rule_allocation(scenario, per_resource * (alpha / alpha_total), central_amount)


def _rule_allocation(scenario: Scenario, local: float | np.ndarray, central: float) -> Allocation:
    """Central on every central entry, and local[i] on each of location i's
    local entries (or local on all of them, when it is one number)."""
    n_loc, k = scenario._local_shape
    x = np.full(scenario.n_entries, central)
    x[: scenario._n_local] = np.repeat(np.broadcast_to(local, n_loc), k)
    return Allocation._from_vector(scenario, x)


def _require_both_groups(scenario: Scenario, rule: str) -> None:
    if not scenario.central_resources or not scenario.local_resources:
        raise ValueError(
            f"{rule} needs at least one central and one local resource; "
            f"got {len(scenario.central_resources)} central, {len(scenario.local_resources)} local"
        )


#: The heuristic rules by name.
RULES = {"cle": cle_rule, "celp": celp_rule}


def best_gamma(
    scenario: Scenario,
    rule: str,
    grid: tuple[float, ...] = DEFAULT_GAMMA_GRID,
) -> tuple[float, Evaluation]:
    """The grid gamma minimising the surrogate B for a heuristic rule.

    Both rules give every central entry gamma times a constant and every local
    entry (1 - gamma) times a constant, so for either rule ln B(gamma) = const
    - (sum of central betas) * ln gamma - (sum of local betas) * ln(1 - gamma),
    whatever alpha and the budget. The argmin of that score over the grid is
    exact and stays defined where B overflows; ties go to the smaller gamma,
    so grid order does not matter. The rule is applied and evaluated once, at
    the chosen gamma.
    """
    rule = rule.lower()
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}, expected one of {tuple(RULES)}")
    gammas = np.sort([_check_gamma(g) for g in grid])  # argmin keeps the first minimum
    if not gammas.size:
        raise ValueError("gamma grid must be nonempty")
    central = math.fsum(b for _, b in scenario.central_resources)
    local = math.fsum(b for _, b in scenario.local_resources)
    score = -central * np.log(gammas) - local * np.log(1.0 - gammas)
    gamma = float(gammas[np.argmin(score)])
    return gamma, evaluate(scenario, RULES[rule](scenario, gamma))
