"""Benchmark scenarios and machine-checkable experiment tables.

The built-in scenario models a city protecting two tourist hotspots (louvre,
eiffel) with one central resource (an awareness campaign) and two local ones
(cameras, billboards) under a budget of 30. The functions here compare the
closed-form optimum against the CLE/CELP heuristics, sweep location
attractiveness, scale attractiveness uniformly, and invert the budget needed
to hold a target probability.

The sweep and scaling tables vary only alpha, so they build no scenario per
row: the closed form's kernel takes alpha with a leading row axis, and each
allocation's utilities and overall probability are computed for all rows as
(rows, locations) arrays. Both rules' best gamma depends on the betas alone,
so one argmin serves every row of a sweep. The steps that are math.log and
math.exp on one scenario stay so, once per row; every cell is bit-identical
to solving a scenario with that row's alphas.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .allocator import (
    DEFAULT_GAMMA_GRID,
    _celp_entries,
    _optimal_entries,
    _tuned_gamma,
    celp_rule,
    cle_rule,
    solve_closed_form,
)
from .model import (
    Allocation,
    Evaluation,
    Scenario,
    _check_alphas,
    _overall_rows,
    _utilities,
    _vector,
    evaluate,
)

DEFAULT_RULE_GAMMAS: tuple[float, ...] = (0.25, 0.5, 0.75)

#: ln of the smallest normal and of the largest finite double.
_LN_DOUBLE_MIN, _LN_DOUBLE_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)

#: Attractiveness pairs (a1, a2) with a1 + a2 = 10, from strongly asymmetric
#: to symmetric and back.
DEFAULT_ALPHA_PAIRS: tuple[tuple[float, float], ...] = tuple(
    (1.0 + 0.5 * i, 9.0 - 0.5 * i) for i in range(17)
)


@dataclass(frozen=True)
class ExperimentTable:
    """Labelled numeric rows; the unit of output for experiments and the CLI."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        rows = tuple((str(label), tuple(values)) for label, values in self.rows)
        object.__setattr__(self, "rows", rows)
        for label, values in rows:
            if len(values) != len(self.columns):
                raise ValueError(
                    f"row {label!r} has {len(values)} values for {len(self.columns)} columns"
                )

    def row(self, label: str) -> dict[str, float]:
        for row_label, values in self.rows:
            if row_label == label:
                return dict(zip(self.columns, values))
        raise KeyError(f"no row labelled {label!r} in table {self.name!r}")

    def to_csv(self, stream: TextIO) -> None:
        """RFC 4180 CSV; numbers use shortest round-trip decimal form."""
        writer = csv.writer(stream)
        writer.writerow(["label", *self.columns])
        for label, values in self.rows:
            writer.writerow([label, *[str(v) for v in values]])

    def as_json_dict(self) -> dict:
        """The table as JSON-ready data; a nan or infinite cell becomes None (null)."""
        return {
            "name": self.name,
            "columns": list(self.columns),
            "rows": [
                {"label": label, "values": [v if math.isfinite(v) else None for v in values]}
                for label, values in self.rows
            ],
        }


def paris_scenario(scale: float = 1.0) -> Scenario:
    """The built-in two-location city scenario, attractiveness scaled by `scale`.

    At scale 1 the attractiveness values are 6*ln(3) and 6*ln(2).
    """
    return Scenario(
        locations=(
            ("louvre", 6.0 * scale * math.log(3.0)),
            ("eiffel", 6.0 * scale * math.log(2.0)),
        ),
        local_resources=(("cameras", 3.0), ("billboards", 2.0)),
        central_resources=(("campaign", 1.0),),
        budget=30.0,
    )


def _allocation_columns(scenario: Scenario) -> list[str]:
    # Central first, then local resource-major: the conventional reading order.
    cols = [f"x[{res}]" for res in scenario.central_ids]
    cols += [
        f"x[{loc}/{res}]" for res in scenario.local_ids for loc in scenario.location_ids
    ]
    return cols


def _allocation_values(scenario: Scenario, entries: list[float]) -> list[float]:
    """An allocation's entries, in the scenario's flat order, in column order."""
    n_local, k = scenario._n_local, len(scenario.local_resources)
    return entries[n_local:] + [v for j in range(k) for v in entries[j:n_local:k]]


def _probability_columns(scenario: Scenario) -> list[str]:
    return [f"P[{loc}]%" for loc in scenario.location_ids] + ["overall%"]


def _probability_values(scenario: Scenario, evaluation: Evaluation) -> list[float]:
    values = [100.0 * evaluation.per_location[loc] for loc in scenario.location_ids]
    values.append(100.0 * evaluation.overall)
    return values


def solution_table(
    name: str, scenario: Scenario, rows: list[tuple[str, Allocation | None]]
) -> ExperimentTable:
    """One row per labelled allocation.

    Each row holds the allocation's entries, then the per-location and the
    overall hit probabilities in percent. A row whose allocation is None, as
    for a rule that is undefined on the scenario, is nan in every cell.
    """
    columns = _allocation_columns(scenario) + _probability_columns(scenario)
    built = []
    for label, allocation in rows:
        if allocation is None:
            built.append((label, (math.nan,) * len(columns)))
            continue
        evaluation = evaluate(scenario, allocation)
        values = _allocation_values(scenario, _vector(scenario, allocation).tolist())
        values += _probability_values(scenario, evaluation)
        built.append((label, tuple(values)))
    return ExperimentTable(name=name, columns=tuple(columns), rows=tuple(built))


def rule_comparison_table(
    scenario: Scenario | None = None,
    gammas: tuple[float, ...] = DEFAULT_RULE_GAMMAS,
) -> ExperimentTable:
    """Optimal allocation versus CLE and CELP at fixed gamma values.

    One row for the optimum, then one per (rule, gamma), with the full
    allocation, per-location hit probabilities, and the overall probability,
    probabilities in percent.
    """
    scenario = scenario or paris_scenario()
    rows = [("OPTIMAL", solve_closed_form(scenario).allocation)]
    rows += [(f"CLE({g!r})", cle_rule(scenario, g)) for g in gammas]
    rows += [(f"CELP({g!r})", celp_rule(scenario, g)) for g in gammas]
    return solution_table("rule_comparison", scenario, rows)


def attractiveness_sweep(
    alpha_pairs: tuple[tuple[float, float], ...],
    base: Scenario | None = None,
    grid: tuple[float, ...] = DEFAULT_GAMMA_GRID,
) -> ExperimentTable:
    """Optimal versus best-gamma heuristics as a pair of alphas shifts.

    The base scenario must have exactly two locations. alpha_pairs must be
    nonempty; each (a1, a2) pair, taken as floats, replaces their
    attractiveness and must sum to the sweep's fixed total of 10 so only the
    asymmetry varies, and each alpha must be >= 0. Rows are labelled
    repr(a1). The heuristics are tuned over the gamma grid, which must be
    valid in any case. A rule's two cells are nan where it is undefined: both
    rules' without a central or a local resource, CELP's where an alpha is 0.

    Every row is the one a scenario with that row's alphas gives to
    ``solve_closed_form`` and ``best_gamma``, bit for bit, but the rows are
    computed together: the best gamma depends on the betas alone, so one
    argmin serves every row and both rules, and each allocation's utilities
    and probabilities run as (rows, locations) arrays.
    """
    base = base or paris_scenario()
    if len(base.locations) != 2:
        raise ValueError(
            f"attractiveness sweep needs exactly two locations, got {len(base.locations)}"
        )
    alpha_pairs = tuple((float(a1), float(a2)) for a1, a2 in alpha_pairs)
    if not alpha_pairs:
        raise ValueError("alpha_pairs is empty")
    for a1, a2 in alpha_pairs:
        if not abs(a1 + a2 - 10.0) <= 1e-9:  # also rejects nan and inf
            raise ValueError(f"alpha pair ({a1}, {a2}) must sum to 10")
    gamma = _tuned_gamma(base, grid)  # a bad grid raises here, even where no rule applies
    for pair in alpha_pairs:
        _check_alphas(zip(base.location_ids, pair))

    alpha = np.array(alpha_pairs)
    optimal = _overall_rows(_utilities(base, _optimal_entries(base, alpha)[0], alpha))
    cle = [math.nan] * len(alpha)
    celp = [math.nan] * len(alpha)
    if base.central_resources and base.local_resources:
        try:  # CLE's entries do not depend on alpha; they fail only by underflowing
            cle = _overall_rows(_utilities(base, _vector(base, cle_rule(base, gamma)), alpha))
        except ValueError:
            pass
        # CELP is defined on the rows whose alphas are all > 0 and whose
        # entries do not underflow; its alpha totals are fsums, as on a scenario.
        defined = [p for p, pair in enumerate(alpha_pairs) if min(pair) > 0.0]
        totals = np.array([[math.fsum(alpha_pairs[p])] for p in defined]).reshape(-1, 1)
        x = _celp_entries(base, gamma, alpha[defined], totals)
        kept = [i for i, least in enumerate(x.min(axis=1).tolist()) if least > 0.0]
        defined = [defined[i] for i in kept]
        for p, value in zip(defined, _overall_rows(_utilities(base, x[kept], alpha[defined]))):
            celp[p] = value

    def tuned(overall: float) -> tuple[float, float]:
        return (math.nan, math.nan) if math.isnan(overall) else (gamma, 100.0 * overall)

    rows = [
        (repr(a1), (a1, a2, 100.0 * o, *tuned(c), *tuned(e)))
        for (a1, a2), o, c, e in zip(alpha_pairs, optimal, cle, celp)
    ]
    return ExperimentTable(
        name="attractiveness_sweep",
        columns=(
            "alpha1",
            "alpha2",
            "optimal%",
            "cle_gamma",
            "cle%",
            "celp_gamma",
            "celp%",
        ),
        rows=tuple(rows),
    )


def attractiveness_scaling_table(
    scale_factors: tuple[float, ...], base: Scenario | None = None
) -> ExperimentTable:
    """Optimal allocations as every location's attractiveness scales by k.

    scale_factors must be nonempty, and each k, taken as a float, finite and
    >= 0, with every k * alpha finite; rows are labelled repr(k). Block totals
    (central, local, and each local resource summed over locations) are
    emitted alongside; they are invariant in k because the optimum splits the
    budget by sensitivities alone. Each row is the one ``solve_closed_form``
    gives a scenario with that row's alphas, bit for bit; the rows are solved
    together as (rows, locations) arrays.
    """
    base = base or paris_scenario()
    scale_factors = tuple(float(k) for k in scale_factors)
    if not scale_factors:
        raise ValueError("scale_factors is empty")
    for k in scale_factors:
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError(f"scale factors must be finite and >= 0, got {k}")
    with np.errstate(over="ignore"):
        alpha = np.array(scale_factors)[:, None] * base._alpha
    if not alpha.max() < math.inf:  # k * alpha overflows: name the first such row's location
        p, i = divmod(int(np.argmax(alpha)), len(base.locations))
        location, a = base.locations[i]
        raise ValueError(
            f"scale factor {scale_factors[p]} overflows the alpha of location {location!r} ({a})"
        )

    columns = (
        ["k"]
        + _allocation_columns(base)
        + ["overall%", "central_total", "local_total"]
        + [f"total[{res}]" for res in base.local_ids]
    )
    x = _optimal_entries(base, alpha)[0]
    overall = _overall_rows(_utilities(base, x, alpha))
    n_local, n_resources = base._n_local, len(base.local_resources)
    rows = []
    for k, entries, o in zip(scale_factors, x.tolist(), overall):
        local, central = entries[:n_local], entries[n_local:]
        per_resource = [sum(local[j::n_resources]) for j in range(n_resources)]
        values = (
            [k]
            + _allocation_values(base, entries)
            + [100.0 * o, sum(central), sum(local)]
            + per_resource
        )
        rows.append((repr(k), tuple(values)))
    return ExperimentTable(
        name="attractiveness_scaling", columns=tuple(columns), rows=tuple(rows)
    )


def budget_for_target(scenario: Scenario, target: float) -> float:
    """Budget at which the optimal allocation hits the target overall probability.

    The optimal surrogate scales as budget ** (-sum of betas), so the required
    budget follows in closed form from the current optimum:

        R' = R * exp((ln B_now - ln B_target) / sum_betas),  B_target = t / (1 - t).

    Working with ln B keeps this finite where B_now overflows. An R' outside
    the normal range of a double raises ArithmeticError naming ln R'; where
    only the factor exp(...) is, R' is exp(ln R'). The result is verified by
    re-solving at R'; a mismatch beyond 1e-9 in the achieved probability
    raises, rather than returning a bad budget.
    """
    target = float(target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target probability must lie strictly between 0 and 1, got {target}")
    beta_sum = scenario._beta_total
    ln_b_now = solve_closed_form(scenario).evaluation.ln_surrogate
    ln_b_target = math.log(target / (1.0 - target))
    ln_factor = (ln_b_now - ln_b_target) / beta_sum
    ln_budget = math.log(scenario.budget) + ln_factor
    if not _LN_DOUBLE_MIN < ln_budget < _LN_DOUBLE_MAX:
        raise ArithmeticError(
            f"the budget for target {target} is outside the range of a double "
            f"(ln budget {ln_budget:.6g})"
        )
    in_range = _LN_DOUBLE_MIN < ln_factor < _LN_DOUBLE_MAX
    budget = scenario.budget * math.exp(ln_factor) if in_range else math.exp(ln_budget)

    rescaled = dataclasses.replace(scenario, budget=budget)
    achieved = solve_closed_form(rescaled).evaluation.overall
    if abs(achieved - target) > 1e-9:
        raise ArithmeticError(
            f"budget {budget} reaches overall {achieved}, not the target {target}"
        )
    return budget
