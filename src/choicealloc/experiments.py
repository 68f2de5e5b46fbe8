"""Benchmark scenarios and machine-checkable experiment tables.

The built-in scenario models a city protecting two tourist hotspots (louvre,
eiffel) with one central resource (an awareness campaign) and two local ones
(cameras, billboards) under a budget of 30. The functions here compare the
closed-form optimum against the CLE/CELP heuristics, sweep location
attractiveness, scale attractiveness uniformly, and invert the budget needed
to hold a target probability.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import TextIO

from .allocator import (
    DEFAULT_GAMMA_GRID,
    best_gamma,
    celp_rule,
    cle_rule,
    solve_closed_form,
)
from .model import Allocation, Evaluation, Scenario, evaluate

DEFAULT_RULE_GAMMAS: tuple[float, ...] = (0.25, 0.5, 0.75)

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


def _allocation_values(scenario: Scenario, allocation: Allocation) -> list[float]:
    values = [allocation.central[res] for res in scenario.central_ids]
    values += [
        allocation.local[(loc, res)]
        for res in scenario.local_ids
        for loc in scenario.location_ids
    ]
    return values


def _probability_columns(scenario: Scenario) -> list[str]:
    return [f"P[{loc}]%" for loc in scenario.location_ids] + ["overall%"]


def _probability_values(scenario: Scenario, evaluation: Evaluation) -> list[float]:
    values = [100.0 * evaluation.per_location[loc] for loc in scenario.location_ids]
    values.append(100.0 * evaluation.overall)
    return values


def solution_table(
    name: str, scenario: Scenario, rows: list[tuple[str, Allocation]]
) -> ExperimentTable:
    """One row per labelled allocation.

    Each row holds the allocation's entries, then the per-location and the
    overall hit probabilities in percent.
    """
    columns = _allocation_columns(scenario) + _probability_columns(scenario)
    built = []
    for label, allocation in rows:
        evaluation = evaluate(scenario, allocation)
        values = _allocation_values(scenario, allocation)
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
    asymmetry varies. Rows are labelled repr(a1). For every pair the
    heuristics are tuned over the gamma grid. Where CELP is undefined
    (celp_rule refuses an alpha of 0), that pair's CELP cells are nan.
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

    id1, id2 = base.location_ids

    def run(pair: tuple[float, float]) -> tuple[str, tuple[float, ...]]:
        a1, a2 = pair
        scenario = dataclasses.replace(base, locations=((id1, a1), (id2, a2)))
        optimal = solve_closed_form(scenario).evaluation.overall
        cle_g, cle_eval = best_gamma(scenario, "cle", grid)
        try:  # the grid and resources passed for CLE, so only CELP's own domain fails
            celp_g, celp_eval = best_gamma(scenario, "celp", grid)
        except ValueError:
            celp = (math.nan, math.nan)
        else:
            celp = (celp_g, 100.0 * celp_eval.overall)
        values = (a1, a2, 100.0 * optimal, cle_g, 100.0 * cle_eval.overall, *celp)
        return repr(a1), values

    rows = [run(pair) for pair in alpha_pairs]
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
    >= 0; rows are labelled repr(k). Block totals (central, local, and each
    local resource summed over locations) are emitted alongside; they are
    invariant in k because the optimum splits the budget by sensitivities
    alone.
    """
    base = base or paris_scenario()
    scale_factors = tuple(float(k) for k in scale_factors)
    if not scale_factors:
        raise ValueError("scale_factors is empty")
    for k in scale_factors:
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError(f"scale factors must be finite and >= 0, got {k}")

    columns = (
        ["k"]
        + _allocation_columns(base)
        + ["overall%", "central_total", "local_total"]
        + [f"total[{res}]" for res in base.local_ids]
    )

    def run(k: float) -> tuple[str, tuple[float, ...]]:
        scaled = dataclasses.replace(
            base, locations=tuple((loc, k * a) for loc, a in base.locations)
        )
        report = solve_closed_form(scaled)
        allocation = report.allocation
        central_total = sum(allocation.central.values())
        local_total = sum(allocation.local.values())
        per_resource = [
            sum(allocation.local[(loc, res)] for loc in scaled.location_ids)
            for res in scaled.local_ids
        ]
        values = (
            [k]
            + _allocation_values(scaled, allocation)
            + [100.0 * report.evaluation.overall, central_total, local_total]
            + per_resource
        )
        return repr(k), tuple(values)

    rows = [run(k) for k in scale_factors]
    return ExperimentTable(
        name="attractiveness_scaling", columns=tuple(columns), rows=tuple(rows)
    )


def budget_for_target(scenario: Scenario, target: float) -> float:
    """Budget at which the optimal allocation hits the target overall probability.

    The optimal surrogate scales as budget ** (-sum of betas), so the required
    budget follows in closed form from the current optimum:

        R' = R * exp((ln B_now - ln B_target) / sum_betas),  B_target = t / (1 - t).

    Working with ln B keeps this finite where B_now overflows. The result is
    verified by re-solving at R'; a mismatch beyond 1e-9 in the achieved
    probability raises, rather than returning a bad budget.
    """
    target = float(target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target probability must lie strictly between 0 and 1, got {target}")
    beta_sum = scenario._beta_total
    ln_b_now = solve_closed_form(scenario).evaluation.ln_surrogate
    ln_b_target = math.log(target / (1.0 - target))
    budget = scenario.budget * math.exp((ln_b_now - ln_b_target) / beta_sum)

    rescaled = dataclasses.replace(scenario, budget=budget)
    achieved = solve_closed_form(rescaled).evaluation.overall
    if abs(achieved - target) > 1e-9:
        raise ArithmeticError(
            f"budget {budget} reaches overall {achieved}, not the target {target}"
        )
    return budget
