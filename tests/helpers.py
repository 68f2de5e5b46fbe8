"""Shared scenario generators for the test suite."""

from __future__ import annotations

import numpy as np

from choicealloc import Allocation, Scenario, unflatten


def example_two() -> Scenario:
    """Two equally unattractive locations, one shared local resource, budget 3."""
    return Scenario(
        locations=(("1", 0.0), ("2", 0.0)),
        local_resources=(("3", 4.0),),
        central_resources=(),
        budget=3.0,
    )


def saturated_scenario() -> Scenario:
    """B past the double range at the optimum: ln B is about 720 at budget 1e-5."""
    return Scenario(
        locations=(("a", 60.0), ("b", 0.0)),
        local_resources=tuple((f"l{j}", 10.0) for j in range(3)),
        central_resources=tuple((f"c{j}", 10.0) for j in range(2)),
        budget=1e-5,
    )


def tiny_share_scenario() -> Scenario:
    """An optimal local share of about 2.1e-18, below POSITIVITY_FLOOR: alpha = 0 and 80."""
    return Scenario(
        locations=(("a", 0.0), ("b", 80.0)),
        local_resources=(("r", 1.0),),
        central_resources=(("c", 1.0),),
        budget=1.0,
    )


def underflowed_share_scenario() -> Scenario:
    """An optimal local share of e^-2500, which underflows to 0.0: alpha = 0 and 5000."""
    return Scenario(
        locations=(("a", 0.0), ("b", 5000.0)),
        local_resources=(("r", 1.0),),
        central_resources=(("c", 1.0),),
        budget=1.0,
    )


def random_scenario(
    rng: np.random.Generator,
    max_locations: int = 5,
    max_local: int = 3,
    max_central: int = 2,
    alpha_range: tuple[float, float] = (0.0, 8.0),
    beta_range: tuple[float, float] = (0.5, 4.0),
    budget_range: tuple[float, float] = (1.0, 100.0),
) -> Scenario:
    n = int(rng.integers(1, max_locations + 1))
    n_local = int(rng.integers(0, max_local + 1))
    n_central = int(rng.integers(0, max_central + 1))
    if n_local == 0 and n_central == 0:
        n_local = 1
    return Scenario(
        locations=tuple((f"loc{i}", float(rng.uniform(*alpha_range))) for i in range(n)),
        local_resources=tuple(
            (f"lr{j}", float(rng.uniform(*beta_range))) for j in range(n_local)
        ),
        central_resources=tuple(
            (f"cr{j}", float(rng.uniform(*beta_range))) for j in range(n_central)
        ),
        budget=float(rng.uniform(*budget_range)),
    )


def random_allocation(
    rng: np.random.Generator,
    scenario: Scenario,
    fill: float = 1.0,
    weight_range: tuple[float, float] = (0.2, 1.0),
) -> Allocation:
    """Random positive allocation spending `fill` of the budget."""
    weights = rng.uniform(*weight_range, size=scenario.n_entries)
    x = fill * scenario.budget * weights / weights.sum()
    return unflatten(scenario, x)
