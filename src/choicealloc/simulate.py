"""Monte Carlo check of the choice model: Gumbel-max sampling of locations.

Each draw perturbs every alternative's utility (locations at V_i, opting out
at 0) with iid standard Gumbel noise and records the argmax. Empirical
frequencies converge to the analytic logit probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, Scenario, ScenarioError, _utilities, _vector, check_feasible

#: Label used for the opt-out alternative in sampled counts.
OPT_OUT = "OPT_OUT"

_CHUNK = 1 << 18


@dataclass(frozen=True)
class ChoiceSample:
    """Tallied choices; counts cover every location plus OPT_OUT and sum to draws."""

    counts: dict[str, int]
    draws: int
    seed: int


def sample_choices(
    scenario: Scenario, allocation: Allocation, draws: int, seed: int
) -> ChoiceSample:
    """Draw location choices and tally them; deterministic for a given seed.

    Uniform variates are consumed draw-major then alternative-major
    (locations in scenario order, the opt-out last), mapped to Gumbel noise
    via -ln(-ln(u)) with u kept inside the open unit interval.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if OPT_OUT in scenario.location_ids:
        raise ScenarioError(f"location id {OPT_OUT!r} collides with the opt-out label")
    check_feasible(scenario, allocation)
    utilities = np.append(_utilities(scenario, _vector(scenario, allocation)), 0.0)
    n_alternatives = utilities.size

    rng = np.random.default_rng(seed)
    tiny = np.finfo(float).tiny
    counts = np.zeros(n_alternatives, dtype=np.int64)
    remaining = draws
    while remaining > 0:
        block = min(remaining, _CHUNK)
        u = np.maximum(rng.random((block, n_alternatives)), tiny)
        gumbel = -np.log(-np.log(u))
        winners = np.argmax(utilities + gumbel, axis=1)
        counts += np.bincount(winners, minlength=n_alternatives)
        remaining -= block

    labels = list(scenario.location_ids) + [OPT_OUT]
    return ChoiceSample(
        counts={label: int(c) for label, c in zip(labels, counts)},
        draws=draws,
        seed=seed,
    )
