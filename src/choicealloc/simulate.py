"""Monte Carlo check of the choice model: logit choices as an exponential race.

Gumbel-max sampling records, per draw, the argmax over alternatives
(locations at V_i, opting out at 0) of V_k + G_k with iid standard Gumbel G_k
= -ln(-ln u_k). Its empirical frequencies converge to the analytic logit
probabilities. Since -ln u_k is a unit exponential E_k, that argmax is the
argmin of E_k * exp(-V_k), the first arrival in an exponential race
(Maddison, Tarlow & Minka, "A* Sampling", NeurIPS 2014). Scaling every
arrival time by exp(max V) and flipping the sign, the winner is the argmax
of w_k * ln u_k with w_k = exp(max V - V_k) >= 1: one log per variate
instead of two, from the same uniforms, so every seed tallies the same
counts as the two-log Gumbel form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, Scenario, ScenarioError, _utilities, _vector, check_feasible

#: Label used for the opt-out alternative in sampled counts.
OPT_OUT = "OPT_OUT"

#: Uniform variates per chunk; a chunk holds _CHUNK // (L + 1) draws.
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
    (locations in scenario order, the opt-out last), with u kept inside the
    open unit interval. Each draw goes to the first argmax of w_k * ln u_k,
    w_k = exp(max V - V_k), the same winner as the Gumbel-max argmax of
    V_k - ln(-ln u_k). Chunks reuse one buffer; since the generator fills
    it in order, the chunking does not change the stream. A w_k or product
    that overflows is -inf after the multiply, so that alternative loses,
    as it should; ln u < 0 rules out nan.
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
    rows = min(draws, max(1, _CHUNK // n_alternatives))
    buffer = np.empty(rows * n_alternatives)
    with np.errstate(over="ignore"):
        weights = np.tile(np.exp(utilities.max() - utilities), rows)
        remaining = draws
        while remaining > 0:
            block = min(remaining, rows)
            keys = buffer[: block * n_alternatives]
            rng.random(out=keys)
            np.maximum(keys, tiny, out=keys)
            np.log(keys, out=keys)
            np.multiply(keys, weights[: keys.size], out=keys)
            winners = np.argmax(keys.reshape(block, n_alternatives), axis=1)
            counts += np.bincount(winners, minlength=n_alternatives)
            remaining -= block

    labels = list(scenario.location_ids) + [OPT_OUT]
    return ChoiceSample(
        counts={label: int(c) for label, c in zip(labels, counts)},
        draws=draws,
        seed=seed,
    )
