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

Draws are tallied a chunk at a time with the keys written transposed, one
row per alternative, so every reduction runs along the draws. A chunk holds
2^16 variates: its uniforms and its race take 512 KiB each, so every pass
stays in a 2 MiB L2 cache (chunks of 2^18 stream from memory and are about
1.25x slower on the city). On the paper's three-alternative city an
argmax along each draw's row of n keys would pay numpy's per-row overhead
once per draw; from about 35 alternatives that argmax is cheaper than the
transpose (x1.16 at 41, x1.55 at 1 001).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Allocation, Scenario, ScenarioError, _utilities, _vector, check_feasible

#: Label used for the opt-out alternative in sampled counts.
OPT_OUT = "OPT_OUT"

#: Uniform variates per chunk; a chunk holds _CHUNK // (L + 1) draws.
_CHUNK = 1 << 16


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
    V_k - ln(-ln u_k). Chunks reuse the same buffers; since the generator
    fills them in order, the chunking does not change the stream. The clamp
    to the smallest normal double writes the chunk transposed; the log and
    the weighting then run in place on its rows. A w_k or product that
    overflows is -inf after the multiply, so that alternative loses, as it
    should; ln u < 0 rules out nan. A tie at a draw's maximum goes to its
    first alternative, as np.argmax along the draw's row would give it.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    race = np.empty(rows * n_alternatives)
    hits = buffer.view(bool)  # the spent uniforms' memory
    with np.errstate(over="ignore"):
        weights = np.exp(utilities.max() - utilities)[:, None]
        remaining = draws
        while remaining > 0:
            block = min(remaining, rows)
            keys = buffer[: block * n_alternatives]
            rng.random(out=keys)
            chunk = race[: block * n_alternatives].reshape(n_alternatives, block)
            np.maximum(keys.reshape(block, n_alternatives).T, tiny, out=chunk)
            np.log(chunk, out=chunk)
            np.multiply(chunk, weights, out=chunk)
            counts += _tally(chunk, hits)
            remaining -= block

    labels = list(scenario.location_ids) + [OPT_OUT]
    return ChoiceSample(
        counts={label: int(c) for label, c in zip(labels, counts)},
        draws=draws,
        seed=seed,
    )


def _tally(race: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per-alternative counts of each draw's first argmax of w_k * ln u_k.

    race is an (n, block) chunk of weighted keys, one row per alternative
    and one column per draw; scratch is a bool buffer of at least n * block
    entries. Each alternative counts the draws whose maximum it holds,
    flagged in scratch. Those counts sum to more than block only if some
    draw ties at its maximum; that chunk is re-tallied with argmax over the
    alternatives, which keeps the first.
    """
    n, block = race.shape
    hits = scratch[: n * block].reshape(n, block)
    np.equal(race, np.maximum.reduce(race, axis=0), out=hits)
    counts = np.count_nonzero(hits, axis=1)
    if counts.sum() > block:
        return np.bincount(np.argmax(race, axis=0), minlength=n)
    return counts
