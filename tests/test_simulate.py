import math
import tracemalloc
import warnings

import numpy as np
import pytest

from choicealloc import (
    Allocation,
    Scenario,
    ScenarioError,
    OPT_OUT,
    evaluate,
    paris_scenario,
    sample_choices,
    solve_closed_form,
)
from choicealloc import simulate
from helpers import example_two, random_allocation, random_scenario


def binomial_3se(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_counts_cover_alternatives_and_sum_to_draws():
    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    sample = sample_choices(scenario, allocation, draws=1000, seed=3)
    assert set(sample.counts) == {"1", "2", OPT_OUT}
    assert sum(sample.counts.values()) == 1000
    assert sample.draws == 1000 and sample.seed == 3


def test_seed_determinism():
    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    first = sample_choices(scenario, allocation, draws=50_000, seed=11)
    second = sample_choices(scenario, allocation, draws=50_000, seed=11)
    assert first == second
    other_seed = sample_choices(scenario, allocation, draws=50_000, seed=12)
    assert other_seed.counts != first.counts


def test_equal_split_frequencies_match_thirds():
    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    draws = 1_000_000
    sample = sample_choices(scenario, allocation, draws=draws, seed=42)
    tolerance = binomial_3se(1 / 3, draws)
    for label in ("1", "2", OPT_OUT):
        assert sample.counts[label] / draws == pytest.approx(1 / 3, abs=tolerance)


def test_dominant_location_takes_every_draw():
    # At alpha = 1000 the spread of V exceeds 709, so exp(max V - V) overflows.
    for hot_alpha in (50.0, 1000.0):
        scenario = Scenario(
            locations=(("hot", hot_alpha), ("cold", 0.0)),
            local_resources=(("r", 1.0),),
            central_resources=(),
            budget=2.0,
        )
        allocation = Allocation(local={("hot", "r"): 1.0, ("cold", "r"): 1.0}, central={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = sample_choices(scenario, allocation, draws=10_000, seed=0)
        assert sample.counts == {"hot": 10_000, "cold": 0, OPT_OUT: 0}


# Counts tallied by the two-log Gumbel-max sampler; the one-log race must match.
FORTY_LOCATION_COUNTS = [
    1859, 5853, 6538, 1666, 2631, 13466, 2905, 2389, 1026, 1965,
    558, 1111, 1214, 324, 1444, 1077, 897, 4800, 1165, 1429,
    784, 445, 9514, 1255, 2683, 5751, 1394, 1646, 2003, 517,
    796, 2723, 628, 571, 527, 1392, 418, 2209, 8823, 1232,
]


def test_pinned_counts():
    paris = paris_scenario()
    sample = sample_choices(paris, solve_closed_form(paris).allocation, draws=1_000_000, seed=2024)
    assert sample.counts == {"louvre": 5435, "eiffel": 3726, OPT_OUT: 990839}

    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    sample = sample_choices(example_two(), allocation, draws=50_000, seed=11)
    assert sample.counts == {"1": 16614, "2": 16601, OPT_OUT: 16785}

    rng = np.random.default_rng(40)
    scenario = Scenario(
        locations=tuple((f"loc{i}", float(rng.uniform(0.0, 2.0))) for i in range(40)),
        local_resources=(("patrol", 1.5), ("camera", 0.7)),
        central_resources=(("hq", 2.0),),
        budget=60.0,
    )
    sample = sample_choices(scenario, random_allocation(rng, scenario), draws=100_000, seed=7)
    assert sample.counts == {**dict(zip(scenario.location_ids, FORTY_LOCATION_COUNTS)), OPT_OUT: 372}


def test_memory_stays_flat_in_draws_times_locations():
    # 301 alternatives in short chunks, and the bundled city's 3 at 10^6 draws.
    wide = Scenario(
        locations=tuple((f"loc{i}", float(i % 7)) for i in range(300)),
        local_resources=(("r", 1.0),),
        central_resources=(("c", 1.0),),
        budget=10.0,
    )
    for scenario, draws in ((wide, 20_000), (paris_scenario(), 1_000_000)):
        allocation = solve_closed_form(scenario).allocation
        tracemalloc.start()
        try:
            sample_choices(scenario, allocation, draws=draws, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, len(scenario.locations)


def test_tally_gives_a_tie_to_the_first_alternative():
    # No seed can force an exact tie, so only hand-built keys reach the
    # argmax fallback. Weight inf is an overflowed exp(max V - V_k): its
    # keys are -inf and never win.
    weights = np.array([1.0, 1.0, np.inf, 2.0])
    keys = np.array([
        [-0.5, -0.5, -0.1, -1.0],  # tie of 0 and 1
        [-2.0, -1.0, -0.3, -0.5],  # tie of 1 and 3
        [-3.0, -2.0, -0.1, -0.25],  # 3 alone
        [-1.0, -1.0, -1.0, -0.5],  # tie of 0, 1 and 3
    ])
    race = (keys * weights).T
    scratch = np.empty(keys.size, dtype=bool)
    first_argmax = np.bincount(np.argmax(keys * weights, axis=1), minlength=4)
    assert simulate._tally(race, scratch).tolist() == first_argmax.tolist() == [2, 1, 0, 1]
    assert simulate._tally(race[:, 2:3], scratch).tolist() == [0, 0, 0, 1]
    assert simulate._tally(race[:, :1], scratch).tolist() == [1, 0, 0, 0]


def test_counts_match_a_row_argmax_of_the_same_stream():
    # The reference draws every uniform at once and takes argmax along each
    # draw's row. 2 to 12 alternatives, then races of 33, 41 and 301; alpha
    # up to 1500 puts utility gaps past 709, where exp(max V - V_k)
    # overflows; up to 3.6e5 keys spans up to six chunks of 2**16 variates,
    # and a wide race up to four.
    rng = np.random.default_rng(13)
    for case in range(46):
        top = (8.0, 60.0, 1500.0)[case % 3]
        if case < 40:
            scenario = random_scenario(rng, max_locations=11, alpha_range=(0.0, top))
        else:
            n = (32, 40, 300)[case % 3]
            scenario = Scenario(
                locations=tuple(
                    (f"l{i}", float(a)) for i, a in enumerate(rng.uniform(0.0, top, n))
                ),
                local_resources=(("r", 1.0),), central_resources=(("c", 1.0),), budget=10.0,
            )
        allocation = random_allocation(rng, scenario)
        per_chunk = simulate._CHUNK // (len(scenario.locations) + 1)
        draws = int(rng.integers(1, 30_000 if case < 40 else 3 * per_chunk + 2))
        seed = int(rng.integers(0, 2**31))
        utilities = np.append(list(evaluate(scenario, allocation).utilities.values()), 0.0)
        with np.errstate(over="ignore"):
            weights = np.exp(utilities.max() - utilities)
            u = np.random.default_rng(seed).random((draws, utilities.size))
            keys = np.log(np.maximum(u, np.finfo(float).tiny)) * weights
        expected = np.bincount(np.argmax(keys, axis=1), minlength=utilities.size)
        counts = sample_choices(scenario, allocation, draws, seed).counts
        assert list(counts.values()) == expected.tolist(), (case, len(scenario.locations))


def test_chunking_does_not_change_the_counts(monkeypatch):
    # Chunks of 2 variates hold one draw each; chunks of 1000 leave a ragged
    # third chunk; the module's own size and 2**18 hold every draw in one.
    # Alpha up to 1500 puts utility gaps past 709, where the weights overflow.
    rng = np.random.default_rng(20)
    chunks = (2, 1000, simulate._CHUNK, 1 << 18)
    for case in range(15):
        top = (8.0, 60.0, 1500.0)[case % 3]
        scenario = random_scenario(rng, max_locations=11, alpha_range=(0.0, top))
        allocation = random_allocation(rng, scenario)
        rows = 1000 // (len(scenario.locations) + 1)
        draws = 2 * rows + int(rng.integers(1, rows))
        seed = int(rng.integers(0, 2**31))
        counts = []
        for chunk in chunks:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            counts.append(sample_choices(scenario, allocation, draws, seed).counts)
        assert all(c == counts[0] for c in counts), (case, len(scenario.locations))


def test_city_optimum_frequencies():
    paris = paris_scenario()
    allocation = solve_closed_form(paris).allocation
    evaluation = evaluate(paris, allocation)
    draws = 1_000_000
    sample = sample_choices(paris, allocation, draws=draws, seed=2024)
    analytic = {**evaluation.per_location, OPT_OUT: evaluation.opt_out}
    for label, p in analytic.items():
        assert sample.counts[label] / draws == pytest.approx(p, abs=binomial_3se(p, draws))
    hit_frequency = (sample.counts["louvre"] + sample.counts["eiffel"]) / draws
    assert hit_frequency == pytest.approx(1 / 109, abs=binomial_3se(1 / 109, draws))


def test_rejects_bad_draws():
    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    with pytest.raises(ValueError, match="draws"):
        sample_choices(scenario, allocation, draws=0, seed=1)


def test_rejects_negative_seed():
    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        sample_choices(scenario, allocation, draws=10, seed=-1)


def test_rejects_opt_out_id_collision():
    scenario = Scenario(
        locations=((OPT_OUT, 1.0),),
        local_resources=(("r", 1.0),),
        central_resources=(),
        budget=2.0,
    )
    allocation = Allocation(local={(OPT_OUT, "r"): 2.0}, central={})
    with pytest.raises(ScenarioError, match="collides"):
        sample_choices(scenario, allocation, draws=10, seed=1)
