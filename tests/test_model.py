import dataclasses
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from choicealloc import (
    Allocation,
    AllocationError,
    Evaluation,
    POSITIVITY_FLOOR,
    Scenario,
    ScenarioError,
    budget_for_target,
    check_feasible,
    deterministic_utility,
    entry_keys,
    evaluate,
    flatten,
    gradient_B,
    kkt_residual,
    paris_scenario,
    solve_closed_form,
    surrogate_B,
    unflatten,
)
from helpers import example_two, random_allocation, random_scenario, tiny_share_scenario


@pytest.fixture
def paris():
    return paris_scenario()


@pytest.fixture
def paris_plan():
    # The worked fixed split: 15 on the campaign, locals (3, 2) and (6, 4).
    return Allocation(
        local={
            ("louvre", "cameras"): 3.0,
            ("eiffel", "cameras"): 2.0,
            ("louvre", "billboards"): 6.0,
            ("eiffel", "billboards"): 4.0,
        },
        central={"campaign": 15.0},
    )


class TestScenarioValidation:
    def test_requires_locations(self):
        with pytest.raises(ScenarioError, match="locations"):
            Scenario(locations=(), local_resources=(("a", 1.0),), central_resources=(), budget=1.0)

    def test_requires_some_resource(self):
        with pytest.raises(ScenarioError, match="resource"):
            Scenario(locations=(("l", 0.0),), local_resources=(), central_resources=(), budget=1.0)

    def test_rejects_duplicate_ids_across_lists(self):
        with pytest.raises(ScenarioError, match="distinct"):
            Scenario(
                locations=(("a", 0.0),),
                local_resources=(("a", 1.0),),
                central_resources=(),
                budget=1.0,
            )
        with pytest.raises(ScenarioError, match="distinct"):
            Scenario(
                locations=(("l", 0.0),),
                local_resources=(("r", 1.0),),
                central_resources=(("r", 1.0),),
                budget=1.0,
            )

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ScenarioError, match="beta"):
            Scenario(
                locations=(("l", 0.0),),
                local_resources=(("r", beta),),
                central_resources=(),
                budget=1.0,
            )

    def test_rejects_negative_alpha(self):
        with pytest.raises(ScenarioError, match="alpha"):
            Scenario(
                locations=(("l", -0.5),),
                local_resources=(("r", 1.0),),
                central_resources=(),
                budget=1.0,
            )

    @pytest.mark.parametrize("budget", [0.0, -3.0, float("nan")])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ScenarioError, match="budget"):
            Scenario(
                locations=(("l", 0.0),),
                local_resources=(("r", 1.0),),
                central_resources=(),
                budget=budget,
            )


class TestAllocationValidation:
    def test_rejects_nonpositive_entries(self):
        for value in (0.0, -1.0, 1e-13):
            with pytest.raises(AllocationError):
                Allocation(local={("l", "r"): value}, central={})

    def test_floor_value_is_accepted(self):
        Allocation(local={("l", "r"): 1e-12}, central={})

    def test_key_mismatch_is_rejected(self, paris, paris_plan):
        missing = Allocation(
            local={k: v for k, v in paris_plan.local.items() if k != ("eiffel", "cameras")},
            central=dict(paris_plan.central),
        )
        with pytest.raises(AllocationError, match="local keys"):
            evaluate(paris, missing)
        extra = Allocation(local=dict(paris_plan.local), central={"campaign": 15.0, "other": 1.0})
        with pytest.raises(AllocationError, match="central keys"):
            surrogate_B(paris, extra)

    def test_budget_slack(self, paris, paris_plan):
        check_feasible(paris, paris_plan)
        nudged = Allocation(
            local=dict(paris_plan.local),
            central={"campaign": 15.0 + 1e-8},  # inside the 1e-9 * budget slack
        )
        check_feasible(paris, nudged)
        over = Allocation(local=dict(paris_plan.local), central={"campaign": 16.0})
        with pytest.raises(AllocationError, match="exceeds budget"):
            evaluate(paris, over)


class TestDeterministicUtility:
    def test_city_value(self, paris, paris_plan):
        # alpha - 3 ln 3 - 2 ln 6 - ln 15 collapses to ln(729 / (27 * 36 * 15)).
        v = deterministic_utility(paris, paris_plan, "louvre")
        assert v == pytest.approx(math.log(0.05), rel=1e-12)

    def test_zero_alpha_unit_entries(self):
        scenario = Scenario(
            locations=(("l", 0.0),),
            local_resources=(("r", 7.3),),
            central_resources=(("c", 2.2),),
            budget=5.0,
        )
        allocation = Allocation(local={("l", "r"): 1.0}, central={"c": 1.0})
        assert deterministic_utility(scenario, allocation, "l") == 0.0

    def test_unknown_location(self, paris, paris_plan):
        with pytest.raises(ScenarioError, match="unknown location"):
            deterministic_utility(paris, paris_plan, "notre-dame")

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scenario = random_scenario(rng, max_locations=3, max_local=2, max_central=2)
            allocation = random_allocation(rng, scenario)
            for loc, alpha in scenario.locations:
                expected = alpha
                for res, beta in scenario.local_resources:
                    expected -= beta * math.log(allocation.local[(loc, res)])
                for res, beta in scenario.central_resources:
                    expected -= beta * math.log(allocation.central[res])
                got = deterministic_utility(scenario, allocation, loc)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_agrees_exactly_with_evaluate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scenario = random_scenario(rng)
            allocation = random_allocation(rng, scenario)
            utilities = evaluate(scenario, allocation).utilities
            for loc in scenario.location_ids:
                assert deterministic_utility(scenario, allocation, loc) == utilities[loc]


class TestEvaluate:
    def test_equal_split_probabilities(self):
        scenario = example_two()
        allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
        e = evaluate(scenario, allocation)
        assert e.per_location["1"] == pytest.approx(1 / 3, abs=1e-12)
        assert e.per_location["2"] == pytest.approx(1 / 3, abs=1e-12)
        assert e.opt_out == pytest.approx(1 / 3, abs=1e-12)

    def test_unequal_split_probabilities(self):
        scenario = example_two()
        allocation = Allocation(local={("1", "3"): 2.0, ("2", "3"): 1.0}, central={})
        e = evaluate(scenario, allocation)
        assert e.per_location["1"] == pytest.approx(1 / 33, abs=1e-12)
        assert e.per_location["2"] == pytest.approx(16 / 33, abs=1e-12)
        assert e.opt_out == pytest.approx(16 / 33, abs=1e-12)

    def test_city_overall(self, paris, paris_plan):
        assert evaluate(paris, paris_plan).overall == pytest.approx(1 / 13, rel=1e-12)

    def test_city_better_plan(self, paris):
        better = Allocation(
            local={
                ("louvre", "cameras"): 3.0,
                ("eiffel", "cameras"): 2.0,
                ("louvre", "billboards"): 9.0,
                ("eiffel", "billboards"): 6.0,
            },
            central={"campaign": 10.0},
        )
        assert evaluate(paris, better).overall == pytest.approx(1 / 19, rel=1e-12)

    def test_probabilities_sum_to_one(self, paris, paris_plan):
        e = evaluate(paris, paris_plan)
        assert sum(e.per_location.values()) + e.opt_out == pytest.approx(1.0, abs=1e-12)

    def test_huge_alpha_stays_finite(self):
        # Far outside the naive exp() range; the log-domain path must hold.
        scenario = Scenario(
            locations=(("a", 600.0), ("b", 1.0)),
            local_resources=(("r", 2.0),),
            central_resources=(("c", 1.0),),
            budget=9.0,
        )
        allocation = Allocation(
            local={("a", "r"): 3.0, ("b", "r"): 3.0}, central={"c": 3.0}
        )
        e = evaluate(scenario, allocation)
        assert sum(e.per_location.values()) + e.opt_out == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < e.overall <= 1.0
        assert e.per_location["a"] > 0.999
        assert math.isfinite(e.surrogate)

    def test_alpha_beyond_double_range_saturates(self):
        # Here even the surrogate itself exceeds the largest double; the
        # probabilities must still come out of the log domain intact.
        scenario = Scenario(
            locations=(("a", 800.0), ("b", 1.0)),
            local_resources=(("r", 2.0),),
            central_resources=(("c", 1.0),),
            budget=9.0,
        )
        allocation = Allocation(
            local={("a", "r"): 3.0, ("b", "r"): 3.0}, central={"c": 3.0}
        )
        e = evaluate(scenario, allocation)
        assert sum(e.per_location.values()) + e.opt_out == pytest.approx(1.0, abs=1e-12)
        assert e.surrogate == math.inf
        assert e.overall == 1.0

    def test_ln_surrogate_is_finite_past_the_double_range(self, paris, paris_plan):
        e = evaluate(paris, paris_plan)
        assert e.ln_surrogate == pytest.approx(math.log(e.surrogate), rel=1e-14)
        scenario = Scenario(
            locations=(("a", 800.0), ("b", 1.0)),
            local_resources=(("r", 2.0),),
            central_resources=(("c", 1.0),),
            budget=9.0,
        )
        allocation = Allocation(
            local={("a", "r"): 3.0, ("b", "r"): 3.0}, central={"c": 3.0}
        )
        e = evaluate(scenario, allocation)
        assert e.surrogate == math.inf
        expected = float(np.logaddexp(800.0, 1.0)) - 3.0 * math.log(3.0)
        assert e.ln_surrogate == pytest.approx(expected, rel=1e-15)


class TestSurrogate:
    def test_city_plan_value(self, paris, paris_plan):
        # Hand arithmetic: 729/(27*36*15) + 64/(8*16*15) = 1/20 + 1/30 = 1/12.
        expected = Fraction(729, 27 * 36 * 15) + Fraction(64, 8 * 16 * 15)
        assert expected == Fraction(1, 12)
        assert surrogate_B(paris, paris_plan) == pytest.approx(float(expected), rel=1e-12)

    def test_unit_entries(self):
        scenario = example_two()
        allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
        assert surrogate_B(scenario, allocation) == pytest.approx(2.0, rel=1e-12)

    def test_matches_logit_route(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            scenario = random_scenario(rng)
            allocation = random_allocation(rng, scenario)
            e = evaluate(scenario, allocation)
            logit_sum = math.fsum(math.exp(v) for v in e.utilities.values())
            assert surrogate_B(scenario, allocation) == pytest.approx(logit_sum, rel=1e-12)

    def test_ignores_budget_bound(self, paris, paris_plan):
        # B is defined for any positive allocation, feasible or not.
        doubled = Allocation(
            local={k: 2 * v for k, v in paris_plan.local.items()},
            central={k: 2 * v for k, v in paris_plan.central.items()},
        )
        assert surrogate_B(paris, doubled) > 0.0
        with pytest.raises(AllocationError):
            evaluate(paris, doubled)


def _city_1e5() -> Scenario:
    """100 000 locations, 3 local and 2 central resources in c08's ranges:
    300 002 entries."""
    rng = np.random.default_rng(1)
    alphas = rng.uniform(0.0, 8.0, 100_000).tolist()
    local_betas = rng.uniform(0.5, 4.0, 3).tolist()
    central_betas = rng.uniform(0.5, 4.0, 2).tolist()
    return Scenario(
        locations=tuple((f"loc{i}", a) for i, a in enumerate(alphas)),
        local_resources=tuple((f"lr{j}", b) for j, b in enumerate(local_betas)),
        central_resources=tuple((f"cr{j}", b) for j, b in enumerate(central_betas)),
        budget=float(rng.uniform(1.0, 100.0)),
    )


class TestScale:
    def test_memory_is_linear_in_entries(self):
        # 3000 locations, 2 local and 1 central resource: 6001 entries. A dense
        # locations-by-entries design alone would take 144 MB.
        scenario = Scenario(
            locations=tuple((f"loc{i}", 1.0 + (i % 7) / 7.0) for i in range(3000)),
            local_resources=(("cameras", 2.0), ("patrols", 1.5)),
            central_resources=(("campaign", 1.0),),
            budget=100.0,
        )
        tracemalloc.start()
        try:
            report = solve_closed_form(scenario)
            evaluate(scenario, report.allocation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_closed_form_memory_at_1e5_locations(self):
        # One dict entry and one float object per entry, as a dict-keyed
        # allocation keeps, already take about 30 MB.
        scenario = _city_1e5()
        tracemalloc.start()
        try:
            report = solve_closed_form(scenario)
            evaluate(scenario, report.allocation)
            residual = kkt_residual(scenario, report.allocation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-8
        assert report.allocation.total == pytest.approx(scenario.budget, rel=1e-12)
        assert peak < 48 * 2**20

    def test_evaluate_memory_at_1e5_locations(self):
        # Two 100 000-entry dicts of floats, built eagerly, take about 12 MB.
        scenario = _city_1e5()
        report = solve_closed_form(scenario)
        tracemalloc.start()
        try:
            evaluation = evaluate(scenario, report.allocation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert evaluation.ln_surrogate == report.evaluation.ln_surrogate
        assert peak < 8 * 2**20


class TestGradient:
    def test_unit_entry_value(self):
        scenario = example_two()
        allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
        g = gradient_B(scenario, allocation)
        assert g[("1", "3")] == pytest.approx(-4.0, rel=1e-12)

    def test_all_components_equal_multiplier_at_optimum(self, paris):
        report = solve_closed_form(paris)
        # Exact multiplier by rational arithmetic: -(5^6 * 6^7) / (30^7 * 1 * 27 * 4).
        expected = -Fraction(5**6 * 6**7, 30**7 * (1**1 * 3**3 * 2**2))
        assert expected == Fraction(-1, 540)
        g = gradient_B(paris, report.allocation)
        for value in g.values():
            assert value == pytest.approx(float(expected), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_gives_no_nan(self):
        # B = e^800 overflows and location b's choice weight underflows to 0.
        scenario = Scenario(
            locations=(("a", 800.0), ("b", 0.0)),
            local_resources=(("r", 1.0),),
            central_resources=(("c", 1.0),),
            budget=4.0,
        )
        g = gradient_B(scenario, unflatten(scenario, [1.0, 1.0, 2.0]))
        assert g == {("a", "r"): -math.inf, ("b", "r"): -0.5, "c": -math.inf}

    def test_matches_central_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            scenario = random_scenario(rng, alpha_range=(0.0, 3.0))
            allocation = random_allocation(rng, scenario, weight_range=(0.7, 1.0))
            g = gradient_B(scenario, allocation)
            x = flatten(scenario, allocation)
            keys = entry_keys(scenario)
            for idx, key in enumerate(keys):
                h = 1e-6 * x[idx]
                up, down = x.copy(), x.copy()
                up[idx] += h
                down[idx] -= h
                fd = (
                    surrogate_B(scenario, unflatten(scenario, up))
                    - surrogate_B(scenario, unflatten(scenario, down))
                ) / (2 * h)
                assert g[key] == pytest.approx(fd, rel=1e-5)


class TestFlattening:
    def test_canonical_order(self, paris, paris_plan):
        keys = entry_keys(paris)
        assert keys == [
            ("louvre", "cameras"),
            ("louvre", "billboards"),
            ("eiffel", "cameras"),
            ("eiffel", "billboards"),
            "campaign",
        ]
        x = flatten(paris, paris_plan)
        assert list(x) == [3.0, 6.0, 2.0, 4.0, 15.0]

    def test_roundtrip(self, paris, paris_plan):
        x = flatten(paris, paris_plan)
        assert unflatten(paris, x) == paris_plan

    def test_unflatten_rejects_bad_shape(self, paris):
        with pytest.raises(AllocationError, match="length"):
            unflatten(paris, np.ones(3))


class TestVectorBackedAllocation:
    """Allocations built from a vector behave like those built from dicts."""

    def test_equal_to_dict_built_both_ways(self, paris, paris_plan):
        from_vector = unflatten(paris, flatten(paris, paris_plan))
        assert from_vector == paris_plan
        assert paris_plan == from_vector
        assert not from_vector != paris_plan
        assert from_vector.local == paris_plan.local
        assert from_vector.central == paris_plan.central
        assert from_vector.total == paris_plan.total
        optimum = solve_closed_form(paris).allocation
        rebuilt = Allocation(local=dict(optimum.local), central=dict(optimum.central))
        assert rebuilt == optimum and optimum == rebuilt
        assert repr(rebuilt) == repr(optimum)
        assert unflatten(paris, flatten(paris, optimum)) == optimum
        assert optimum != paris_plan

    def test_flatten_and_unflatten_copy(self, paris, paris_plan):
        allocation = unflatten(paris, flatten(paris, paris_plan))
        x = flatten(paris, allocation)
        x[:] = 1.0
        assert flatten(paris, allocation).tolist() == [3.0, 6.0, 2.0, 4.0, 15.0]
        source = np.array([3.0, 6.0, 2.0, 4.0, 15.0])
        allocation = unflatten(paris, source)
        source[:] = -1.0
        assert allocation == paris_plan
        assert evaluate(paris, allocation) == evaluate(paris, paris_plan)

    def test_unflatten_rejects_nonpositive_entries(self, paris):
        key = entry_keys(paris)[2]
        for value in (0.0, -1.0, 1e-13, math.nan, math.inf):
            x = np.full(paris.n_entries, 1.0)
            x[2] = value
            with pytest.raises(AllocationError, match=re.escape(repr(key))):
                unflatten(paris, x)
        x = np.full(paris.n_entries, 1.0)
        x[2] = 1e-12
        assert unflatten(paris, x).local[key] == 1e-12

    def test_immutable_and_unhashable(self, paris, paris_plan):
        for allocation in (paris_plan, unflatten(paris, flatten(paris, paris_plan))):
            with pytest.raises(AttributeError):
                allocation.local = {}
            with pytest.raises(AttributeError):
                allocation.total = 0.0
            with pytest.raises(TypeError):
                hash(allocation)

    def test_key_check_against_another_scenario(self, paris, paris_plan):
        from_vector = unflatten(paris, flatten(paris, paris_plan))
        renamed = dataclasses.replace(
            paris, locations=(("louvre", paris.locations[0][1]), ("notre-dame", 6.0))
        )
        with pytest.raises(AllocationError, match="local keys") as vector_error:
            evaluate(renamed, from_vector)
        with pytest.raises(AllocationError) as dict_error:
            evaluate(renamed, Allocation(local=dict(paris_plan.local), central={"campaign": 15.0}))
        assert str(vector_error.value) == str(dict_error.value)
        richer = dataclasses.replace(paris, budget=2 * paris.budget)
        assert evaluate(richer, from_vector) == evaluate(paris, from_vector)
        assert evaluate(paris, from_vector) == evaluate(paris, paris_plan)


class TestArrayBackedEvaluation:
    """Evaluations keep arrays and build their dicts on first read."""

    def test_equality_and_repr(self, paris, paris_plan):
        evaluation = solve_closed_form(paris).evaluation
        assert repr(evaluation) == (
            "Evaluation(per_location={'louvre': 0.0055045871559633005, "
            "'eiffel': 0.0036697247706421994}, opt_out=0.9908256880733946, "
            "overall=0.009174311926605498, surrogate=0.009259259259259257, "
            "utilities={'louvre': -5.19295685089021, 'eiffel': -5.598421958998375}, "
            "ln_surrogate=-4.68213122712422)"
        )
        fields = ("per_location", "opt_out", "overall", "surrogate", "utilities", "ln_surrogate")
        values = [getattr(evaluation, name) for name in fields]
        from_dicts = Evaluation(*values)
        assert from_dicts == evaluation and evaluation == from_dicts
        assert repr(from_dicts) == repr(evaluation)
        assert Evaluation(**dict(zip(fields, values))) == evaluation
        assert evaluation == evaluate(paris, solve_closed_form(paris).allocation)
        assert evaluation != evaluate(paris, paris_plan)
        assert evaluation != Evaluation(*values[:-1], values[-1] + 1.0)
        assert evaluation != tuple(values)

    def test_immutable_and_unhashable(self, paris, paris_plan):
        for evaluation in (evaluate(paris, paris_plan), solve_closed_form(paris).evaluation):
            for name in ("per_location", "overall", "utilities", "ln_surrogate"):
                with pytest.raises(FrozenInstanceError):
                    setattr(evaluation, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(evaluation, name)
            with pytest.raises(TypeError):
                hash(evaluation)

    def test_dicts_built_on_first_read(self, paris, paris_plan):
        evaluation = evaluate(paris, paris_plan)
        assert "per_location" not in vars(evaluation)
        assert "utilities" not in vars(evaluation)
        per_location, utilities = evaluation.per_location, evaluation.utilities
        assert evaluation.per_location is per_location
        assert evaluation.utilities is utilities
        assert list(per_location) == list(utilities) == ["louvre", "eiffel"]
        assert utilities["louvre"] == deterministic_utility(paris, paris_plan, "louvre")


class TestPositivityFloor:
    """The floor guards entries a caller gives, not the solvers' own output."""

    @pytest.mark.filterwarnings("error")
    def test_optimal_share_below_the_floor_is_kept(self):
        scenario = tiny_share_scenario()
        report = solve_closed_form(scenario)
        share = report.allocation.local[("a", "r")]
        assert 0.0 < share < POSITIVITY_FLOOR
        assert share == pytest.approx(0.5 * math.exp(-40.0), rel=1e-12)
        assert kkt_residual(scenario, report.allocation) <= 1e-8
        assert evaluate(scenario, report.allocation) == report.evaluation
        with pytest.raises(AllocationError, match="at least"):
            unflatten(scenario, flatten(scenario, report.allocation))

    def test_paris_at_a_tiny_budget(self, paris):
        tiny = dataclasses.replace(paris, budget=1e-30)
        budget = budget_for_target(tiny, 0.5)
        assert budget == pytest.approx(budget_for_target(paris, 0.5), rel=1e-12)
