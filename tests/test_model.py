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
    celp_rule,
    check_feasible,
    cle_rule,
    entry_keys,
    evaluate,
    flatten,
    kkt_residual,
    paris_scenario,
    solve_closed_form,
    unflatten,
)
from choicealloc.model import _location_sums, _log_gradient, _transposed
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
            evaluate(paris, extra)

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
        v = evaluate(paris, paris_plan).utilities["louvre"]
        assert v == pytest.approx(math.log(0.05), rel=1e-12)

    def test_zero_alpha_unit_entries(self):
        scenario = Scenario(
            locations=(("l", 0.0),),
            local_resources=(("r", 7.3),),
            central_resources=(("c", 2.2),),
            budget=5.0,
        )
        allocation = Allocation(local={("l", "r"): 1.0}, central={"c": 1.0})
        assert evaluate(scenario, allocation).utilities == {"l": 0.0}

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scenario = random_scenario(rng, max_locations=3, max_local=2, max_central=2)
            allocation = random_allocation(rng, scenario)
            utilities = evaluate(scenario, allocation).utilities
            for loc, alpha in scenario.locations:
                expected = alpha
                for res, beta in scenario.local_resources:
                    expected -= beta * math.log(allocation.local[(loc, res)])
                for res, beta in scenario.central_resources:
                    expected -= beta * math.log(allocation.central[res])
                assert utilities[loc] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_agrees_exactly_with_evaluate(self):
        # The certificates and evaluate read one V and one ln B.
        rng = np.random.default_rng(0)
        for _ in range(200):
            scenario = random_scenario(rng)
            allocation = random_allocation(rng, scenario)
            evaluation = evaluate(scenario, allocation)
            v, ln_b, _ = _log_gradient(scenario, flatten(scenario, allocation))
            assert v.tolist() == list(evaluation.utilities.values())
            assert ln_b == evaluation.ln_surrogate


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
        assert evaluate(paris, paris_plan).surrogate == pytest.approx(float(expected), rel=1e-12)

    def test_unit_entries(self):
        scenario = example_two()
        allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
        assert evaluate(scenario, allocation).surrogate == pytest.approx(2.0, rel=1e-12)

    def test_matches_logit_route(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            scenario = random_scenario(rng)
            allocation = random_allocation(rng, scenario)
            e = evaluate(scenario, allocation)
            logit_sum = math.fsum(math.exp(v) for v in e.utilities.values())
            assert e.surrogate == pytest.approx(logit_sum, rel=1e-12)

    def test_ignores_budget_bound(self, paris, paris_plan):
        # ln B is defined for any positive allocation, feasible or not: doubling
        # every entry divides B by 2 ** (3 + 2 + 1).
        doubled = Allocation(
            local={k: 2 * v for k, v in paris_plan.local.items()},
            central={k: 2 * v for k, v in paris_plan.central.items()},
        )
        _, ln_b, _ = _log_gradient(paris, flatten(paris, doubled))
        assert ln_b == pytest.approx(math.log(1 / 12) - 6 * math.log(2.0), rel=1e-12)
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
    """dB/dx = -B * r, with B and r from :func:`_log_gradient`."""

    def test_unit_entry_value(self):
        scenario = example_two()
        _, ln_b, r = _log_gradient(scenario, np.array([1.0, 1.0]))
        assert -math.exp(ln_b) * r[0] == pytest.approx(-4.0, rel=1e-12)

    def test_all_components_equal_multiplier_at_optimum(self, paris):
        report = solve_closed_form(paris)
        # Exact multiplier by rational arithmetic: -(5^6 * 6^7) / (30^7 * 1 * 27 * 4).
        expected = -Fraction(5**6 * 6**7, 30**7 * (1**1 * 3**3 * 2**2))
        assert expected == Fraction(-1, 540)
        _, ln_b, r = _log_gradient(paris, flatten(paris, report.allocation))
        for value in (-math.exp(ln_b) * r).tolist():
            assert value == pytest.approx(float(expected), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_gives_no_nan(self):
        # B = e^800 overflows and location b's choice weight underflows to 0,
        # while ln B and r stay finite.
        scenario = Scenario(
            locations=(("a", 800.0), ("b", 0.0)),
            local_resources=(("r", 1.0),),
            central_resources=(("c", 1.0),),
            budget=4.0,
        )
        _, ln_b, r = _log_gradient(scenario, np.array([1.0, 1.0, 2.0]))
        assert ln_b == pytest.approx(800.0 - math.log(2.0), rel=1e-15)
        assert r.tolist() == [1.0, 0.0, 0.5]


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


class TestOutputCheck:
    """An allocation's entries are checked from their extremes; a bad entry is
    still named, whatever its place."""

    SCENARIO = Scenario(
        locations=tuple((f"loc{i}", float(i)) for i in range(5)),
        local_resources=(("r", 1.0), ("s", 2.0)),
        central_resources=(("c", 1.0),),
        budget=11.0,
    )
    BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-13)

    def _vectors(self):
        n = self.SCENARIO.n_entries
        for value in self.BAD:
            for k in (0, n // 2, n - 1):
                x = np.linspace(0.5, 1.5, n)
                x[k] = value
                yield k, value, x

    def test_bad_entry_is_named_first_middle_and_last(self):
        keys = entry_keys(self.SCENARIO)
        for k, value, x in self._vectors():
            message = f"entry {keys[k]!r} must be at least {POSITIVITY_FLOOR}, got {value}"
            with pytest.raises(AllocationError) as error:
                unflatten(self.SCENARIO, x)
            assert str(error.value) == message
            if 0.0 < value < POSITIVITY_FLOOR:  # positive, so floor 0 accepts it
                allocation = Allocation._from_vector(self.SCENARIO, x)
                assert allocation.total == sum(allocation.local.values()) + sum(
                    allocation.central.values()
                )
                continue
            with pytest.raises(AllocationError) as error:
                Allocation._from_vector(self.SCENARIO, x)
            assert str(error.value) == f"entry {keys[k]!r} must be positive, got {value}"

    def test_first_of_several_bad_entries_is_named(self):
        keys = entry_keys(self.SCENARIO)
        x = np.full(self.SCENARIO.n_entries, 1.0)
        x[[3, 7, 10]] = [1e-13, math.nan, -math.inf]
        with pytest.raises(AllocationError, match=re.escape(repr(keys[3]))):
            unflatten(self.SCENARIO, x)
        with pytest.raises(AllocationError, match=re.escape(repr(keys[7]))):
            Allocation._from_vector(self.SCENARIO, x)

    def test_total_is_the_sum_of_the_dict_values(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            scenario = random_scenario(rng, max_locations=40)
            x = rng.uniform(1e-3, 1e3, scenario.n_entries)
            for allocation in (unflatten(scenario, x), Allocation._from_vector(scenario, x)):
                total = sum(allocation.local.values()) + sum(allocation.central.values())
                assert allocation.total == total
                rebuilt = Allocation(local=dict(allocation.local), central=dict(allocation.central))
                assert rebuilt.total == total


class TestColumnKernels:
    """The (L, K) local block is read and written one column at a time. The
    references are the row-wise forms: numpy's row sum, np.repeat and an (L, 1)
    broadcast. Only a sum can move, and only where numpy's row sum switches to
    pairwise order, at K >= 8."""

    @staticmethod
    def _shapes():
        """(L, K, C): the edge shapes, then random ones up to K = 12."""
        yield from [(1, 0, 1), (1, 1, 0), (1, 1, 1), (6, 0, 2), (6, 1, 0), (1, 9, 0), (3, 8, 2)]
        rng = np.random.default_rng(31)
        for _ in range(120):
            k, c = int(rng.integers(0, 13)), int(rng.integers(0, 3))
            yield int(rng.integers(1, 301)), k, c or int(k == 0)

    @staticmethod
    def _scenario(rng, n_loc, k, c):
        def named(prefix, values):
            return tuple((f"{prefix}{i}", float(v)) for i, v in enumerate(values))

        return Scenario(
            locations=named("l", rng.uniform(0.1, 60.0, n_loc)),
            local_resources=named("r", rng.uniform(0.05, 10.0, k)),
            central_resources=named("c", rng.uniform(0.05, 10.0, c)),
            budget=float(10.0 ** rng.uniform(-3.0, 4.0)),
        )

    def test_kernels_match_the_row_wise_forms(self):
        rng = np.random.default_rng(29)
        for n_loc, k, c in self._shapes():
            scenario = self._scenario(rng, n_loc, k, c)
            n_local, beta = n_loc * k, scenario._beta
            per_entry = rng.uniform(-5.0, 5.0, scenario.n_entries)  # mixed signs, as beta * ln x
            rows = per_entry[:n_local].reshape(n_loc, k)
            expected = rows.sum(axis=1) + per_entry[n_local:].sum()
            sums = _location_sums(scenario, per_entry)
            if k < 8:
                assert sums.tobytes() == expected.tobytes(), (n_loc, k, c)
            else:
                scale = np.abs(rows).sum(axis=1) + np.abs(per_entry[n_local:]).sum()
                assert (np.abs(sums - expected) <= 1e-15 * scale).all(), (n_loc, k, c)

            p = rng.uniform(0.0, 1.0, n_loc)
            expected = beta * np.concatenate([np.repeat(p, k), np.full(c, p.sum())])
            assert _transposed(scenario, p).tobytes() == expected.tobytes(), (n_loc, k, c)

            scaled = scenario._alpha / (1.0 + scenario._local_beta_total)
            shares = np.exp(scaled - scaled.max())
            shares /= shares.sum()
            expected = beta * scenario.budget / scenario._beta_total
            expected[:n_local] *= np.repeat(shares, k)
            x = flatten(scenario, solve_closed_form(scenario).allocation)
            assert x.tobytes() == expected.tobytes(), (n_loc, k, c)

            if k and c:
                gamma = 0.3
                local = (1.0 - gamma) * scenario.budget / k
                local = local * (scenario._alpha / scenario._alpha_total)
                expected = np.full(scenario.n_entries, gamma * scenario.budget / c)
                expected[:n_local].reshape(n_loc, k)[:] = np.reshape(local, (-1, 1))
                x = flatten(scenario, celp_rule(scenario, gamma))
                assert x.tobytes() == expected.tobytes(), (n_loc, k, c)
                expected[:n_local] = (1.0 - gamma) * scenario.budget / n_local
                assert flatten(scenario, cle_rule(scenario, gamma)).tobytes() == expected.tobytes()

    def test_total_is_lazy_and_keeps_its_eager_value(self):
        rng = np.random.default_rng(37)
        for n_loc, k, c in self._shapes():
            scenario = self._scenario(rng, n_loc, k, c)
            x = rng.uniform(1e-3, 1e3, scenario.n_entries)
            allocation = Allocation._from_vector(scenario, x)
            assert "total" not in allocation.__dict__
            n_local = scenario._n_local
            eager = float(np.cumsum(x[:n_local])[-1:].sum() + np.cumsum(x[n_local:])[-1:].sum())
            assert allocation.total == eager
            x[-1] = math.nan
            with pytest.raises(AllocationError, match="must be positive, got nan"):
                Allocation._from_vector(scenario, x)

    def test_total_keeps_the_order_the_allocation_was_built_in(self):
        # 1e16 + 1 + 1 rounds to 1e16; 1 + 1 + 1e16 does not.
        built = Scenario(locations=(("a", 1.0), ("b", 1.0), ("c", 1.0)),
                         local_resources=(("r", 1.0),), central_resources=(), budget=2e16)
        reversed_ = dataclasses.replace(built, locations=built.locations[::-1])
        allocation = Allocation._from_vector(built, np.array([1e16, 1.0, 1.0]))
        evaluate(reversed_, allocation)
        assert flatten(reversed_, allocation).tolist() == [1.0, 1.0, 1e16]
        assert allocation.total == 1e16


class TestCertificateState:
    """An allocation keeps the certificate of its last scenario, and only that one."""

    def test_evaluate_of_a_solver_allocation_equals_that_of_a_copy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            scenario = random_scenario(rng, max_locations=60)
            allocation = solve_closed_form(scenario).allocation
            copy = unflatten(scenario, flatten(scenario, allocation))
            assert evaluate(scenario, allocation) == evaluate(scenario, copy)
            assert evaluate(scenario, allocation) == solve_closed_form(scenario).evaluation

    def test_rebinding_to_another_scenario_recomputes_it(self, paris):
        optimum = solve_closed_form(paris).allocation
        moved = dataclasses.replace(paris, locations=(("louvre", 3.0), ("eiffel", 7.0)))

        def fresh():
            return Allocation(local=dict(optimum.local), central=dict(optimum.central))

        for allocation in (fresh(), solve_closed_form(paris).allocation):
            first = (kkt_residual(paris, allocation), evaluate(paris, allocation))
            second = (kkt_residual(moved, allocation), evaluate(moved, allocation))
            assert second == (kkt_residual(moved, fresh()), evaluate(moved, fresh()))
            assert second[0] > 1e-3 and second[1] != first[1]
            # Back on the first scenario, its own values come back.
            assert (kkt_residual(paris, allocation), evaluate(paris, allocation)) == first

    def test_rebinding_drops_the_kept_certificate(self, paris):
        allocation = solve_closed_form(paris).allocation
        assert "_log_state" in allocation.__dict__
        evaluate(dataclasses.replace(paris, budget=paris.budget * 2), allocation)
        assert "_log_state" not in allocation.__dict__


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
        v = _log_gradient(paris, flatten(paris, paris_plan))[0]
        assert list(utilities.values()) == v.tolist()


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
