"""Acceptance checklist: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints one
PASS/FAIL line per criterion.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from choicealloc import (
    Allocation,
    DEFAULT_GAMMA_GRID,
    attractiveness_scaling_table,
    attractiveness_sweep,
    budget_for_target,
    evaluate,
    flatten,
    kkt_residual,
    paris_scenario,
    rule_comparison_table,
    sample_choices,
    solve_closed_form,
    solve_numerical,
)
from helpers import example_two, random_scenario
import test_properties

OPTIMAL_COLUMNS = (
    "x[campaign]",
    "x[louvre/cameras]",
    "x[eiffel/cameras]",
    "x[louvre/billboards]",
    "x[eiffel/billboards]",
)


def best_call_time(fn, repeats=20):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_c01_equal_and_unequal_split_probabilities_exact():
    scenario = example_two()
    even = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    uneven = Allocation(local={("1", "3"): 2.0, ("2", "3"): 1.0}, central={})

    e = evaluate(scenario, even)
    for value, expected in [
        (e.per_location["1"], 1 / 3),
        (e.per_location["2"], 1 / 3),
        (e.opt_out, 1 / 3),
    ]:
        assert value == pytest.approx(expected, abs=1e-12)

    e = evaluate(scenario, uneven)
    for value, expected in [
        (e.per_location["1"], 1 / 33),
        (e.per_location["2"], 16 / 33),
        (e.opt_out, 16 / 33),
    ]:
        assert value == pytest.approx(expected, abs=1e-12)

    assert best_call_time(lambda: evaluate(scenario, even)) < 1e-3


def test_c02_fixed_plan_probability_fractions():
    paris = paris_scenario()
    plan = Allocation(
        local={
            ("louvre", "cameras"): 3.0,
            ("eiffel", "cameras"): 2.0,
            ("louvre", "billboards"): 6.0,
            ("eiffel", "billboards"): 4.0,
        },
        central={"campaign": 15.0},
    )
    plan_b = Allocation(
        local={
            ("louvre", "cameras"): 3.0,
            ("eiffel", "cameras"): 2.0,
            ("louvre", "billboards"): 9.0,
            ("eiffel", "billboards"): 6.0,
        },
        central={"campaign": 10.0},
    )
    assert evaluate(paris, plan).overall == pytest.approx(1 / 13, rel=1e-12)
    assert evaluate(paris, plan_b).overall == pytest.approx(1 / 19, rel=1e-12)


def test_c03_closed_form_optimum_on_the_city_scenario():
    paris = paris_scenario()
    report = solve_closed_form(paris)
    a = report.allocation
    values = (
        a.central["campaign"],
        a.local[("louvre", "cameras")],
        a.local[("eiffel", "cameras")],
        a.local[("louvre", "billboards")],
        a.local[("eiffel", "billboards")],
    )
    for value, expected in zip(values, (5.0, 9.0, 6.0, 6.0, 4.0)):
        assert value == pytest.approx(expected, rel=1e-12)
    assert report.evaluation.overall == pytest.approx(1 / 109, rel=1e-12)
    assert 100.0 * report.evaluation.overall == pytest.approx(0.92, abs=0.005)


def test_c04_heuristic_rule_percentages():
    table = rule_comparison_table()
    expected = {
        "CLE(0.25)": (1.69, 0.15, 1.84),
        "CLE(0.5)": (6.12, 0.54, 6.65),
        "CLE(0.75)": (55.46, 4.87, 60.33),
        "CELP(0.25)": (0.62, 0.54, 1.16),
        "CELP(0.5)": (2.26, 1.99, 4.25),
        "CELP(0.75)": (25.90, 22.74, 48.64),
    }
    for label, (p1, p2, overall) in expected.items():
        row = table.row(label)
        assert row["P[louvre]%"] == pytest.approx(p1, abs=0.01)
        assert row["P[eiffel]%"] == pytest.approx(p2, abs=0.01)
        assert row["overall%"] == pytest.approx(overall, abs=0.01)


def test_c05_attractiveness_sweep_reference_points():
    assert DEFAULT_GAMMA_GRID == tuple(g / 100 for g in range(1, 100))
    pairs = tuple((a1, 10.0 - a1) for a1 in (1.0 + 0.5 * i for i in range(17)))
    start = time.perf_counter()
    table = attractiveness_sweep(pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    expected = {
        "1.0": (1.917129824, 14.52925656, 15.76383679),
        "3.0": (0.774803214, 2.288337607, 0.960005599),
        "5.0": (0.559720147, 0.618638942, 0.618638942),
        "7.0": (0.774803214, 2.288337607, 0.960005599),
        "9.0": (1.917129824, 14.52925656, 15.76383679),
    }
    for label, (optimal, cle, celp) in expected.items():
        row = table.row(label)
        assert row["optimal%"] == pytest.approx(optimal, rel=1e-3)
        assert row["cle%"] == pytest.approx(cle, rel=1e-3)
        assert row["celp%"] == pytest.approx(celp, rel=1e-3)


def test_c06_uniform_scaling_rows():
    table = attractiveness_scaling_table((1.0, 1.1, 1.2, 1.3))
    expected = {
        "1.0": ((5.000, 9.000, 6.000, 6.000, 4.000), 0.92),
        # Last entry 3.903 (not 3.093): the digits follow from the optimality
        # formula, and the row must sum to the budget of 30.
        "1.1": ((5.000, 9.145, 5.855, 6.097, 3.903), 1.60),
        "1.2": ((5.000, 9.289, 5.711, 6.193, 3.807), 2.78),
        "1.3": ((5.000, 9.432, 5.568, 6.288, 3.712), 4.81),
    }
    for label, (allocation, overall) in expected.items():
        row = table.row(label)
        for column, value in zip(OPTIMAL_COLUMNS, allocation):
            assert row[column] == pytest.approx(value, abs=1e-3)
        assert row["overall%"] == pytest.approx(overall, abs=0.005)


def test_c07_budget_needed_to_hold_the_target():
    expected = {1.0: 30.0, 1.1: 32.95, 1.2: 36.2, 1.3: 39.8, 1.4: 43.75}
    target = 0.0092
    for scale, budget in expected.items():
        scenario = paris_scenario(scale)
        required = budget_for_target(scenario, target)
        assert required == pytest.approx(budget, rel=5e-3)
        achieved = solve_closed_form(
            dataclasses.replace(scenario, budget=required)
        ).evaluation.overall
        assert achieved == pytest.approx(target, abs=1e-9)


def test_c08_numerical_oracle_agrees_with_the_closed_form():
    rng = np.random.default_rng(2718281828)
    start = time.perf_counter()
    for _ in range(20):
        scenario = random_scenario(rng)
        closed = solve_closed_form(scenario)
        numerical = solve_numerical(scenario)
        x_closed = flatten(scenario, closed.allocation)
        x_numerical = flatten(scenario, numerical.allocation)
        assert np.max(np.abs(x_numerical - x_closed) / x_closed) <= 1e-6
        b_closed = closed.evaluation.surrogate
        b_numerical = numerical.evaluation.surrogate
        assert abs(b_numerical - b_closed) / b_closed <= 1e-9
        assert kkt_residual(scenario, closed.allocation) <= 1e-8
    assert time.perf_counter() - start < 30.0


def test_c08_oracle_agrees_on_wide_parameter_ranges():
    # Utilities far from 0, sensitivities over two decades and budgets over
    # seven: the optimal B ranges from about 1e-80 to 1e20.
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(60):
        scenario = random_scenario(
            rng,
            max_locations=8,
            alpha_range=(0.0, 60.0),
            beta_range=(0.05, 10.0),
            budget_range=(1e-3, 1e4),
        )
        closed = solve_closed_form(scenario)
        numerical = solve_numerical(scenario)
        x_closed = flatten(scenario, closed.allocation)
        x_numerical = flatten(scenario, numerical.allocation)
        assert np.max(np.abs(x_numerical - x_closed) / x_closed) <= 1e-6
        b_closed = closed.evaluation.surrogate
        b_numerical = numerical.evaluation.surrogate
        assert abs(b_numerical - b_closed) / b_closed <= 1e-9
        assert kkt_residual(scenario, closed.allocation) <= 1e-8
    assert time.perf_counter() - start < 30.0


def test_c09_randomised_invariant_suite():
    test_properties.test_probabilities_lie_on_the_simplex()
    test_properties.test_overall_probability_routes_agree()
    test_properties.test_surrogate_is_homogeneous_in_the_allocation()
    test_properties.test_spending_more_anywhere_strictly_helps()
    test_properties.test_gradient_matches_central_finite_differences()


def test_c10_monte_carlo_matches_analytic_probabilities():
    draws = 1_000_000
    start = time.perf_counter()

    scenario = example_two()
    allocation = Allocation(local={("1", "3"): 1.0, ("2", "3"): 1.0}, central={})
    sample = sample_choices(scenario, allocation, draws=draws, seed=42)
    evaluation = evaluate(scenario, allocation)
    analytic = {**evaluation.per_location, "OPT_OUT": evaluation.opt_out}
    for label, p in analytic.items():
        se3 = 3.0 * math.sqrt(p * (1.0 - p) / draws)
        assert sample.counts[label] / draws == pytest.approx(p, abs=se3)

    paris = paris_scenario()
    optimum = solve_closed_form(paris).allocation
    sample = sample_choices(paris, optimum, draws=draws, seed=2024)
    evaluation = evaluate(paris, optimum)
    analytic = {**evaluation.per_location, "OPT_OUT": evaluation.opt_out}
    for label, p in analytic.items():
        se3 = 3.0 * math.sqrt(p * (1.0 - p) / draws)
        assert sample.counts[label] / draws == pytest.approx(p, abs=se3)

    assert time.perf_counter() - start < 5.0
