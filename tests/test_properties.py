"""Randomised invariant checks over seeded scenario batches.

Each property runs on 100 independently drawn instances; seeds are fixed so
failures reproduce exactly.
"""

import math

import numpy as np
import pytest

from choicealloc import evaluate, flatten, unflatten
from choicealloc.model import _log_gradient
from helpers import random_allocation, random_scenario

CASES = 100


def test_probabilities_lie_on_the_simplex():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        scenario = random_scenario(rng)
        evaluation = evaluate(scenario, random_allocation(rng, scenario))
        total = sum(evaluation.per_location.values()) + evaluation.opt_out
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 < p < 1.0 for p in evaluation.per_location.values())


def test_overall_probability_routes_agree():
    # Logit route (normalised exp-utilities) versus the product-form surrogate.
    rng = np.random.default_rng(202)
    for _ in range(CASES):
        scenario = random_scenario(rng)
        evaluation = evaluate(scenario, random_allocation(rng, scenario))
        exp_sum = math.fsum(math.exp(v) for v in evaluation.utilities.values())
        logit_overall = exp_sum / (1.0 + exp_sum)
        surrogate_overall = evaluation.surrogate / (1.0 + evaluation.surrogate)
        assert evaluation.overall == pytest.approx(surrogate_overall, rel=1e-12)
        assert logit_overall == pytest.approx(surrogate_overall, rel=1e-12)


def test_surrogate_is_homogeneous_in_the_allocation():
    rng = np.random.default_rng(303)
    for _ in range(CASES):
        scenario = random_scenario(rng)
        allocation = random_allocation(rng, scenario, fill=0.4)
        beta_sum = math.fsum(
            b for _, b in scenario.local_resources + scenario.central_resources
        )
        base = evaluate(scenario, allocation).surrogate
        t = float(rng.uniform(0.5, 2.0))
        scaled = unflatten(scenario, t * flatten(scenario, allocation))
        assert evaluate(scenario, scaled).surrogate == pytest.approx(
            t ** (-beta_sum) * base, rel=1e-10
        )


def test_overall_probability_is_monotone_in_the_surrogate():
    rng = np.random.default_rng(404)
    for _ in range(CASES):
        scenario = random_scenario(rng)
        first = evaluate(scenario, random_allocation(rng, scenario))
        second = evaluate(scenario, random_allocation(rng, scenario))
        b_order = first.surrogate - second.surrogate
        p_order = first.overall - second.overall
        if abs(b_order) < 1e-12 * max(first.surrogate, second.surrogate):
            continue  # a tie below float resolution has no testable order
        assert b_order * p_order > 0.0


def test_spending_more_anywhere_strictly_helps():
    # Raising any single entry of a partially spent budget lowers B and P.
    rng = np.random.default_rng(505)
    for _ in range(CASES):
        scenario = random_scenario(rng)
        allocation = random_allocation(rng, scenario, fill=0.9)
        x = flatten(scenario, allocation)
        index = int(rng.integers(0, x.size))
        bumped = x.copy()
        bumped[index] += 0.05 * scenario.budget
        augmented = unflatten(scenario, bumped)
        before, after = evaluate(scenario, allocation), evaluate(scenario, augmented)
        assert after.surrogate < before.surrogate
        assert after.overall < before.overall


def test_gradient_matches_central_finite_differences():
    # dB/dx = -B * r, so d(ln B)/dx = -r. Tighter instance ranges keep the
    # surrogate terms comparable, which the difference quotient needs; the
    # analytic gradient itself has no such limit.
    rng = np.random.default_rng(606)
    for _ in range(CASES):
        scenario = random_scenario(rng, alpha_range=(0.0, 3.0))
        allocation = random_allocation(rng, scenario, weight_range=(0.7, 1.0))
        x = flatten(scenario, allocation)
        r = _log_gradient(scenario, x)[2]
        for index in range(x.size):
            step = 1e-6 * x[index]
            up, down = x.copy(), x.copy()
            up[index] += step
            down[index] -= step
            ln_b_up, ln_b_down = _log_gradient(scenario, up)[1], _log_gradient(scenario, down)[1]
            assert -r[index] == pytest.approx((ln_b_up - ln_b_down) / (2.0 * step), rel=1e-5)
