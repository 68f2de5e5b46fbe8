import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from choicealloc import (
    Scenario,
    best_gamma,
    celp_rule,
    cle_rule,
    evaluate,
    flatten,
    kkt_residual,
    paris_scenario,
    solve_closed_form,
)
from choicealloc.allocator import DEFAULT_GAMMA_GRID
from helpers import example_two, random_scenario


@pytest.fixture
def paris():
    return paris_scenario()


def _grid_search(scenario, rule, grid):
    """best_gamma as one evaluate per grid point, smallest gamma on ties."""
    apply_rule = cle_rule if rule == "cle" else celp_rule
    best = None
    for gamma in (float(g) for g in grid):
        evaluation = evaluate(scenario, apply_rule(scenario, gamma))
        if (
            best is None
            or evaluation.surrogate < best[1].surrogate
            or (evaluation.surrogate == best[1].surrogate and gamma < best[0])
        ):
            best = (gamma, evaluation)
    return best


def _outcome(search, scenario, rule, grid):
    try:
        return search(scenario, rule, grid)
    except ValueError as exc:
        return str(exc)


class TestClosedForm:
    def test_city_allocation(self, paris):
        report = solve_closed_form(paris)
        a = report.allocation
        assert a.central["campaign"] == pytest.approx(5.0, rel=1e-12)
        assert a.local[("louvre", "cameras")] == pytest.approx(9.0, rel=1e-12)
        assert a.local[("eiffel", "cameras")] == pytest.approx(6.0, rel=1e-12)
        assert a.local[("louvre", "billboards")] == pytest.approx(6.0, rel=1e-12)
        assert a.local[("eiffel", "billboards")] == pytest.approx(4.0, rel=1e-12)
        assert report.evaluation.overall == pytest.approx(1 / 109, rel=1e-12)

    def test_city_certificate(self, paris):
        report = solve_closed_form(paris)
        assert report.multiplier == pytest.approx(float(Fraction(-1, 540)), rel=1e-12)
        assert kkt_residual(paris, report.allocation) <= 1e-8
        assert report.allocation.total == pytest.approx(paris.budget, rel=1e-12)

    def test_multiplier_matches_an_fsum_reference(self):
        # ln(-multiplier) against ln lambda with ln sum_i exp(scaled alpha_i)
        # summed by math.fsum. On these draws the closed form's max + ln(sum)
        # stays within 3.7e-16 * (1 + |ln lambda|) (2.3e-13 absolute), while
        # np.logaddexp.reduce drifts to 3.1e-15 * (1 + |ln lambda|) (1.7e-12).
        # The bound sits between the two, with room for another summation order.
        rng = np.random.default_rng(2022)
        compared = 0
        for _ in range(200):
            scenario = random_scenario(rng, max_locations=1500, alpha_range=(0.0, 700.0),
                                       beta_range=(0.05, 10.0), budget_range=(1e-3, 1e4))
            local = [b for _, b in scenario.local_resources]
            betas = local + [b for _, b in scenario.central_resources]
            beta_sum, local_sum = math.fsum(betas), math.fsum(local)
            scaled = np.array([a for _, a in scenario.locations]) / (1.0 + local_sum)
            top = float(scaled.max())
            log_weight_sum = top + math.log(math.fsum(np.exp(scaled - top).tolist()))
            ln_lam = math.fsum([
                (1.0 + local_sum) * log_weight_sum,
                (1.0 + beta_sum) * (math.log(beta_sum) - math.log(scenario.budget)),
                -math.fsum(b * math.log(b) for b in betas),
            ])
            multiplier = solve_closed_form(scenario).multiplier
            if ln_lam > 709.0:  # saturated, as the surrogate is
                assert multiplier == -math.inf
                continue
            assert abs(math.log(-multiplier) - ln_lam) <= 2e-15 * (1.0 + abs(ln_lam))
            compared += 1
        assert compared >= 150

    def test_example_two_split(self):
        report = solve_closed_form(example_two())
        assert report.allocation.local[("1", "3")] == pytest.approx(1.5, rel=1e-12)
        assert report.allocation.local[("2", "3")] == pytest.approx(1.5, rel=1e-12)
        # Multiplier by rational arithmetic: -(2^5 * 4^5) / (3^5 * 4^4) = -128/243.
        assert report.multiplier == pytest.approx(float(Fraction(-128, 243)), rel=1e-12)

    def test_identical_locations_split_evenly(self):
        scenario = Scenario(
            locations=(("a", 1.7), ("b", 1.7)),
            local_resources=(("r", 2.0),),
            central_resources=(),
            budget=7.0,
        )
        a = solve_closed_form(scenario).allocation
        assert a.local[("a", "r")] == pytest.approx(3.5, rel=1e-12)
        assert a.local[("b", "r")] == pytest.approx(3.5, rel=1e-12)

    def test_without_local_resources(self):
        scenario = Scenario(
            locations=(("a", 2.0), ("b", 1.0)),
            local_resources=(),
            central_resources=(("c1", 3.0), ("c2", 1.0)),
            budget=8.0,
        )
        report = solve_closed_form(scenario)
        assert report.allocation.local == {}
        assert report.allocation.central["c1"] == pytest.approx(6.0, rel=1e-12)
        assert report.allocation.central["c2"] == pytest.approx(2.0, rel=1e-12)
        assert kkt_residual(scenario, report.allocation) <= 1e-8

    def test_without_central_resources(self):
        scenario = example_two()
        report = solve_closed_form(scenario)
        assert report.allocation.central == {}
        assert report.allocation.total == pytest.approx(3.0, rel=1e-12)
        assert kkt_residual(scenario, report.allocation) <= 1e-8

    def test_an_entry_below_the_double_range_is_a_numerical_failure(self):
        # Location a's share, about e^-740, is a double; a's entry, that share
        # times 5e-4, is not, and must not reach the allocation's positivity check.
        scenario = Scenario(
            locations=(("a", 0.0), ("b", 1480.0)),
            local_resources=(("r", 1.0),),
            central_resources=(("c", 1.0),),
            budget=1e-3,
        )
        with pytest.raises(FloatingPointError, match=r"location 'a' underflow .*ln share -740\)"):
            solve_closed_form(scenario)

    def test_shift_invariance(self, paris):
        base = flatten(paris, solve_closed_form(paris).allocation)
        shifted_scenario = dataclasses.replace(
            paris, locations=tuple((loc, a + 3.7) for loc, a in paris.locations)
        )
        shifted = flatten(shifted_scenario, solve_closed_form(shifted_scenario).allocation)
        assert shifted == pytest.approx(base, rel=1e-12)
        assert solve_closed_form(shifted_scenario).evaluation.overall > solve_closed_form(
            paris
        ).evaluation.overall

    def test_local_shares_proportional_to_beta(self, paris):
        a = solve_closed_form(paris).allocation
        ratio = 3.0 / 2.0  # cameras beta over billboards beta
        for loc in ("louvre", "eiffel"):
            assert a.local[(loc, "cameras")] / a.local[(loc, "billboards")] == pytest.approx(
                ratio, rel=1e-12
            )


class TestHeuristicRules:
    def test_cle_city(self, paris):
        a = cle_rule(paris, 0.25)
        assert a.central["campaign"] == pytest.approx(7.5, rel=1e-12)
        for key in a.local:
            assert a.local[key] == pytest.approx(5.625, rel=1e-12)

    def test_cle_arithmetic(self):
        scenario = Scenario(
            locations=(("a", 1.0), ("b", 2.0)),
            local_resources=(("l", 1.0),),
            central_resources=(("c", 1.0),),
            budget=4.0,
        )
        a = cle_rule(scenario, 0.5)
        assert a.central["c"] == pytest.approx(2.0)
        assert a.local[("a", "l")] == pytest.approx(1.0)
        assert a.local[("b", "l")] == pytest.approx(1.0)

    def test_celp_city(self, paris):
        a = celp_rule(paris, 0.25)
        share = math.log(3.0) / math.log(6.0)  # alpha1 / (alpha1 + alpha2)
        assert a.central["campaign"] == pytest.approx(7.5, rel=1e-12)
        assert a.local[("louvre", "cameras")] == pytest.approx(11.25 * share, rel=1e-12)
        assert a.local[("louvre", "cameras")] == pytest.approx(6.898, abs=5e-4)
        assert a.local[("eiffel", "cameras")] == pytest.approx(4.352, abs=5e-4)
        assert a.local[("louvre", "billboards")] == a.local[("louvre", "cameras")]

    def test_celp_equal_alphas_matches_cle(self):
        scenario = Scenario(
            locations=(("a", 2.0), ("b", 2.0)),
            local_resources=(("l", 1.5),),
            central_resources=(("c", 1.0),),
            budget=10.0,
        )
        assert celp_rule(scenario, 0.4) == cle_rule(scenario, 0.4)

    def test_rules_need_both_groups(self):
        no_central = example_two()
        with pytest.raises(ValueError, match="central"):
            cle_rule(no_central, 0.5)
        with pytest.raises(ValueError, match="central"):
            celp_rule(no_central, 0.5)
        no_local = Scenario(
            locations=(("a", 1.0),),
            local_resources=(),
            central_resources=(("c", 1.0),),
            budget=2.0,
        )
        with pytest.raises(ValueError, match="local"):
            cle_rule(no_local, 0.5)

    def test_celp_rejects_zero_alpha(self):
        all_zero = Scenario(
            locations=(("a", 0.0), ("b", 0.0)),
            local_resources=(("l", 1.0),),
            central_resources=(("c", 1.0),),
            budget=2.0,
        )
        with pytest.raises(ValueError, match="zero attractiveness"):
            celp_rule(all_zero, 0.5)
        one_zero = Scenario(
            locations=(("a", 0.0), ("b", 1.0)),
            local_resources=(("l", 1.0),),
            central_resources=(("c", 1.0),),
            budget=2.0,
        )
        with pytest.raises(ValueError, match="nothing"):
            celp_rule(one_zero, 0.5)

    def test_celp_errors_repeat_on_the_same_scenario(self):
        # The alpha total is cached on the scenario; a second call still checks.
        all_zero = Scenario(
            locations=(("a", 0.0), ("b", 0.0), ("c", 0.0)),
            local_resources=(("l", 1.0),),
            central_resources=(("c0", 1.0),),
            budget=2.0,
        )
        one_zero = dataclasses.replace(all_zero, locations=(("a", 2.0), ("b", 0.0), ("c", 1.0)))
        for _ in range(2):
            with pytest.raises(ValueError) as error:
                celp_rule(all_zero, 0.5)
            assert str(error.value) == (
                "CELP is undefined when every location has zero attractiveness"
            )
            with pytest.raises(ValueError) as error:
                celp_rule(one_zero, 0.5)
            assert str(error.value) == "CELP would allocate nothing to location 'b' (alpha = 0.0)"
        positive = dataclasses.replace(all_zero, locations=(("a", 2.0), ("b", 0.5), ("c", 1.0)))
        assert celp_rule(positive, 0.3) == celp_rule(positive, 0.3)
        per_resource = (1.0 - 0.3) * 2.0
        assert flatten(positive, celp_rule(positive, 0.3)).tolist() == [
            *(per_resource * (a / 3.5) for a in (2.0, 0.5, 1.0)), 0.3 * 2.0
        ]

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.3])
    def test_gamma_bounds(self, paris, gamma):
        with pytest.raises(ValueError, match="gamma"):
            cle_rule(paris, gamma)
        with pytest.raises(ValueError, match="gamma"):
            celp_rule(paris, gamma)

    def test_rules_spend_full_budget(self, paris):
        for gamma in (0.01, 0.37, 0.99):
            assert cle_rule(paris, gamma).total == pytest.approx(30.0, rel=1e-12)
            assert celp_rule(paris, gamma).total == pytest.approx(30.0, rel=1e-12)


class TestBestGamma:
    def test_city_best_is_grid_point_nearest_beta_share(self, paris):
        # The gamma-dependence of both rules peaks at beta_central / beta_sum = 1/6.
        gamma_cle, _ = best_gamma(paris, "cle")
        gamma_celp, _ = best_gamma(paris, "celp")
        assert gamma_cle == 0.17
        assert gamma_celp == 0.17

    @pytest.mark.parametrize("budget", [0.01, 30.0, 1e4])
    def test_best_gamma_is_budget_invariant(self, paris, budget):
        # B(gamma) scales uniformly with the budget, so the argmin cannot move;
        # at budget 0.01 B is near 1e19 and the overall probability reads 1.0.
        scenario = dataclasses.replace(paris, budget=budget)
        for rule in ("cle", "celp"):
            gamma, _ = best_gamma(scenario, rule)
            assert gamma == 0.17

    def test_symmetric_variant_value(self, paris):
        scenario = dataclasses.replace(
            paris, locations=(("louvre", 5.0), ("eiffel", 5.0))
        )
        for rule in ("cle", "celp"):
            _, evaluation = best_gamma(scenario, rule)
            assert 100.0 * evaluation.overall == pytest.approx(0.618638942, rel=1e-3)

    def test_single_point_grid(self, paris):
        gamma, evaluation = best_gamma(paris, "cle", grid=(0.5,))
        assert gamma == 0.5
        assert evaluation.overall == evaluate(paris, cle_rule(paris, 0.5)).overall

    def test_grid_order_does_not_matter(self, paris):
        forward = best_gamma(paris, "cle", grid=(0.1, 0.5, 0.9))
        shuffled = best_gamma(paris, "cle", grid=(0.9, 0.1, 0.5))
        assert forward == shuffled
        assert forward[0] == 0.1

    def test_rejects_bad_inputs(self, paris):
        with pytest.raises(ValueError, match="unknown rule"):
            best_gamma(paris, "equal")
        with pytest.raises(ValueError, match="nonempty"):
            best_gamma(paris, "cle", grid=())
        with pytest.raises(ValueError, match="gamma"):
            best_gamma(paris, "cle", grid=(0.5, 1.5))

    @pytest.mark.parametrize(
        "grid",
        [DEFAULT_GAMMA_GRID, (0.5, 0.3, 0.7, 0.3), (0.42,), np.linspace(0.001, 0.999, 301)],
        ids=["default", "unsorted", "single", "fine"],
    )
    def test_agrees_with_evaluating_every_grid_point(self, grid):
        # Wide ranges; draws without both resource groups must fail the same way.
        rng = np.random.default_rng(7)
        for _ in range(30):
            scenario = random_scenario(
                rng,
                max_locations=8,
                alpha_range=(0.0, 60.0),
                beta_range=(0.05, 10.0),
                budget_range=(1e-3, 1e4),
            )
            for rule in ("cle", "celp"):
                expected = _outcome(_grid_search, scenario, rule, grid)
                assert _outcome(best_gamma, scenario, rule, grid) == expected

    def test_exact_tie_goes_to_smaller_gamma(self):
        scenario = Scenario(
            locations=(("a", 1.0),),
            local_resources=(("l", 1.0),),
            central_resources=(("c", 1.0),),
            budget=1.0,
        )
        for rule in ("cle", "celp"):
            assert best_gamma(scenario, rule, grid=(0.6, 0.4))[0] == 0.4

    def test_saturated_surrogate_still_finds_the_beta_share(self):
        # B overflows to inf at every grid point, so comparing evaluations
        # would tie everywhere; the score is least at sum(central beta) /
        # sum(beta) = 0.4, where every utility is lower than at gamma = 0.01.
        scenario = Scenario(
            locations=(("a", 60.0), ("b", 1.0)),
            local_resources=tuple((f"l{j}", 10.0) for j in range(3)),
            central_resources=tuple((f"c{j}", 10.0) for j in range(2)),
            budget=1e-5,
        )
        for rule, apply_rule in (("cle", cle_rule), ("celp", celp_rule)):
            gamma, evaluation = best_gamma(scenario, rule)
            assert gamma == 0.4
            assert math.isinf(evaluation.surrogate)
            smallest = evaluate(scenario, apply_rule(scenario, 0.01))
            for loc, utility in evaluation.utilities.items():
                assert utility < smallest.utilities[loc]
