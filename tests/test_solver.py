import tracemalloc

import numpy as np
import pytest

from choicealloc import (
    Allocation,
    AllocationError,
    ConvergenceError,
    OracleConfig,
    Scenario,
    cle_rule,
    flatten,
    kkt_residual,
    paris_scenario,
    solve_closed_form,
    solve_numerical,
    surrogate_B,
    unflatten,
)
from helpers import example_two, random_scenario, saturated_scenario


@pytest.fixture
def paris():
    return paris_scenario()


class TestNumericalSolve:
    def test_example_two(self):
        scenario = example_two()
        report = solve_numerical(scenario)
        assert report.allocation.local[("1", "3")] == pytest.approx(1.5, rel=1e-6)
        assert report.allocation.local[("2", "3")] == pytest.approx(1.5, rel=1e-6)

    def test_city(self, paris):
        report = solve_numerical(paris)
        x = flatten(paris, report.allocation)
        expected = flatten(paris, solve_closed_form(paris).allocation)
        assert np.max(np.abs(x - expected) / expected) < 1e-6

    def test_result_is_feasible_and_certified(self, paris):
        config = OracleConfig()
        report = solve_numerical(paris, config)
        x = flatten(paris, report.allocation)
        assert np.all(x > 0)
        assert x.sum() == pytest.approx(paris.budget, rel=1e-10)
        assert report.multiplier < 0
        spread = report.stationarity_residual / abs(report.multiplier)
        assert spread <= 2 * config.stationarity_tolerance

    def test_descends_from_uniform_start(self, paris):
        uniform = unflatten(paris, np.full(paris.n_entries, paris.budget / paris.n_entries))
        report = solve_numerical(paris)
        assert report.evaluation.surrogate <= surrogate_B(paris, uniform)

    def test_custom_initial_point(self, paris):
        start = cle_rule(paris, 0.5)
        report = solve_numerical(paris, OracleConfig(initial_point=start))
        x = flatten(paris, report.allocation)
        expected = flatten(paris, solve_closed_form(paris).allocation)
        assert np.max(np.abs(x - expected) / expected) < 1e-6

    def test_nonconvergence_reports_last_iterate(self, paris):
        config = OracleConfig(max_iterations=2, stationarity_tolerance=1e-30)
        with pytest.raises(ConvergenceError) as exc_info:
            solve_numerical(paris, config)
        error = exc_info.value
        assert isinstance(error.allocation, Allocation)
        assert error.residual > 1e-30
        assert error.iterations >= 1

    def test_agrees_with_closed_form_on_random_instances(self):
        rng = np.random.default_rng(5150)
        for _ in range(5):
            scenario = random_scenario(rng)
            expected = flatten(scenario, solve_closed_form(scenario).allocation)
            got = flatten(scenario, solve_numerical(scenario).allocation)
            assert np.max(np.abs(got - expected) / expected) < 1e-6

    def test_newton_corrector_on_random_structures(self):
        # Three descent steps leave the corrector to do nearly all the work;
        # the draws cover scenarios without local and without central resources.
        rng = np.random.default_rng(2718)
        for _ in range(40):
            scenario = random_scenario(rng)
            expected = flatten(scenario, solve_closed_form(scenario).allocation)
            report = solve_numerical(scenario, OracleConfig(max_iterations=3))
            got = flatten(scenario, report.allocation)
            assert np.max(np.abs(got - expected) / expected) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            OracleConfig(max_iterations=0)
        with pytest.raises(ValueError, match="tolerances"):
            OracleConfig(objective_tolerance=0.0)


class TestScale:
    def test_oracle_memory_is_linear_in_entries(self):
        # 1000 locations, 3 local and 2 central resources in c08's ranges: 3002
        # entries, so one dense entries-by-entries matrix alone takes 72 MB.
        rng = np.random.default_rng(1)
        alphas = rng.uniform(0.0, 8.0, 1000).tolist()
        local_betas = rng.uniform(0.5, 4.0, 3).tolist()
        central_betas = rng.uniform(0.5, 4.0, 2).tolist()
        scenario = Scenario(
            locations=tuple((f"loc{i}", a) for i, a in enumerate(alphas)),
            local_resources=tuple((f"lr{j}", b) for j, b in enumerate(local_betas)),
            central_resources=tuple((f"cr{j}", b) for j, b in enumerate(central_betas)),
            budget=float(rng.uniform(1.0, 100.0)),
        )
        expected = flatten(scenario, solve_closed_form(scenario).allocation)
        tracemalloc.start()
        try:
            report = solve_numerical(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = flatten(scenario, report.allocation)
        assert np.max(np.abs(got - expected) / expected) < 1e-6
        assert peak < 16 * 2**20


class TestKktResidual:
    def test_near_zero_at_optimum(self, paris):
        report = solve_closed_form(paris)
        assert kkt_residual(paris, report.allocation) <= 1e-10

    def test_positive_away_from_optimum(self, paris):
        assert kkt_residual(paris, cle_rule(paris, 0.25)) > 1e-3

    def test_zero_for_single_entry(self):
        scenario = Scenario(
            locations=(("l", 1.0),),
            local_resources=(("r", 2.0),),
            central_resources=(),
            budget=4.0,
        )
        allocation = Allocation(local={("l", "r"): 4.0}, central={})
        assert kkt_residual(scenario, allocation) == 0.0

    def test_requires_full_budget(self, paris):
        partial = cle_rule(paris, 0.5)
        partial = Allocation(
            local={k: 0.5 * v for k, v in partial.local.items()},
            central={k: 0.5 * v for k, v in partial.central.items()},
        )
        with pytest.raises(AllocationError, match="full-budget"):
            kkt_residual(paris, partial)


@pytest.mark.filterwarnings("error")
class TestSaturatedSurrogate:
    """B overflows the double range at the optimum; certificates stay meaningful."""

    def test_closed_form_is_certified(self):
        scenario = saturated_scenario()
        report = solve_closed_form(scenario)
        assert report.evaluation.surrogate == np.inf
        assert report.multiplier == -np.inf
        assert not np.isnan(report.stationarity_residual)
        assert kkt_residual(scenario, report.allocation) <= 1e-8

    def test_oracle_report_holds_no_nan(self):
        scenario = saturated_scenario()
        report = solve_numerical(scenario)
        closed = flatten(scenario, solve_closed_form(scenario).allocation)
        got = flatten(scenario, report.allocation)
        assert np.max(np.abs(got - closed) / closed) <= 1e-6
        evaluation = report.evaluation
        values = [report.multiplier, report.stationarity_residual, evaluation.opt_out,
                  evaluation.overall, evaluation.surrogate, report.diagnostics["relative_spread"],
                  *evaluation.per_location.values(), *evaluation.utilities.values()]
        assert not np.isnan(values).any()
        assert kkt_residual(scenario, report.allocation) <= 1e-8

    def test_exact_stationarity_stays_zero(self):
        # One entry: every partial derivative is the multiplier, even at B = inf.
        scenario = Scenario(
            locations=(("l", 800.0),),
            local_resources=(("r", 2.0),),
            central_resources=(),
            budget=4.0,
        )
        report = solve_numerical(scenario)
        assert report.multiplier == -np.inf
        assert report.stationarity_residual == 0.0
