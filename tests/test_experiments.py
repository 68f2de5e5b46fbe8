import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from choicealloc import (
    ExperimentTable,
    Scenario,
    attractiveness_scaling_table,
    attractiveness_sweep,
    best_gamma,
    budget_for_target,
    paris_scenario,
    rule_comparison_table,
    solve_closed_form,
)

ALLOCATION_COLUMNS = (
    "x[campaign]",
    "x[louvre/cameras]",
    "x[eiffel/cameras]",
    "x[louvre/billboards]",
    "x[eiffel/billboards]",
)


@pytest.fixture(scope="module")
def comparison_table():
    return rule_comparison_table()


@pytest.fixture(scope="module")
def sweep_table():
    pairs = ((1.0, 9.0), (3.0, 7.0), (5.0, 5.0))
    return attractiveness_sweep(pairs)


@pytest.fixture(scope="module")
def scaling_table():
    return attractiveness_scaling_table((1.0, 1.1, 1.2, 1.3))


def _random_base(rng, n_locations):
    """Random locations, 0-3 local and 0-2 central resources (at least one) with
    beta 0.05-10, and a budget 1e-3-1e4, log-uniform."""
    n_local, n_central = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    if n_local == n_central == 0:
        n_local = 1
    betas = rng.uniform(0.05, 10.0, n_local + n_central).tolist()
    return Scenario(
        locations=tuple(
            (f"l{i}", float(a)) for i, a in enumerate(rng.uniform(0.0, 8.0, n_locations))
        ),
        local_resources=tuple((f"r{j}", b) for j, b in enumerate(betas[:n_local])),
        central_resources=tuple((f"c{j}", b) for j, b in enumerate(betas[n_local:])),
        budget=float(10.0 ** rng.uniform(-3.0, 4.0)),
    )


def _assert_same_cells(values, expected, where):
    """Equal cell by cell and of the same type, nan matching nan."""
    assert len(values) == len(expected), where
    for v, e in zip(values, expected):
        assert type(v) is type(e) and (v == e or (math.isnan(v) and math.isnan(e))), (where, v, e)


class TestTablesMatchThePerRowPath:
    """The tables solve their rows together; each row must equal, bit for bit, what
    solve_closed_form, best_gamma and evaluate give a scenario with its alphas."""

    def test_sweep_rows(self):
        rng = np.random.default_rng(41)
        for case in range(120):
            base = _random_base(rng, 2)
            a1s = [0.0, 10.0, *rng.uniform(0.0, 10.0, 4).tolist()]
            table = attractiveness_sweep(tuple((a1, 10.0 - a1) for a1 in a1s), base=base)
            for (label, values), a1 in zip(table.rows, a1s):
                scenario = dataclasses.replace(
                    base, locations=((base.location_ids[0], a1), (base.location_ids[1], 10.0 - a1))
                )
                expected = [a1, 10.0 - a1, 100.0 * solve_closed_form(scenario).evaluation.overall]
                for rule in ("cle", "celp"):
                    try:
                        gamma, evaluation = best_gamma(scenario, rule)
                        expected += [gamma, 100.0 * evaluation.overall]
                    except ValueError:
                        expected += [math.nan, math.nan]
                assert label == repr(a1)
                _assert_same_cells(values, expected, (case, a1))

    def test_scaling_rows(self):
        rng = np.random.default_rng(43)
        for case in range(120):
            base = _random_base(rng, int(rng.integers(1, 9)))
            factors = [0.0, 1.0, *rng.uniform(0.0, 3.0, 3).tolist()]
            table = attractiveness_scaling_table(tuple(factors), base=base)
            for (label, values), k in zip(table.rows, factors):
                scenario = dataclasses.replace(
                    base, locations=tuple((loc, k * a) for loc, a in base.locations)
                )
                report = solve_closed_form(scenario)
                local, central = report.allocation.local, report.allocation.central
                expected = [k, *central.values()]
                expected += [
                    local[(loc, res)] for res in base.local_ids for loc in base.location_ids
                ]
                expected += [100.0 * report.evaluation.overall, sum(central.values()),
                             sum(local.values())]
                expected += [sum(local[(loc, res)] for loc in base.location_ids)
                             for res in base.local_ids]
                assert label == repr(k)
                _assert_same_cells(values, expected, (case, k))

    def test_the_first_row_whose_entries_underflow_is_named(self):
        # At k = 1e5 and 2e5 eiffel's share underflows; the k = 1e5 row is named.
        base = paris_scenario()
        scaled = dataclasses.replace(
            base, locations=tuple((loc, 1e5 * a) for loc, a in base.locations)
        )
        with pytest.raises(FloatingPointError) as per_row:
            solve_closed_form(scaled)
        with pytest.raises(FloatingPointError, match=f"^{re.escape(str(per_row.value))}$"):
            attractiveness_scaling_table((1.0, 1e5, 2e5))


class TestRuleComparison:

    def test_row_labels(self, comparison_table):
        assert [label for label, _ in comparison_table.rows] == [
            "OPTIMAL",
            "CLE(0.25)",
            "CLE(0.5)",
            "CLE(0.75)",
            "CELP(0.25)",
            "CELP(0.5)",
            "CELP(0.75)",
        ]

    def test_optimal_row(self, comparison_table):
        row = comparison_table.row("OPTIMAL")
        for column, value in zip(ALLOCATION_COLUMNS, (5.0, 9.0, 6.0, 6.0, 4.0)):
            assert row[column] == pytest.approx(value, rel=1e-12)
        assert row["overall%"] == pytest.approx(0.92, abs=0.005)

    @pytest.mark.parametrize(
        "label, probabilities",
        [
            ("CLE(0.25)", (1.69, 0.15, 1.84)),
            ("CLE(0.5)", (6.12, 0.54, 6.65)),
            ("CLE(0.75)", (55.46, 4.87, 60.33)),
            ("CELP(0.25)", (0.62, 0.54, 1.16)),
            ("CELP(0.5)", (2.26, 1.99, 4.25)),
            ("CELP(0.75)", (25.90, 22.74, 48.64)),
        ],
    )
    def test_heuristic_probabilities(self, comparison_table, label, probabilities):
        row = comparison_table.row(label)
        p1, p2, overall = probabilities
        assert row["P[louvre]%"] == pytest.approx(p1, abs=0.01)
        assert row["P[eiffel]%"] == pytest.approx(p2, abs=0.01)
        assert row["overall%"] == pytest.approx(overall, abs=0.01)

    def test_heuristic_allocations(self, comparison_table):
        cle = comparison_table.row("CLE(0.25)")
        assert cle["x[campaign]"] == pytest.approx(7.5, rel=1e-12)
        assert cle["x[louvre/cameras]"] == pytest.approx(5.625, rel=1e-12)
        celp = comparison_table.row("CELP(0.25)")
        assert celp["x[louvre/cameras]"] == pytest.approx(6.898, abs=1e-3)
        assert celp["x[eiffel/billboards]"] == pytest.approx(4.352, abs=1e-3)


class TestAttractivenessSweep:

    @pytest.mark.parametrize(
        "label, optimal, cle, celp",
        [
            ("1.0", 1.917129824, 14.52925656, 15.76383679),
            ("3.0", 0.774803214, 2.288337607, 0.960005599),
            ("5.0", 0.559720147, 0.618638942, 0.618638942),
        ],
    )
    def test_values_match_reference_curve(self, sweep_table, label, optimal, cle, celp):
        row = sweep_table.row(label)
        assert row["optimal%"] == pytest.approx(optimal, rel=1e-3)
        assert row["cle%"] == pytest.approx(cle, rel=1e-3)
        assert row["celp%"] == pytest.approx(celp, rel=1e-3)

    def test_moderate_asymmetry_favors_celp(self, sweep_table):
        row = sweep_table.row("3.0")
        assert row["celp%"] < row["cle%"]

    def test_best_gamma_tracks_central_beta_share(self, sweep_table):
        for label in ("1.0", "3.0", "5.0"):
            assert sweep_table.row(label)["cle_gamma"] == pytest.approx(0.17)

    def test_rejects_bad_pairs(self):
        for pair in ((3.0, 4.0), (math.nan, 10.0), (math.inf, -math.inf)):
            with pytest.raises(ValueError, match=re.escape(f"alpha pair {pair} must sum to 10")):
                attractiveness_sweep((pair,))
        with pytest.raises(ValueError, match="alpha_pairs is empty"):
            attractiveness_sweep(())

    def test_rejects_wrong_location_count(self):
        three_locations = dataclasses.replace(
            paris_scenario(),
            locations=(("a", 1.0), ("b", 2.0), ("c", 3.0)),
        )
        with pytest.raises(ValueError, match="two locations"):
            attractiveness_sweep(((5.0, 5.0),), base=three_locations)

    @pytest.mark.parametrize("group", ["local_resources", "central_resources"])
    def test_rules_are_nan_without_a_resource_group(self, group):
        base = dataclasses.replace(paris_scenario(), **{group: ()})
        table = attractiveness_sweep(((1.0, 9.0), (5.0, 5.0)), base=base)
        for label, (a1, a2) in (("1.0", (1.0, 9.0)), ("5.0", (5.0, 5.0))):
            row = table.row(label)
            scenario = dataclasses.replace(base, locations=(("louvre", a1), ("eiffel", a2)))
            assert row["optimal%"] == 100.0 * solve_closed_form(scenario).evaluation.overall
            cells = [row[c] for c in ("cle_gamma", "cle%", "celp_gamma", "celp%")]
            assert all(math.isnan(c) for c in cells)

    @pytest.mark.parametrize("grid, message", [((), "nonempty"), ((0.5, 1.0), "strictly between")])
    def test_bad_grid_raises_without_a_resource_group(self, grid, message):
        base = dataclasses.replace(paris_scenario(), central_resources=())
        with pytest.raises(ValueError, match=message):
            attractiveness_sweep(((5.0, 5.0),), base=base, grid=grid)


class TestScalingTable:

    @pytest.mark.parametrize(
        "label, allocation, overall",
        [
            ("1.0", (5.000, 9.000, 6.000, 6.000, 4.000), 0.92),
            ("1.1", (5.000, 9.145, 5.855, 6.097, 3.903), 1.60),
            ("1.2", (5.000, 9.289, 5.711, 6.193, 3.807), 2.78),
            ("1.3", (5.000, 9.432, 5.568, 6.288, 3.712), 4.81),
        ],
    )
    def test_rows(self, scaling_table, label, allocation, overall):
        row = scaling_table.row(label)
        for column, value in zip(ALLOCATION_COLUMNS, allocation):
            assert row[column] == pytest.approx(value, abs=1e-3)
        assert row["overall%"] == pytest.approx(overall, abs=0.005)

    def test_corrected_entry_follows_the_share_formula(self, scaling_table):
        # x[eiffel/billboards] at k=1.1 equals 10 * 2^1.1 / (3^1.1 + 2^1.1):
        # the billboards block of 10 times the softmax share of the second
        # location. The digits are 3.903..., and the row sums to the budget.
        expected = 10.0 * 2**1.1 / (3**1.1 + 2**1.1)
        row = scaling_table.row("1.1")
        assert row["x[eiffel/billboards]"] == pytest.approx(expected, rel=1e-12)
        assert sum(row[c] for c in ALLOCATION_COLUMNS) == pytest.approx(30.0, rel=1e-12)

    def test_block_totals_do_not_depend_on_scale(self, scaling_table):
        for label, _ in scaling_table.rows:
            row = scaling_table.row(label)
            assert row["central_total"] == pytest.approx(5.0, rel=1e-9)
            assert row["local_total"] == pytest.approx(25.0, rel=1e-9)
            assert row["total[cameras]"] == pytest.approx(15.0, rel=1e-9)
            assert row["total[billboards]"] == pytest.approx(10.0, rel=1e-9)

    def test_rejects_negative_factors(self):
        for k in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"finite and >= 0, got {k}$"):
                attractiveness_scaling_table((1.0, k))

    def test_rejects_no_factors(self):
        with pytest.raises(ValueError, match="scale_factors is empty"):
            attractiveness_scaling_table(())

    def test_labels_are_float_reprs(self):
        # Integer inputs are taken as floats, so labels read "1.0", not "1".
        sweep = attractiveness_sweep(((5, 5),))
        assert [label for label, _ in sweep.rows] == ["5.0"]
        assert sweep.rows[0][1][:2] == (5.0, 5.0)
        scaling = attractiveness_scaling_table((1, 2))
        assert [label for label, _ in scaling.rows] == ["1.0", "2.0"]


class TestBudgetForTarget:
    def test_current_optimum_is_a_fixed_point(self):
        paris = paris_scenario()
        target = solve_closed_form(paris).evaluation.overall  # exactly 1/109
        assert budget_for_target(paris, target) == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize(
        "scale, budget",
        [(1.0, 30.0), (1.1, 32.95), (1.2, 36.2), (1.3, 39.8), (1.4, 43.75)],
    )
    def test_budget_curve(self, scale, budget):
        scenario = paris_scenario(scale)
        required = budget_for_target(scenario, 0.0092)
        assert required == pytest.approx(budget, rel=5e-3)
        achieved = solve_closed_form(
            dataclasses.replace(scenario, budget=required)
        ).evaluation.overall
        assert achieved == pytest.approx(0.0092, abs=1e-9)

    @pytest.mark.parametrize("budget, target, expected", [
        (1e-300, 1e-10, 1e10 - 1.0),  # exp of the factor overflows
        (1e300, 1.0 - 1e-10, 1.0 / (1e10 - 1.0)),  # and here it underflows
    ], ids=["overflow", "underflow"])
    def test_budget_where_only_the_factor_leaves_the_double_range(self, budget, target, expected):
        # One central resource with beta 1 and alpha 0: B = 1 / R, so R' = (1 - t) / t.
        scenario = Scenario(locations=(("a", 0.0),), local_resources=(),
                            central_resources=(("c", 1.0),), budget=budget)
        assert budget_for_target(scenario, target) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range_targets(self, target):
        with pytest.raises(ValueError, match="target"):
            budget_for_target(paris_scenario(), target)


class TestExperimentTable:
    def test_row_width_validation(self):
        with pytest.raises(ValueError, match="columns"):
            ExperimentTable(name="t", columns=("a", "b"), rows=(("r", (1.0,)),))

    def test_accessors(self):
        table = ExperimentTable(name="t", columns=("a",), rows=(("r", (2.5,)),))
        assert table.row("r") == {"a": 2.5}
        with pytest.raises(KeyError):
            table.row("missing")

    def test_csv_full_precision_roundtrip(self):
        table = rule_comparison_table()
        buffer = io.StringIO()
        table.to_csv(buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["label", *table.columns]
        for (label, values), parsed in zip(table.rows, rows[1:]):
            assert parsed[0] == label
            assert [float(cell) for cell in parsed[1:]] == list(values)

    def test_csv_uses_crlf(self):
        table = ExperimentTable(name="t", columns=("a",), rows=(("r", (1.0,)),))
        buffer = io.StringIO()
        table.to_csv(buffer)
        assert "\r\n" in buffer.getvalue()

    def test_json_dict_shape(self):
        table = ExperimentTable(name="t", columns=("a",), rows=(("r", (1.0,)),))
        payload = json.loads(json.dumps(table.as_json_dict()))
        assert payload == {
            "name": "t",
            "columns": ["a"],
            "rows": [{"label": "r", "values": [1.0]}],
        }
