import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choicealloc
from choicealloc import cli
from choicealloc.cli import (
    EXIT_CLOSED_OUTPUT,
    EXIT_INVALID_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ParseError,
    ScenarioFile,
    SchemaError,
    bundled_scenario_path,
    load_scenario,
    run,
    save_scenario,
)
from choicealloc.model import ScenarioError
from helpers import saturated_scenario, tiny_share_scenario, underflowed_share_scenario


@pytest.fixture
def paris_path():
    return bundled_scenario_path("paris")


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_file(path, budget, alphas, local_betas, central_betas, allocations=None):
    payload = {
        "schema_version": 1,
        "budget": budget,
        "locations": [{"id": f"l{i}", "alpha": a} for i, a in enumerate(alphas)],
        "local_resources": [{"id": f"r{j}", "beta": b} for j, b in enumerate(local_betas)],
        "central_resources": [{"id": f"c{j}", "beta": b} for j, b in enumerate(central_betas)],
        "allocations": allocations or {},
    }
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestLoadScenario:
    def test_bundled_city_file(self, paris_path):
        scenario_file = load_scenario(paris_path)
        scenario = scenario_file.scenario
        assert scenario.location_ids == ("louvre", "eiffel")
        assert scenario.budget == 30.0
        assert set(scenario_file.allocations) == {"plan", "plan_b"}

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    def test_rejects_wrong_schema_version(self, tmp_path, paris_path):
        payload = json.loads(Path(paris_path).read_text())
        payload["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="schema_version"):
            load_scenario(str(path))

    def test_rejects_zero_beta(self, tmp_path, paris_path):
        payload = json.loads(Path(paris_path).read_text())
        payload["local_resources"][0]["beta"] = 0.0
        path = tmp_path / "zero_beta.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError, match="beta"):
            load_scenario(str(path))

    def test_rejects_duplicate_id_across_groups(self, tmp_path, paris_path):
        payload = json.loads(Path(paris_path).read_text())
        payload["central_resources"][0]["id"] = "cameras"
        del payload["allocations"]
        path = tmp_path / "dupe.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError, match="distinct"):
            load_scenario(str(path))

    def test_rejects_malformed_entries(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"schema_version": 1, "budget": 1.0, "locations": "x",
                                    "local_resources": [], "central_resources": []}))
        with pytest.raises(SchemaError, match="locations"):
            load_scenario(str(path))

    def test_save_load_roundtrip(self, tmp_path, paris_path):
        original = load_scenario(paris_path)
        out = tmp_path / "copy.json"
        save_scenario(original, str(out))
        reloaded = load_scenario(str(out))
        assert reloaded.scenario == original.scenario
        assert reloaded.allocations == original.allocations
        save_scenario(reloaded, str(tmp_path / "copy2.json"))
        assert (tmp_path / "copy.json").read_text() == (tmp_path / "copy2.json").read_text()


class TestCommands:
    def test_solve(self, capsys, paris_path):
        code, out, err = run_cli(capsys, ["solve", paris_path])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert row["label"] == "OPTIMAL"
        assert float(row["x[campaign]"]) == pytest.approx(5.0, rel=1e-12)
        assert float(row["x[louvre/cameras]"]) == pytest.approx(9.0, rel=1e-12)
        assert float(row["overall%"]) == pytest.approx(0.92, abs=0.005)
        assert "multiplier" in err

    def test_compare_default_rows(self, capsys, paris_path):
        code, out, _ = run_cli(
            capsys,
            ["compare", paris_path, "--rules", "cle,celp", "--gamma", "0.25,0.5,0.75"],
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["label"] for r in rows] == [
            "CLE(0.25)", "CLE(0.5)", "CLE(0.75)",
            "CELP(0.25)", "CELP(0.5)", "CELP(0.75)",
        ]
        by_label = {r["label"]: r for r in rows}
        assert float(by_label["CLE(0.75)"]["overall%"]) == pytest.approx(60.33, abs=0.01)
        assert float(by_label["CELP(0.75)"]["P[louvre]%"]) == pytest.approx(25.90, abs=0.01)

    def test_compare_grid_search(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["compare", paris_path, "--gamma", "grid"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["label"] for r in rows] == ["CLE(gamma*=0.17)", "CELP(gamma*=0.17)"]

    def test_evaluate_named_allocations(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["evaluate", paris_path, "--allocation", "plan"])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["overall%"]) == pytest.approx(100 / 13, rel=1e-9)
        code, out, _ = run_cli(capsys, ["evaluate", paris_path, "--allocation", "plan_b"])
        (row,) = parse_csv(out)
        assert float(row["overall%"]) == pytest.approx(100 / 19, rel=1e-9)

    def test_evaluate_unknown_allocation(self, capsys, paris_path):
        code, _, err = run_cli(capsys, ["evaluate", paris_path, "--allocation", "nope"])
        assert code == EXIT_INVALID_INPUT
        assert "plan" in err

    def test_evaluate_optimal_keyword(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["evaluate", paris_path, "--allocation", "optimal"])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["overall%"]) == pytest.approx(100 / 109, rel=1e-9)

    def test_sweep(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["sweep", paris_path, "--alpha1", "1,5"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["label"] for r in rows] == ["1.0", "5.0"]
        assert float(rows[1]["optimal%"]) == pytest.approx(0.559720147, rel=1e-3)

    def test_scale(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["scale", paris_path, "--k", "1,1.2"])
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert float(rows[1]["x[louvre/cameras]"]) == pytest.approx(9.289, abs=1e-3)

    def test_budget_for(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["budget-for", paris_path, "--target", "0.0092"])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["budget"]) == pytest.approx(30.0, rel=5e-3)
        assert float(row["achieved"]) == pytest.approx(0.0092, abs=1e-9)

    def test_simulate_counts(self, capsys, paris_path):
        code, out, _ = run_cli(
            capsys,
            ["simulate", paris_path, "--allocation", "optimal", "--draws", "10000", "--seed", "42"],
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [r["label"] for r in rows] == ["louvre", "eiffel", "OPT_OUT"]
        assert sum(int(r["count"]) for r in rows) == 10000

    def test_verify(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["verify", paris_path])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["max_entry_rel_diff"]) < 1e-6
        assert float(row["closed_kkt_residual"]) < 1e-10

    def test_verify_fails_at_impossible_tolerance(self, capsys, paris_path):
        code, out, err = run_cli(capsys, ["verify", paris_path, "--tolerance", "1e-300"])
        assert code == EXIT_NUMERICAL
        assert "verification failed" in err
        (row,) = parse_csv(out)
        assert row["label"] == "verify"

    def test_json_output(self, capsys, paris_path):
        code, out, _ = run_cli(capsys, ["solve", paris_path, "--output", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["columns"][0] == "x[campaign]"
        assert payload["rows"][0]["label"] == "OPTIMAL"

    @pytest.mark.filterwarnings("error")
    def test_json_output_is_strict_where_cells_are_not_finite(self, capsys, tmp_path, paris_path):
        # alpha = 0 leaves the sweep's CELP cells nan; a saturated B is inf.
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        saturated = tmp_path / "saturated.json"
        save_scenario(ScenarioFile(saturated_scenario(), {}), str(saturated))
        code, out, _ = run_cli(capsys, ["sweep", paris_path, "--alpha1", "0,5,10", "--output", "json"])
        assert code == EXIT_OK
        rows = {row["label"]: row["values"] for row in json.loads(out, parse_constant=reject)["rows"]}
        assert rows["0.0"][5:] == rows["10.0"][5:] == [None, None]
        assert rows["0.0"][2] == pytest.approx(rows["10.0"][2]) and rows["0.0"][4] is not None
        assert rows["5.0"][5] == 0.17
        code, out, _ = run_cli(capsys, ["verify", str(saturated), "--output", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(out, parse_constant=reject)["rows"]
        assert row["values"][:2] == [None, None] and row["values"][2] < 1e-9

    def test_stdout_is_deterministic(self, capsys, paris_path):
        argv = ["simulate", paris_path, "--allocation", "plan", "--draws", "5000", "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == EXIT_USAGE

    def test_unknown_rule_is_usage_error(self, capsys, paris_path):
        code, _, _ = run_cli(capsys, ["compare", paris_path, "--rules", "magic"])
        assert code == EXIT_USAGE

    def test_missing_file_is_invalid_input(self, capsys):
        required = {
            "solve": [],
            "evaluate": ["--allocation", "plan"],
            "compare": [],
            "sweep": ["--alpha1", "1"],
            "scale": ["--k", "1"],
            "budget-for": ["--target", "0.5"],
            "simulate": ["--allocation", "plan"],
            "verify": [],
        }
        for command, flags in required.items():
            code, out, err = run_cli(capsys, [command, "/nonexistent/file.json", *flags])
            assert code == EXIT_INVALID_INPUT, command
            assert out == "" and "No such file" in err, command

    def test_tolerance_outside_verify_is_usage_error(self, capsys, paris_path):
        required = {
            "solve": [],
            "evaluate": ["--allocation", "plan"],
            "compare": [],
            "sweep": ["--alpha1", "1"],
            "scale": ["--k", "1"],
            "budget-for": ["--target", "0.5"],
            "simulate": ["--allocation", "plan"],
        }
        for command, flags in required.items():
            code, out, err = run_cli(capsys, [command, paris_path, *flags, "--tolerance", "1e-3"])
            assert code == EXIT_USAGE, command
            assert out == "" and "--tolerance" in err, command

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_unusable_tolerance_is_invalid_input(self, capsys, monkeypatch, paris_path, tolerance):
        def no_solve(scenario):
            raise AssertionError("verify solved before checking --tolerance")

        monkeypatch.setattr(cli, "solve_closed_form", no_solve)
        code, out, err = run_cli(capsys, ["verify", paris_path, "--tolerance", tolerance])
        assert code == EXIT_INVALID_INPUT
        assert out == "" and "--tolerance must be finite and >= 0" in err

    def test_empty_list_flag_is_usage_error(self, capsys, paris_path):
        for command, flag in [("compare", "--gamma"), ("compare", "--rules"),
                              ("sweep", "--alpha1"), ("scale", "--k")]:
            code, out, err = run_cli(capsys, [command, paris_path, flag, ","])
            assert code == EXIT_USAGE, flag
            assert out == "" and f"usage error: {flag} needs at least one" in err, flag

    @pytest.mark.parametrize("command, flag, value, message", [
        ("sweep", "--alpha1", "nan", "alpha pair (nan, nan) must sum to 10"),
        ("scale", "--k", "nan", "scale factors must be finite and >= 0, got nan"),
        ("scale", "--k", "inf", "scale factors must be finite and >= 0, got inf"),
        # k * alpha overflows: the factor and the location are named, not the product.
        ("scale", "--k", "1,1e308",
         "scale factor 1e+308 overflows the alpha of location 'louvre' (6.591673732008658)"),
        ("sweep", "--alpha1", "-1", "location 'louvre': alpha must be finite and >= 0, got -1.0"),
    ])
    def test_nonfinite_axis_value_is_named(self, capsys, paris_path, command, flag, value, message):
        code, out, err = run_cli(capsys, [command, paris_path, flag, value])
        assert code == EXIT_INVALID_INPUT
        assert out == "" and err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("flags, repeated", [
        (["--rules", "cle,cle", "--gamma", "0.5"], "--rules repeats 'cle'"),
        (["--rules", "celp,CLE,cle", "--gamma", "grid"], "--rules repeats 'cle'"),
        (["--gamma", "0.5,0.25,0.50"], "--gamma repeats 0.5"),
    ])
    def test_repeated_compare_entry_is_usage_error(self, capsys, paris_path, flags, repeated):
        code, out, err = run_cli(capsys, ["compare", paris_path, *flags])
        assert code == EXIT_USAGE
        assert out == "" and err == f"usage error: {repeated}\n"

    @pytest.mark.parametrize("command, flag, values, repeated", [
        ("sweep", "--alpha1", "1,1", "1.0"),
        ("sweep", "--alpha1", "0,5,-0", "-0.0"),
        ("scale", "--k", "1,1.0", "1.0"),
        ("scale", "--k", "1,1.1,1.2,1.1", "1.1"),
    ])
    def test_repeated_axis_value_is_usage_error(self, capsys, paris_path, command, flag, values, repeated):
        code, out, err = run_cli(capsys, [command, paris_path, flag, values])
        assert code == EXIT_USAGE
        assert out == "" and err == f"usage error: {flag} repeats {repeated}\n"

    def test_negative_seed_is_named(self, capsys, paris_path):
        code, out, err = run_cli(capsys, ["simulate", paris_path, "--allocation", "optimal",
                                          "--seed", "-1"])
        assert code == EXIT_INVALID_INPUT
        assert out == "" and err == "invalid input: seed must be >= 0, got -1\n"

    def test_closed_stdout_is_not_invalid_input(self, capsys, monkeypatch, paris_path):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run(["sweep", paris_path, "--alpha1", "1,5", "--output", "json"])
        monkeypatch.undo()
        assert code == EXIT_CLOSED_OUTPUT != EXIT_INVALID_INPUT
        assert capsys.readouterr().err == ""

    def test_closed_stdout_ends_quietly_in_a_fresh_process(self, paris_path):
        env = {**os.environ, "PYTHONPATH": str(Path(choicealloc.__file__).parents[1])}
        argv = [sys.executable, "-W", "error", "-m", "choicealloc", "solve", paris_path]
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()  # before the child writes, so its write must fail
            err = proc.stderr.read().decode()
        assert proc.returncode == EXIT_CLOSED_OUTPUT
        assert err.startswith("multiplier ") and err.count("\n") == 1, err

    def test_bad_json_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, _ = run_cli(capsys, ["solve", str(path)])
        assert code == EXIT_INVALID_INPUT

    def test_invariant_violation_is_invalid_input(self, capsys, tmp_path, paris_path):
        payload = json.loads(Path(paris_path).read_text())
        payload["budget"] = -1.0
        del payload["allocations"]
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(payload))
        code, _, _ = run_cli(capsys, ["solve", str(path)])
        assert code == EXIT_INVALID_INPUT

    def test_out_of_range_gamma_is_invalid_input(self, capsys, paris_path):
        code, _, _ = run_cli(capsys, ["compare", paris_path, "--gamma", "1.5"])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_solves(self, capsys, tmp_path):
        path = tmp_path / "saturated.json"
        save_scenario(ScenarioFile(saturated_scenario(), {}), str(path))
        code, out, _ = run_cli(capsys, ["solve", str(path)])
        assert code == EXIT_OK
        assert parse_csv(out)[0]["label"] == "OPTIMAL"

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_prints_a_finite_kkt_residual(self, capsys, tmp_path):
        # B = e^800-ish overflows, so the multiplier is -inf; the certificate is relative.
        path = write_file(tmp_path / "saturated.json", 4.0, [800.0, 790.0], [2.0], [1.0])
        code, _, err = run_cli(capsys, ["solve", path])
        assert code == EXIT_OK
        match = re.fullmatch(r"multiplier -inf, kkt residual (\S+)\n", err)
        assert match, err
        assert 0.0 <= float(match.group(1)) <= 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alphas, local_betas, central_betas, target, ln_budget",
        [
            ([0.0], [], [0.01], "0.9999", "-921.024"),  # the budget underflows
            ([700.0, 3.0], [0.05], [0.05], "0.5", "7000.69"),  # the budget overflows
        ],
        ids=["underflow", "overflow"],
    )
    def test_budget_outside_the_double_range_is_named(
        self, capsys, tmp_path, alphas, local_betas, central_betas, target, ln_budget
    ):
        path = write_file(tmp_path / "f.json", 1.0, alphas, local_betas, central_betas)
        code, out, err = run_cli(capsys, ["budget-for", path, "--target", target])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == (
            f"numerical failure: the budget for target {target} is outside the range "
            f"of a double (ln budget {ln_budget})\n"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("local_betas, central_betas", [([1.0], []), ([], [1.0])],
                             ids=["no-central", "no-local"])
    def test_sweep_without_a_resource_group_has_nan_rule_cells(
        self, capsys, tmp_path, local_betas, central_betas
    ):
        path = write_file(tmp_path / "f.json", 10.0, [1.0, 9.0], local_betas, central_betas)
        code, out, _ = run_cli(capsys, ["sweep", path, "--alpha1", "0,5"])
        assert code == EXIT_OK
        for row in parse_csv(out):
            assert 0.0 < float(row["optimal%"]) < 100.0
            cells = [row[c] for c in ("cle_gamma", "cle%", "celp_gamma", "celp%")]
            assert cells == ["nan"] * 4
        for flags in ([], ["--gamma", "grid"]):
            code, out, err = run_cli(capsys, ["compare", path, *flags])
            assert code == EXIT_OK and err == ""
            for row in parse_csv(out):
                assert [v for k, v in row.items() if k != "label"] == ["nan"] * (len(row) - 1)

    @pytest.mark.filterwarnings("error")
    def test_compare_gives_an_undefined_rule_nan_rows(self, capsys, tmp_path):
        # CELP would give location 'l0' (alpha 0) nothing; CLE's rows stay as
        # --rules cle prints them.
        path = write_file(tmp_path / "f.json", 10.0, [0.0, 3.0], [1.0], [1.0])
        for gamma, labels in (("0.25,0.5", ["CLE(0.25)", "CLE(0.5)", "CELP(0.25)", "CELP(0.5)"]),
                              ("grid", ["CLE(gamma*=0.5)", "CELP(gamma*=nan)"])):
            code, out, err = run_cli(capsys, ["compare", path, "--gamma", gamma])
            assert code == EXIT_OK and err == ""
            rows = parse_csv(out)
            assert [row["label"] for row in rows] == labels
            _, cle_only, _ = run_cli(capsys, ["compare", path, "--gamma", gamma, "--rules", "cle"])
            assert out.startswith(cle_only)
            for row in rows[len(labels) // 2:]:
                assert [v for k, v in row.items() if k != "label"] == ["nan"] * (len(row) - 1)

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_budget_for(self, capsys, tmp_path):
        path = tmp_path / "saturated.json"
        save_scenario(ScenarioFile(saturated_scenario(), {}), str(path))
        code, out, _ = run_cli(capsys, ["budget-for", str(path), "--target", "0.5"])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["budget"]) == pytest.approx(18.048076389628, rel=1e-12)
        assert float(row["achieved"]) == pytest.approx(0.5, abs=5e-14)

    @pytest.mark.filterwarnings("error")
    def test_saturated_surrogate_verify(self, capsys, tmp_path):
        path = tmp_path / "saturated.json"
        save_scenario(ScenarioFile(saturated_scenario(), {}), str(path))
        code, out, _ = run_cli(capsys, ["verify", str(path)])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["closed_B"]) == math.inf
        assert float(row["B_rel_diff"]) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_share_below_the_floor_solves_and_verifies(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        save_scenario(ScenarioFile(tiny_share_scenario(), {}), str(path))
        code, out, _ = run_cli(capsys, ["solve", str(path)])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["x[a/r]"]) == pytest.approx(0.5 * math.exp(-40.0), rel=1e-12)
        code, out, _ = run_cli(capsys, ["verify", str(path)])
        assert code == EXIT_OK
        (row,) = parse_csv(out)
        assert float(row["max_entry_rel_diff"]) <= 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_underflowed_share_is_a_numerical_failure(self, capsys, tmp_path, command):
        path = tmp_path / "underflow.json"
        save_scenario(ScenarioFile(underflowed_share_scenario(), {}), str(path))
        code, out, err = run_cli(capsys, [command, str(path)])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "location 'a'" in err and "ln share -2500" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0


# Why a valid file can exit 3 today, by the message that names the cause.
_NUMERICAL_CAUSES = {
    # The oracle's tail: at alpha gaps from about 100 its line search on ln B stalls.
    "oracle tail": r"no stationary point within \d+ iterations \(kkt_residual \S+ > 1\.000e-09\)",
    # An optimal entry below the double range, though its ln share is finite.
    "entry underflow": r"optimal entries of location '\w+' underflow to 0\.0 \(ln share \S+\)",
    # budget-for: the needed budget is not a normal double.
    "budget range": r"the budget for target \S+ is outside the range of a double "
                    r"\(ln budget \S+\)",
}
# The (command, cause) pairs the contract run below meets. A change that mends
# a regime removes its pairs here.
_PINNED_EXIT_3 = {
    ("solve", "entry underflow"),
    ("scale", "entry underflow"),
    ("budget-for", "entry underflow"),
    ("budget-for", "budget range"),
    ("simulate", "entry underflow"),
    ("verify", "entry underflow"),
    ("verify", "oracle tail"),
}


def _contract_file(rng, k, path):
    """A valid file over the library's ranges, with a named plan: 1-39 locations
    (every third file two, for sweep), alpha up to 8, 60, 700 or 5 000 (every
    fifth file with an alpha of 0), 0-3 local and 0-2 central resources with
    beta 0.05-10, and a budget 1e-3-1e4, log-uniform."""
    n = 2 if k % 3 == 0 else int(rng.integers(1, 40))
    n_local, n_central = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    if n_local == n_central == 0:
        n_local = 1
    alphas = rng.uniform(0.0, (8.0, 60.0, 700.0, 5000.0)[k % 4], n)
    if k % 5 == 0:
        alphas[0] = 0.0
    budget = float(10.0 ** rng.uniform(-3.0, 4.0))
    weights = rng.uniform(0.2, 1.0, n * n_local + n_central)
    x = (0.9 * budget * weights / weights.sum()).tolist()
    plan = {
        "local": {f"l{i}/r{j}": x[i * n_local + j] for i in range(n) for j in range(n_local)},
        "central": {f"c{j}": x[n * n_local + j] for j in range(n_central)},
    }
    betas = rng.uniform(0.05, 10.0, n_local + n_central).tolist()
    return n, write_file(path, budget, alphas.tolist(), betas[:n_local], betas[n_local:],
                         {"plan": plan})


@pytest.mark.filterwarnings("error")
def test_valid_files_never_exit_2_and_every_exit_3_names_its_cause(capsys, tmp_path):
    rng = np.random.default_rng(2026)
    seen = set()
    for k in range(200):
        n, path = _contract_file(rng, k, tmp_path / f"valid{k}.json")
        commands = [
            ["solve"],
            ["evaluate", "--allocation", "plan"],
            ["compare"],
            ["compare", "--gamma", "grid"],
            ["scale", "--k", "0.5,1,2"],
            ["budget-for", "--target", "0.5"],
            ["budget-for", "--target", "0.0092"],
            ["simulate", "--allocation", "optimal", "--draws", "1000", "--seed", str(k)],
            ["simulate", "--allocation", "plan", "--draws", "1000"],
            ["verify"],
        ]
        if n == 2:
            commands.append(["sweep", "--alpha1", "0,2.5,5,10"])
        for command, *flags in commands:
            code, _, err = run_cli(capsys, [command, path, *flags])
            where = f"{command} {' '.join(flags)} on file {k}: exit {code}, {err!r}"
            assert code in (EXIT_OK, EXIT_NUMERICAL), where
            if code == EXIT_NUMERICAL:
                causes = [cause for cause, pattern in _NUMERICAL_CAUSES.items()
                          if re.fullmatch(f"numerical failure: {pattern}\n", err)]
                assert causes, where
                seen.add((command, causes[0]))
    assert seen == _PINNED_EXIT_3
