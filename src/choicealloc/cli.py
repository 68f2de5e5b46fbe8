"""Command-line front end: scenario files in, tables out.

Scenario files are JSON with a schema_version, the scenario parameters, and
optionally named allocations. Local allocation entries are keyed
"location/resource", so ids used in files must not contain "/".

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 numerical failure,
141 stdout closed before the table was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .allocator import DEFAULT_GAMMA_GRID, RULES, best_gamma, solve_closed_form
from .experiments import (
    DEFAULT_RULE_GAMMAS,
    ExperimentTable,
    attractiveness_scaling_table,
    attractiveness_sweep,
    budget_for_target,
    solution_table,
)
from .model import (
    Allocation,
    AllocationError,
    Scenario,
    ScenarioError,
    check_feasible,
    evaluate,
    flatten,
)
from .simulate import OPT_OUT, sample_choices
from .solver import ConvergenceError, kkt_residual, solve_numerical

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CLOSED_OUTPUT = 141  # as a shell reports a process that SIGPIPE ended


class ScenarioFileError(ValueError):
    """Base class for scenario file problems."""


class ParseError(ScenarioFileError):
    """The file is not valid JSON."""


class SchemaError(ScenarioFileError):
    """The JSON does not have the expected shape or version."""


@dataclass(frozen=True)
class ScenarioFile:
    scenario: Scenario
    allocations: dict[str, Allocation]


def bundled_scenario_path(name: str = "paris") -> str:
    """Filesystem path of a scenario shipped with the package."""
    return str(resources.files("choicealloc.data").joinpath(f"{name}.json"))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _parse_id_value_list(raw: object, field: str, value_key: str) -> tuple[tuple[str, float], ...]:
    _expect(isinstance(raw, list), f"{field} must be a list")
    out = []
    for index, item in enumerate(raw):
        _expect(isinstance(item, dict), f"{field}[{index}] must be an object")
        _expect("id" in item, f"{field}[{index}] is missing 'id'")
        _expect(value_key in item, f"{field}[{index}] is missing {value_key!r}")
        _expect(
            isinstance(item[value_key], (int, float)) and not isinstance(item[value_key], bool),
            f"{field}[{index}].{value_key} must be a number",
        )
        out.append((str(item["id"]), float(item[value_key])))
    return tuple(out)


def _parse_allocation(raw: object, name: str, scenario: Scenario) -> Allocation:
    _expect(isinstance(raw, dict), f"allocations[{name!r}] must be an object")
    central_raw = raw.get("central", {})
    local_raw = raw.get("local", {})
    _expect(isinstance(central_raw, dict), f"allocations[{name!r}].central must be an object")
    _expect(isinstance(local_raw, dict), f"allocations[{name!r}].local must be an object")
    local = {}
    for key, value in local_raw.items():
        parts = str(key).split("/")
        _expect(
            len(parts) == 2,
            f"allocations[{name!r}].local key {key!r} must be 'location/resource'",
        )
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"allocations[{name!r}].local[{key!r}] must be a number",
        )
        local[(parts[0], parts[1])] = float(value)
    central = {}
    for key, value in central_raw.items():
        _expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"allocations[{name!r}].central[{key!r}] must be a number",
        )
        central[str(key)] = float(value)
    allocation = Allocation(local=local, central=central)
    # A named allocation must be usable as-is: keys matching and within budget.
    check_feasible(scenario, allocation)
    return allocation


def load_scenario(path: str) -> ScenarioFile:
    """Parse and fully validate a scenario file.

    Raises ParseError for bad JSON, SchemaError for structural problems, and
    ScenarioError/AllocationError when embedded values break an invariant.
    """
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    _expect(isinstance(raw, dict), "top level must be an object")
    _expect("schema_version" in raw, "missing schema_version")
    _expect(
        raw["schema_version"] == SCHEMA_VERSION,
        f"unsupported schema_version {raw['schema_version']!r}, expected {SCHEMA_VERSION}",
    )
    for field in ("budget", "locations", "local_resources", "central_resources"):
        _expect(field in raw, f"missing {field}")
    _expect(
        isinstance(raw["budget"], (int, float)) and not isinstance(raw["budget"], bool),
        "budget must be a number",
    )
    scenario = Scenario(
        locations=_parse_id_value_list(raw["locations"], "locations", "alpha"),
        local_resources=_parse_id_value_list(raw["local_resources"], "local_resources", "beta"),
        central_resources=_parse_id_value_list(
            raw["central_resources"], "central_resources", "beta"
        ),
        budget=float(raw["budget"]),
    )
    allocations_raw = raw.get("allocations", {})
    _expect(isinstance(allocations_raw, dict), "allocations must be an object")
    allocations = {
        str(name): _parse_allocation(value, str(name), scenario)
        for name, value in allocations_raw.items()
    }
    return ScenarioFile(scenario=scenario, allocations=allocations)


def save_scenario(scenario_file: ScenarioFile, path: str) -> None:
    """Write a scenario file; numbers keep full round-trip precision."""
    scenario = scenario_file.scenario
    for an_id in scenario.location_ids + scenario.local_ids + scenario.central_ids:
        if "/" in an_id:
            raise ScenarioFileError(f"id {an_id!r} contains '/', which the file format reserves")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "budget": scenario.budget,
        "locations": [{"id": i, "alpha": a} for i, a in scenario.locations],
        "local_resources": [{"id": i, "beta": b} for i, b in scenario.local_resources],
        "central_resources": [{"id": i, "beta": b} for i, b in scenario.central_resources],
        "allocations": {
            name: {
                "central": dict(sorted(allocation.central.items())),
                "local": {
                    f"{loc}/{res}": value
                    for (loc, res), value in sorted(allocation.local.items())
                },
            }
            for name, allocation in sorted(scenario_file.allocations.items())
        },
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _comma_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise _UsageError(f"{flag} needs at least one number")
    return values


def _distinct(values: list, flag: str) -> list:
    """values, unless one repeats: a repeat would give two rows with one label."""
    seen = set()
    for value in values:
        if value in seen:
            raise _UsageError(f"{flag} repeats {value!r}")
        seen.add(value)
    return values


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing leaves no state on it."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--output", choices=("csv", "json"), default="csv", help="stdout format"
    )
    common.add_argument("file")

    parser = _Parser(prog="choicealloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    sub.add_parser("solve", parents=[common], help="closed-form optimal allocation")

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a named allocation")
    p.add_argument("--allocation", required=True, help="name of an allocation in the file")

    p = sub.add_parser("compare", parents=[common], help="heuristic rules at fixed gammas")
    p.add_argument("--rules", default="cle,celp", help="comma list from {cle, celp}")
    p.add_argument(
        "--gamma",
        default=",".join(repr(g) for g in DEFAULT_RULE_GAMMAS),
        help="comma list of gammas, or 'grid' to tune each rule over the default grid",
    )

    p = sub.add_parser("sweep", parents=[common], help="attractiveness sweep (two locations)")
    p.add_argument(
        "--alpha1",
        required=True,
        help="comma list of first-location alphas; the second gets 10 - alpha1",
    )

    p = sub.add_parser("scale", parents=[common], help="scale all alphas by factors k")
    p.add_argument("--k", required=True, help="comma list of scale factors")

    p = sub.add_parser("budget-for", parents=[common], help="budget needed for a target probability")
    p.add_argument("--target", required=True, type=float, help="overall probability in (0,1)")

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo choice sampling")
    p.add_argument(
        "--allocation",
        required=True,
        help="name of an allocation in the file, or 'optimal' for the closed form",
    )
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", parents=[common], help="closed form vs numerical oracle")
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="relative tolerance for closed-form vs numerical agreement",
    )
    return parser


def _emit(table: ExperimentTable, output: str) -> None:
    if output == "json":
        sys.stdout.write(json.dumps(table.as_json_dict(), indent=2))
        sys.stdout.write("\n")
    else:
        table.to_csv(sys.stdout)


def _named_allocation(scenario_file: ScenarioFile, name: str) -> Allocation:
    if name == "optimal":
        return solve_closed_form(scenario_file.scenario).allocation
    try:
        return scenario_file.allocations[name]
    except KeyError:
        known = ", ".join(sorted(scenario_file.allocations)) or "none"
        raise AllocationError(f"no allocation named {name!r} in file (available: {known})")


# Each command maps the loaded file and the parsed arguments to its table and
# exit code; run() loads the file, writes the table and returns the code.
_Result = tuple[ExperimentTable, int]


def _cmd_solve(scenario_file: ScenarioFile, args) -> _Result:
    report = solve_closed_form(scenario_file.scenario)
    print(
        f"multiplier {report.multiplier!r}, stationarity residual "
        f"{report.stationarity_residual!r}",
        file=sys.stderr,
    )
    rows = [("OPTIMAL", report.allocation)]
    return solution_table("solve", scenario_file.scenario, rows), EXIT_OK


def _cmd_evaluate(scenario_file: ScenarioFile, args) -> _Result:
    rows = [(args.allocation, _named_allocation(scenario_file, args.allocation))]
    return solution_table("evaluate", scenario_file.scenario, rows), EXIT_OK


def _cmd_compare(scenario_file: ScenarioFile, args) -> _Result:
    scenario = scenario_file.scenario
    rules = [r.strip().lower() for r in args.rules.split(",") if r.strip()]
    if not rules:
        raise _UsageError("--rules needs at least one rule")
    for rule in rules:
        if rule not in RULES:
            raise _UsageError(f"unknown rule {rule!r}")
    _distinct(rules, "--rules")
    rows: list[tuple[str, Allocation]] = []
    if args.gamma.strip().lower() == "grid":
        for rule in rules:
            gamma, _ = best_gamma(scenario, rule, DEFAULT_GAMMA_GRID)
            rows.append((f"{rule.upper()}(gamma*={gamma!r})", RULES[rule](scenario, gamma)))
    else:
        gammas = _distinct(_comma_floats(args.gamma, "--gamma"), "--gamma")
        for rule in rules:
            for gamma in gammas:
                rows.append((f"{rule.upper()}({gamma!r})", RULES[rule](scenario, gamma)))
    return solution_table("compare", scenario, rows), EXIT_OK


def _cmd_sweep(scenario_file: ScenarioFile, args) -> _Result:
    alpha1 = _distinct(_comma_floats(args.alpha1, "--alpha1"), "--alpha1")
    pairs = tuple((a1, 10.0 - a1) for a1 in alpha1)
    return attractiveness_sweep(pairs, base=scenario_file.scenario), EXIT_OK


def _cmd_scale(scenario_file: ScenarioFile, args) -> _Result:
    factors = tuple(_distinct(_comma_floats(args.k, "--k"), "--k"))
    return attractiveness_scaling_table(factors, base=scenario_file.scenario), EXIT_OK


def _cmd_budget_for(scenario_file: ScenarioFile, args) -> _Result:
    scenario = scenario_file.scenario
    budget = budget_for_target(scenario, args.target)
    achieved = solve_closed_form(
        dataclasses.replace(scenario, budget=budget)
    ).evaluation.overall
    table = ExperimentTable(
        name="budget_for",
        columns=("target", "budget", "achieved"),
        rows=((repr(float(args.target)), (float(args.target), budget, achieved)),),
    )
    return table, EXIT_OK


def _cmd_simulate(scenario_file: ScenarioFile, args) -> _Result:
    scenario = scenario_file.scenario
    allocation = _named_allocation(scenario_file, args.allocation)
    sample = sample_choices(scenario, allocation, args.draws, args.seed)
    evaluation = evaluate(scenario, allocation)
    analytic = {**evaluation.per_location, OPT_OUT: evaluation.opt_out}
    rows = tuple(
        (label, (count, count / sample.draws, analytic[label]))
        for label, count in sample.counts.items()
    )
    table = ExperimentTable(
        name="simulate", columns=("count", "frequency", "analytic"), rows=rows
    )
    return table, EXIT_OK


def _cmd_verify(scenario_file: ScenarioFile, args) -> _Result:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance!r}")
    scenario = scenario_file.scenario
    closed = solve_closed_form(scenario)
    numerical = solve_numerical(scenario)
    x_closed = flatten(scenario, closed.allocation)
    x_numerical = flatten(scenario, numerical.allocation)
    entry_rel = float((np.abs(x_numerical - x_closed) / x_closed).max())
    b_closed = closed.evaluation.surrogate
    b_numerical = numerical.evaluation.surrogate
    # From ln B, so the difference stays finite where B overflows.
    b_rel = abs(math.expm1(numerical.evaluation.ln_surrogate - closed.evaluation.ln_surrogate))
    residual = kkt_residual(scenario, closed.allocation)
    table = ExperimentTable(
        name="verify",
        columns=(
            "closed_B",
            "numerical_B",
            "B_rel_diff",
            "max_entry_rel_diff",
            "closed_kkt_residual",
        ),
        rows=(("verify", (b_closed, b_numerical, b_rel, entry_rel, residual)),),
    )
    if entry_rel > args.tolerance:
        print(
            f"verification failed: entries differ by {entry_rel:.3e} > {args.tolerance:.3e}",
            file=sys.stderr,
        )
        return table, EXIT_NUMERICAL
    return table, EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "scale": _cmd_scale,
    "budget-for": _cmd_budget_for,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        try:
            scenario_file = load_scenario(args.file)
        except OSError as exc:
            raise ScenarioFileError(str(exc)) from exc
        table, code = _HANDLERS[args.command](scenario_file, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except (ScenarioFileError, ScenarioError, AllocationError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        _emit(table, args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_CLOSED_OUTPUT
    return code


def main() -> None:
    code = run(sys.argv[1:])
    if code == EXIT_CLOSED_OUTPUT:
        # Output still buffered would fail again when Python flushes at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
