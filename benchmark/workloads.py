"""The benchmark's workloads: input generation, one timed operation, and its checks.

Every call into choicealloc goes through a module attribute (``allocator.evaluate``
and so on), so that a traced run can wrap it where the calling module binds it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

import reference as ref
from choicealloc import allocator, cli, model, solver
from reference import expect, expect_close

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seed of the fixed oracle list; --seed only rotates where a run starts in it,
#: so every run solves the same mix of scenarios.
ORACLE_LIST_SEED = 20220912
ORACLE_LIST_SIZE = 78  # every size from 2 to 40 locations twice

CITY_LOCATIONS = 1000
CITY_POOL = 4
CITY_GAMMA = 0.17

COMPARE_GAMMAS = (0.25, 0.5, 0.75)
SWEEP_ALPHA1 = tuple(1.0 + 0.5 * i for i in range(17))
SCALE_K = (1.0, 1.1, 1.2, 1.3)
BUDGET_TARGET = 0.0092
SIMULATE_DRAWS = 1_000_000

REL = 1e-9  # agreement between the program and the reference on closed-form quantities


def program_env() -> dict[str, str]:
    """Environment of a child running the program: the checkout's src, default threads."""
    env = {k: v for k, v in os.environ.items() if k != "CHOICEALLOC_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def to_scenario(inst: ref.Instance) -> model.Scenario:
    return model.Scenario(
        locations=tuple(zip(inst.location_ids, inst.alpha.tolist())),
        local_resources=tuple(zip(inst.local_ids, inst.beta_local.tolist())),
        central_resources=tuple(zip(inst.central_ids, inst.beta_central.tolist())),
        budget=inst.budget,
    )


def to_arrays(inst: ref.Instance, allocation) -> tuple[np.ndarray, np.ndarray]:
    local = np.array([[allocation.local[(loc, res)] for res in inst.local_ids]
                      for loc in inst.location_ids], dtype=float)
    central = np.array([allocation.central[res] for res in inst.central_ids], dtype=float)
    return local.reshape(len(inst.location_ids), len(inst.local_ids)), central


def random_instance(rng: np.random.Generator, n_loc: int, n_local: int, n_central: int,
                    alpha_range: tuple[float, float]) -> ref.Instance:
    """Random scenario with c08's beta and budget ranges."""
    return ref.Instance(
        tuple(f"loc{i}" for i in range(n_loc)), rng.uniform(*alpha_range, size=n_loc),
        tuple(f"lr{j}" for j in range(n_local)), rng.uniform(0.5, 4.0, size=n_local),
        tuple(f"cr{j}" for j in range(n_central)), rng.uniform(0.5, 4.0, size=n_central),
        float(rng.uniform(1.0, 100.0)),
    )


def random_city(rng: np.random.Generator) -> ref.Instance:
    """A 1000-location city whose budget puts the optimum's overall probability at a
    uniform draw from [0.05, 0.5], far from both 0 and 1. CELP needs every alpha > 0."""
    inst = random_instance(rng, CITY_LOCATIONS, 3, 2, (0.5, 8.0))
    return replace(inst, budget=ref.budget_for(inst, float(rng.uniform(0.05, 0.5))))


def check_optimum_report(inst: ref.Instance, report, rel: float) -> None:
    local, central = to_arrays(inst, report.allocation)
    exp_local, exp_central = ref.optimum(inst)
    expect_close(local, exp_local, rel, "optimal local entries")
    expect_close(central, exp_central, rel, "optimal central entries")


def check_evaluation(inst: ref.Instance, allocation, evaluation, what: str) -> ref.Probabilities:
    p = ref.probabilities(inst, *to_arrays(inst, allocation))
    expect_close([evaluation.per_location[i] for i in inst.location_ids], p.per_location,
                 REL, f"{what}: per-location probabilities")
    expect_close(evaluation.overall, p.overall, REL, f"{what}: overall probability")
    return p


class Workload:
    """One workload: ``setup`` makes inputs and warms up, ``op`` is timed, ``check`` is not.

    A run attempts whole rounds of ``round_size`` operations. ``tail_percentile`` is
    the op_tail_ms percentile: the highest with at least ten samples beyond it at
    the benchmark's run length.
    """

    name = ""
    round_size = 1
    tail_percentile = 50.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(workload: Workload, seconds: float, tracer=None, root: str = "loop") -> dict:
    """Whole rounds of operations until ``seconds`` have passed; checks are not timed.

    With a tracer, each operation is a span named ``<root>.<workload>``.
    """
    latencies, failed, wrong = [], 0, 0
    start, k = time.perf_counter(), 0
    while True:
        for _ in range(workload.round_size):
            span = tracer.open(f"{root}.{workload.name}") if tracer else None
            t = time.perf_counter()
            try:
                output, error = workload.op(k), None
            except Exception as exc:  # an operation that raises counts as failed
                output, error = None, exc
            latencies.append(time.perf_counter() - t)
            if tracer:
                tracer.close(span, error)
            if error is None:
                try:
                    workload.check(k, output)
                except Exception as exc:  # a malformed output can also break the check itself
                    error, wrong = exc, wrong + 1
            if error is not None:
                failed += 1
                print(f"{workload.name} op {k} failed: {type(error).__name__}: {error}",
                      file=sys.stderr)
            k += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "failed": failed, "wrong": wrong}


class PaperTables(Workload):
    """The README command tour through cli.run, in-process, on the bundled scenario."""

    name = "paper-tables"
    tail_percentile = 80.0

    def setup(self) -> None:
        self.path = cli.bundled_scenario_path()
        self.inst, self.file_allocations = ref.instance_from_json(self.path)
        self.sim_seeds = np.random.default_rng(self.seed)
        self.op(-1)

    def commands(self, sim_seed: int) -> list[list[str]]:
        f = self.path
        return [
            ["solve", f],
            ["evaluate", f, "--allocation", "plan"],
            ["compare", f],
            ["compare", f, "--gamma", "grid"],
            ["sweep", f, "--alpha1", ",".join(repr(a) for a in SWEEP_ALPHA1)],
            ["scale", f, "--k", ",".join(repr(k) for k in SCALE_K)],
            ["budget-for", f, "--target", repr(BUDGET_TARGET)],
            ["simulate", f, "--allocation", "optimal", "--draws", str(SIMULATE_DRAWS),
             "--seed", str(sim_seed)],
            ["verify", f],
        ]

    def op(self, k: int):
        outputs = []
        for argv in self.commands(int(self.sim_seeds.integers(2**31))):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            outputs.append((argv, code, out.getvalue(), err.getvalue()))
        return outputs

    @cached_property
    def sweep_gammas(self) -> dict[tuple[float, str], float]:
        """The reference argmin of ln B over the grid, per (alpha1, rule)."""
        return {(a1, rule): ref.best_gamma(self.swept(a1), rule)
                for a1 in SWEEP_ALPHA1 for rule in ref.RULES}

    def swept(self, a1: float) -> ref.Instance:
        return replace(self.inst, alpha=np.array([a1, 10.0 - a1]))

    @cached_property
    def compare_rows(self) -> dict[str, dict[str, float]]:
        """The rows of compare (fixed gammas) and compare --gamma grid."""
        rows = {}
        for rule, fn in ref.RULES.items():
            for g in COMPARE_GAMMAS:
                rows[f"{rule.upper()}({g!r})"] = ref.solution_row(self.inst, *fn(self.inst, g))
            g = ref.best_gamma(self.inst, rule)
            rows[f"{rule.upper()}(gamma*={g!r})"] = ref.solution_row(self.inst, *fn(self.inst, g))
        return rows

    def check(self, k: int, output) -> None:
        tables = {}
        for argv, code, out, err in output:
            expect(code == 0, f"{' '.join(argv[:1])} exited {code}: {err.strip()}")
            key = "compare-grid" if "grid" in argv else argv[0]
            tables[key] = ref.parse_csv(out)
        inst = self.inst
        optimal = ref.solution_row(inst, *ref.optimum(inst))
        ref.expect_row(tables["solve"]["OPTIMAL"], optimal, REL, "solve")
        ref.expect_row(tables["evaluate"]["plan"],
                       ref.solution_row(inst, *self.file_allocations["plan"]), REL, "evaluate plan")
        self.check_compare(tables["compare"], tables["compare-grid"], optimal["overall%"])
        self.check_sweep(tables["sweep"])
        self.check_scale(tables["scale"])
        self.check_budget_for(tables["budget-for"])
        self.check_simulate(tables["simulate"])
        self.check_verify(tables["verify"])

    def check_compare(self, fixed, grid, optimal_overall: float) -> None:
        expected = self.compare_rows
        rows = {**fixed, **grid}
        expect(set(rows) == set(expected), f"compare rows {sorted(rows)} != {sorted(expected)}")
        for label, row in rows.items():
            ref.expect_row(row, expected[label], REL, f"compare {label}")
            expect(optimal_overall <= row["overall%"], f"compare {label} beats the optimum")

    def check_sweep(self, table) -> None:
        expect(list(table) == [repr(a) for a in SWEEP_ALPHA1], f"sweep rows {list(table)}")
        for a1 in SWEEP_ALPHA1:
            row = table[repr(a1)]
            inst = self.swept(a1)
            expect(row["alpha1"] == a1 and row["alpha2"] == 10.0 - a1, f"sweep {a1}: alphas")
            expect_close(row["optimal%"], 100.0 * ref.probabilities(inst, *ref.optimum(inst)).overall,
                         REL, f"sweep {a1}: optimal%")
            for rule, fn in ref.RULES.items():
                gamma = self.sweep_gammas[(a1, rule)]
                expect(row[f"{rule}_gamma"] == gamma,
                       f"sweep {a1}: {rule} gamma* {row[f'{rule}_gamma']} != {gamma}")
                expect_close(row[f"{rule}%"], 100.0 * ref.probabilities(inst, *fn(inst, gamma)).overall,
                             REL, f"sweep {a1}: {rule}%")
                expect(row["optimal%"] <= row[f"{rule}%"], f"sweep {a1}: {rule} beats the optimum")
            mirror = table[repr(10.0 - a1)]
            for col in ("optimal%", "cle%", "celp%", "cle_gamma", "celp_gamma"):
                expect_close(mirror[col], row[col], REL, f"sweep symmetry {a1}: {col}")
        middle = table[repr(5.0)]
        expect(middle["cle_gamma"] == middle["celp_gamma"], "sweep: CLE and CELP gammas differ at 5")
        expect_close(middle["cle%"], middle["celp%"], 1e-12, "sweep: CLE != CELP at a1 = 5")

    def check_scale(self, table) -> None:
        expect(list(table) == [repr(k) for k in SCALE_K], f"scale rows {list(table)}")
        totals = None
        for k in SCALE_K:
            row = table[repr(k)]
            inst = replace(self.inst, alpha=k * self.inst.alpha)
            expected = ref.solution_row(inst, *ref.optimum(inst))
            for col, value in expected.items():
                if col.startswith("x[") or col == "overall%":
                    expect_close(row[col], value, REL, f"scale {k}: {col}")
            block = [row["central_total"], row["local_total"]]
            block += [row[f"total[{res}]"] for res in inst.local_ids]
            totals = totals or block
            expect_close(block, totals, REL, f"scale {k}: block totals move with k")
        r, total = self.inst.budget, self.inst.beta_sum
        expected_totals = [math.fsum(self.inst.beta_central) * r / total,
                           math.fsum(self.inst.beta_local) * r / total]
        expected_totals += list(self.inst.beta_local * r / total)
        expect_close(totals, expected_totals, REL, "scale: block totals")

    def check_budget_for(self, table) -> None:
        row = table[repr(BUDGET_TARGET)]
        expect(abs(row["achieved"] - BUDGET_TARGET) <= 1e-9, f"budget-for achieved {row['achieved']}")
        expect_close(row["budget"], ref.budget_for(self.inst, BUDGET_TARGET), REL, "budget-for budget")
        inst = replace(self.inst, budget=row["budget"])
        reached = ref.probabilities(inst, *ref.optimum(inst)).overall
        expect(abs(reached - BUDGET_TARGET) <= 1e-9, f"budget-for budget reaches {reached}")

    def check_simulate(self, table) -> None:
        p = ref.probabilities(self.inst, *ref.optimum(self.inst))
        analytic = dict(zip(self.inst.location_ids, p.per_location.tolist()))
        analytic["OPT_OUT"] = p.opt_out
        expect(set(table) == set(analytic), f"simulate rows {sorted(table)}")
        expect(sum(row["count"] for row in table.values()) == SIMULATE_DRAWS, "simulate: counts")
        for label, prob in analytic.items():
            row = table[label]
            expect_close(row["analytic"], prob, REL, f"simulate {label}: analytic")
            expect(row["frequency"] == row["count"] / SIMULATE_DRAWS, f"simulate {label}: frequency")
            se = math.sqrt(prob * (1.0 - prob) / SIMULATE_DRAWS)
            expect(abs(row["frequency"] - prob) <= 5.0 * se,
                   f"simulate {label}: frequency {row['frequency']} vs {prob} beyond 5 SE")

    def check_verify(self, table) -> None:
        row = table["verify"]
        b = math.exp(ref.probabilities(self.inst, *ref.optimum(self.inst)).ln_b)
        expect_close(row["closed_B"], b, REL, "verify closed_B")
        expect_close(row["numerical_B"], b, REL, "verify numerical_B")
        expect(row["max_entry_rel_diff"] <= 1e-6, f"verify entries differ by {row['max_entry_rel_diff']}")
        expect(row["closed_kkt_residual"] <= 1e-8, f"verify kkt {row['closed_kkt_residual']}")


class CityScale(Workload):
    """Closed form, its KKT residual, CELP and evaluate on 1000-location cities."""

    name = "city-scale"
    round_size = CITY_POOL
    tail_percentile = 95.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cities = [random_city(rng) for _ in range(CITY_POOL)]
        self.scenarios = [to_scenario(inst) for inst in self.cities]
        for k in range(CITY_POOL):
            self.op(k)

    def op(self, k: int):
        scenario = self.scenarios[k % CITY_POOL]
        report = allocator.solve_closed_form(scenario)
        residual = solver.kkt_residual(scenario, report.allocation)
        celp = allocator.celp_rule(scenario, CITY_GAMMA)
        return report, residual, celp, model.evaluate(scenario, celp)

    def check(self, k: int, output) -> None:
        inst = self.cities[k % CITY_POOL]
        report, residual, celp, evaluation = output
        check_optimum_report(inst, report, REL)
        optimal = check_evaluation(inst, report.allocation, report.evaluation, "optimum")
        expect(ref.relative_stationarity(inst, *to_arrays(inst, report.allocation)) <= 1e-8,
               "optimum is not stationary")
        expect(residual <= 1e-8, f"kkt_residual {residual} > 1e-8 at the closed form")
        celp_local, celp_central = to_arrays(inst, celp)
        exp_local, exp_central = ref.celp(inst, CITY_GAMMA)
        expect_close(celp_local, exp_local, REL, "CELP local entries")
        expect_close(celp_central, exp_central, REL, "CELP central entries")
        heuristic = check_evaluation(inst, celp, evaluation, "CELP")
        expect(optimal.overall <= heuristic.overall, "CELP beats the optimum")


def oracle_instances() -> list[ref.Instance]:
    """The fixed oracle list: the ranges of acceptance test c08, every size from 2 to 40
    locations twice."""
    rng = np.random.default_rng(ORACLE_LIST_SEED)
    return [random_instance(rng, 2 + i % 39, 1 + i % 3, 1 + (i // 3) % 2, (0.0, 8.0))
            for i in range(ORACLE_LIST_SIZE)]


class Oracle(Workload):
    """solve_numerical over the fixed list, in whole passes starting at a seeded offset."""

    name = "oracle"
    round_size = ORACLE_LIST_SIZE
    tail_percentile = 99.0

    def setup(self) -> None:
        self.instances = oracle_instances()
        self.scenarios = [to_scenario(inst) for inst in self.instances]
        self.offset = self.seed % ORACLE_LIST_SIZE
        for scenario in self.scenarios:
            model.entry_keys(scenario)  # fills the design cache
        self.op(0)

    def op(self, k: int):
        return solver.solve_numerical(self.scenarios[(self.offset + k) % ORACLE_LIST_SIZE])

    def check(self, k: int, output) -> None:
        check_optimum_report(self.instances[(self.offset + k) % ORACLE_LIST_SIZE], output, 1e-6)


class CliCold(Workload):
    """One fresh ``python -m choicealloc solve <bundled file>`` per operation."""

    name = "cli-cold"
    tail_percentile = 90.0

    def setup(self) -> None:
        self.path = cli.bundled_scenario_path()
        self.inst, _ = ref.instance_from_json(self.path)
        self.env = program_env()
        self.child_peak_kb = 0
        self.op(-1)

    def op(self, k: int):
        with subprocess.Popen([sys.executable, "-m", "choicealloc", "solve", self.path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
                              cwd=ROOT, text=True) as proc:
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if k >= 0:
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def peak_rss_kb(self) -> int:
        """The largest peak among the timed children: they do the work."""
        return self.child_peak_kb

    def check(self, k: int, output) -> None:
        code, out, err = output
        expect(code == 0, f"solve exited {code}: {err.strip()}")
        ref.expect_row(ref.parse_csv(out)["OPTIMAL"], ref.solution_row(self.inst, *ref.optimum(self.inst)),
                       REL, "cold solve")


WORKLOADS = {w.name: w for w in (PaperTables, CityScale, Oracle, CliCold)}
