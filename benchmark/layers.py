"""Traced run: spans around each layer's public functions, and the per-layer metrics.

Wrappers are installed from the benchmark's side only, wherever a choicealloc module
binds the traced name (``allocator.evaluate`` inside ``best_gamma``, for instance),
and only in a traced run. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference as ref
import workloads as wl
from choicealloc import allocator, cli, experiments, model, simulate, solver

OUT = Path(__file__).resolve().parent / "out"

TRACED = {
    model: ("evaluate", "entry_keys"),
    allocator: ("solve_closed_form", "cle_rule", "celp_rule", "best_gamma"),
    solver: ("solve_numerical", "kkt_residual"),
    simulate: ("sample_choices",),
    experiments: ("attractiveness_sweep", "rule_comparison_table",
                  "attractiveness_scaling_table", "budget_for_target"),
    cli: ("run", "load_scenario"),
}

LADDER = (2, 100, 1000, 3000)
LADDER_MIN_REPS = 3
LADDER_MIN_SECONDS = 0.3
FRESH_DESIGNS = 5
PROBE_SECONDS = 0.5
TABLE_REPS = 5
IMPORT_REPS = 3
INTERPRETER_REPS = 5
IMPORTED_MODULES = ("model", "allocator", "_parallel", "experiments", "simulate", "solver", "cli")
IMPORTED_STDLIB = ("concurrent.futures", "argparse", "csv")
TOUR = ("solve", "evaluate", "compare", "compare-grid", "sweep", "scale", "budget-for",
        "simulate", "verify")


def _metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [("trace.op_p50_ms", "ms", "lower")]
    out += [(f"cli.run.{c}_ms", "ms", "lower") for c in TOUR]
    out += [("cli.load_scenario_ms", "ms", "lower"), ("cli.interpreter_ms", "ms", "lower"),
            ("import.numpy_ms", "ms", "lower"), ("import.choicealloc_ms", "ms", "lower")]
    out += [(f"import.choicealloc.{m}_ms", "ms", "lower") for m in IMPORTED_MODULES]
    out += [(f"import.{m}_ms", "ms", "lower") for m in IMPORTED_STDLIB]
    out += [(f"experiments.{f}_ms", "ms", "lower") for f in TRACED[experiments]]
    out += [("allocator.best_gamma_ms", "ms", "lower"),
            ("allocator.best_gamma.self_ms", "ms", "lower"),
            ("allocator.best_gamma.evaluate_calls", "count", "lower")]
    for fn in ("allocator.solve_closed_form", "model.evaluate"):
        out += [(f"{fn}.L{n}_ms", "ms", "lower") for n in LADDER]
        out += [(f"{fn}.L{n}_peak_mb", "MB", "lower") for n in LADDER]
        out += [(f"{fn}.growth", "slope", "lower")]
    out += [("allocator.celp_rule.L1000_ms", "ms", "lower"),
            ("model.scenario.L1000_ms", "ms", "lower"),
            ("model.evaluate.calls_per_op", "count", "lower"),
            ("model.entry_keys.first_L1000_ms", "ms", "lower"),
            ("model.design.L1000_bytes", "bytes", "lower"),
            ("solver.solve_numerical_p50_ms", "ms", "lower"),
            ("solver.solve_numerical_tail_ms", "ms", "lower"),
            ("solver.convergence_errors", "count", "lower"),
            ("solver.kkt_residual.L1000_ms", "ms", "lower"),
            ("simulate.sample_choices_ms", "ms", "lower"),
            ("simulate.draws_per_s", "1/s", "higher")]
    return out


PER_LAYER = _metrics()


class Tracer:
    """Spans (name, start, end, parent, error) in flat arrays; a stack gives the parent."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name, self.parent, self.error = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack: list[int] = []
        self.installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.error.append(-1)
        self.end.append(math.nan)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()
        if error is not None:
            self.error[index] = self._id(type(error).__name__)

    def wrap(self, fn, name: str, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(label(args) if label else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, exc)
                raise
            self.close(index)
            return result

        return traced

    def install(self) -> None:
        """Wrap each traced function in every choicealloc module that binds it."""
        bound = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "choicealloc"]
        for module, names in TRACED.items():
            short = module.__name__.split(".")[-1]
            for fname in names:
                original = getattr(module, fname)
                label = _cli_label if (module, fname) == (cli, "run") else None
                traced = self.wrap(original, f"{short}.{fname}", label)
                for m in bound:
                    if getattr(m, fname, None) is original:
                        setattr(m, fname, traced)
                        self.installed.append((m, fname, original))

    def uninstall(self) -> None:
        for m, fname, original in reversed(self.installed):
            setattr(m, fname, original)
        self.installed.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Span arrays plus each span's root and self time (duration minus its children)."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(parent))
        root = np.arange(len(parent))
        for i in np.flatnonzero(has_parent):  # parents precede their children
            root[i] = root[parent[i]]
        return {"name": np.frombuffer(self.name, dtype=np.int32), "parent": parent,
                "duration": duration, "self": duration - children, "root": root,
                "error": np.frombuffer(self.error, dtype=np.int32)}

    def write(self, path: Path, t: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as stream:
            stream.write("name,start_s,end_s,parent,error\n")
            for i in range(len(self.start)):
                error = self.names[self.error[i]] if self.error[i] >= 0 else ""
                stream.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                             f"{self.end[i]:.9f},{self.parent[i]},{error}\n")
        summary = {}
        for nid, name in enumerate(self.names):
            mask = t["name"] == nid
            if mask.any():
                summary[name] = {"count": int(mask.sum()),
                                 "total_ms": float(t["duration"][mask].sum() * 1e3),
                                 "self_ms": float(t["self"][mask].sum() * 1e3)}
        path.with_name(path.name.replace(".csv.gz", ".summary.json")).write_text(
            json.dumps(summary, indent=1) + "\n")


def _cli_label(args) -> str:
    argv = list(args[0])
    command = "compare-grid" if argv[:1] == ["compare"] and "grid" in argv else argv[0]
    return f"cli.run.{command}"


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples) if len(samples) else math.nan


def _timed(fn) -> float:
    """Median seconds of fn over at least LADDER_MIN_REPS calls and LADDER_MIN_SECONDS."""
    times, spent = [], 0.0
    while len(times) < LADDER_MIN_REPS or spent < LADDER_MIN_SECONDS:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
        spent += times[-1]
    return statistics.median(times)


def _peak_mb(fn) -> float:
    """Peak memory fn allocates beyond what was live before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def ladder(seed: int) -> dict[str, float]:
    """solve_closed_form and evaluate at each size (2 local, 1 central resource)."""
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for n in LADDER:
        inst = wl.random_instance(rng, n, 2, 1, (0.5, 8.0))
        inst = replace(inst, budget=ref.budget_for(inst, 0.25))
        t = time.perf_counter()
        scenario = wl.to_scenario(inst)
        if n == 1000:
            out["model.scenario.L1000_ms"] = 1e3 * (time.perf_counter() - t)
        report = allocator.solve_closed_form(scenario)  # builds the design once
        calls = {"allocator.solve_closed_form": lambda: allocator.solve_closed_form(scenario),
                 "model.evaluate": lambda: model.evaluate(scenario, report.allocation)}
        for name, fn in calls.items():
            out[f"{name}.L{n}_ms"] = 1e3 * _timed(fn)
            out[f"{name}.L{n}_peak_mb"] = _peak_mb(fn)
    for name in ("allocator.solve_closed_form", "model.evaluate"):
        out[f"{name}.growth"] = math.log(out[f"{name}.L3000_ms"] / out[f"{name}.L100_ms"]) / math.log(30)
    return out


def fresh_designs(tracer: Tracer, seed: int) -> dict[str, float]:
    """entry_keys on never-seen 1000-location cities: the design build, and what it keeps."""
    rng = np.random.default_rng(seed + 1)
    scenarios = [wl.to_scenario(wl.random_city(rng)) for _ in range(FRESH_DESIGNS + 1)]
    root = tracer.open("probe.fresh-design")
    for scenario in scenarios[1:]:
        model.entry_keys(scenario)
    tracer.close(root)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.entry_keys(scenarios[0])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {"model.design.L1000_bytes": float(kept)}


def import_times() -> dict[str, float]:
    """Import times from ``python -X importtime`` of the CLI module, median of runs."""
    runs = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import choicealloc.cli"],
                              cwd=wl.ROOT, env=wl.program_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        seen: dict[str, tuple[float, float]] = {}
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                seen.setdefault(parts[2].strip(), (int(parts[0]) / 1e3, int(parts[1]) / 1e3))
        runs.append(seen)

    def median(module: str, column: int) -> float:
        return statistics.median(r[module][column] if module in r else 0.0 for r in runs)

    out = {"import.numpy_ms": median("numpy", 1), "import.choicealloc_ms": median("choicealloc", 1)}
    out.update({f"import.choicealloc.{m}_ms": median(f"choicealloc.{m}", 0) for m in IMPORTED_MODULES})
    out.update({f"import.{m}_ms": median(m, 1) for m in IMPORTED_STDLIB})
    times = []
    for _ in range(INTERPRETER_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - t)
    out["cli.interpreter_ms"] = _median_ms(times)
    return out


def probe(tracer: Tracer, cls, seed: int) -> None:
    """One checked round of another workload, traced under probe.<name>."""
    workload = cls(seed)
    root = tracer.open(f"setup.{workload.name}")
    workload.setup()
    tracer.close(root)
    result = wl.measure(workload, PROBE_SECONDS, tracer, "probe")
    if result["failed"]:
        print(f"probe {workload.name}: {result['failed']} failed", file=sys.stderr)


def per_layer(tracer: Tracer, workload, result: dict) -> dict:
    """Per-layer metrics of a traced run of ``workload``, plus the fixed probes."""
    for cls in wl.WORKLOADS.values():
        if cls is not wl.CliCold:
            probe(tracer, cls, workload.seed)
    root = tracer.open("probe.experiments")
    for _ in range(TABLE_REPS):  # the one table the CLI tour does not build
        experiments.rule_comparison_table(experiments.paris_scenario())
    tracer.close(root)
    values = fresh_designs(tracer, workload.seed)
    tracer.uninstall()
    values.update(ladder(workload.seed))
    values.update(import_times())

    t = tracer.table()
    root_name = t["name"][t["root"]]

    def spans(name: str, under: str | None = None) -> np.ndarray:
        """Spans called name; with under, only those below the timed operations of
        that workload, in the run's loop or in a probe."""
        mask = t["name"] == tracer.ids.get(name, -1)
        if under is not None:
            mask &= np.isin(root_name, [tracer.ids.get(f"{r}.{under}", -1) for r in ("loop", "probe")])
        return mask

    def median_ms(name: str, under: str | None = None, column: str = "duration") -> float:
        return _median_ms(t[column][spans(name, under)])

    values["trace.op_p50_ms"] = 1e3 * statistics.median(result["latencies"])
    for command in TOUR:
        values[f"cli.run.{command}_ms"] = median_ms(f"cli.run.{command}")
    values["cli.load_scenario_ms"] = median_ms("cli.load_scenario")
    for fname in TRACED[experiments]:
        values[f"experiments.{fname}_ms"] = median_ms(f"experiments.{fname}")
    values["allocator.best_gamma_ms"] = median_ms("allocator.best_gamma")
    values["allocator.best_gamma.self_ms"] = median_ms("allocator.best_gamma", column="self")

    evaluate_children = np.bincount(t["parent"][spans("model.evaluate") & (t["parent"] >= 0)],
                                    minlength=len(t["parent"]))
    values["allocator.best_gamma.evaluate_calls"] = float(
        np.median(evaluate_children[spans("allocator.best_gamma")]))
    values["allocator.celp_rule.L1000_ms"] = median_ms("allocator.celp_rule", "city-scale")
    values["solver.kkt_residual.L1000_ms"] = median_ms("solver.kkt_residual", "city-scale")
    values["model.entry_keys.first_L1000_ms"] = _median_ms(
        t["duration"][spans("model.entry_keys") & (root_name == tracer.ids["probe.fresh-design"])])

    if workload.name == "cli-cold":  # the same command in-process stands for the child
        per_op = np.median(_descendants(t, spans("model.evaluate"))[spans("cli.run.solve")])
    else:
        loop = tracer.ids[f"loop.{workload.name}"]
        per_op = np.sum(spans("model.evaluate") & (root_name == loop)) / np.sum(t["name"] == loop)
    values["model.evaluate.calls_per_op"] = float(per_op)

    oracle = spans("solver.solve_numerical", "oracle")
    solve_ms = 1e3 * t["duration"][oracle]
    values["solver.solve_numerical_p50_ms"] = float(np.median(solve_ms))
    values["solver.solve_numerical_tail_ms"] = float(np.percentile(solve_ms, 90))
    values["solver.convergence_errors"] = float(
        np.sum(oracle & (t["error"] == tracer.ids.get("ConvergenceError", -2))))
    sample_ms = median_ms("simulate.sample_choices")
    values["simulate.sample_choices_ms"] = sample_ms
    values["simulate.draws_per_s"] = wl.SIMULATE_DRAWS / (sample_ms / 1e3)

    tracer.write(OUT / f"trace-{workload.name}-seed{workload.seed}.csv.gz", t)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _descendants(t: dict[str, np.ndarray], mask: np.ndarray) -> np.ndarray:
    """For every span, how many spans selected by mask lie anywhere below it."""
    counts = np.zeros(len(mask), dtype=np.int64)
    parent = t["parent"]
    for i in np.flatnonzero(mask):
        p = parent[i]
        while p >= 0:
            counts[p] += 1
            p = parent[p]
    return counts
