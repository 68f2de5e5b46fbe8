"""Shows that the checks reject wrong outputs: each corrupted output must fail its check.

    python3 benchmark/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import json

import layers
import workloads as wl
from choicealloc import model
from reference import CheckFailed


def _replace_cell(text: str, label: str, column: str, new) -> str:
    """CSV text with one cell replaced; new is a function of the old cell text."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    col = header.index(column)
    for i, line in enumerate(lines):
        cells = line.rstrip("\r\n").split(",")
        if cells[0] == label:
            cells[col] = new(cells[col])
            lines[i] = ",".join(cells) + "\r\n"
    return "".join(lines)


def _corrupt_tour(output, command: str, label: str, column: str, new):
    corrupted = []
    for argv, code, out, err in output:
        if argv[0] == command:
            out = _replace_cell(out, label, column, new)
        corrupted.append((argv, code, out, err))
    return corrupted


def _perturb(report):
    local = dict(report.allocation.local)
    key = next(iter(local))
    local[key] *= 1.0 + 1e-6
    return dataclasses.replace(report, allocation=model.Allocation(local, report.allocation.central))


def _rejects(workload, k: int, output) -> bool:
    try:
        workload.check(k, output)
    except CheckFailed as exc:
        print(f"  rejected: {exc}")
        return True
    return False


def _names_match_benchmark_json() -> bool:
    """BENCHMARK.json lists exactly the metrics the benchmark prints."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    return (per_layer == layers.PER_LAYER and workloads == list(wl.WORKLOADS)
            and end_to_end == ["ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "setup_s"])


def run(seed: int) -> bool:
    paper = wl.PaperTables(seed)
    paper.setup()
    tour = paper.op(0)
    city = wl.CityScale(seed)
    city.setup()
    report, residual, celp, evaluation = city.op(0)

    cases = {
        "unchanged tour passes": not _rejects(paper, 0, tour),
        "unchanged city passes": not _rejects(city, 0, (report, residual, celp, evaluation)),
        "shifted CSV value is rejected": _rejects(paper, 0, _corrupt_tour(
            tour, "solve", "OPTIMAL", "x[campaign]", lambda v: repr(float(v) * (1.0 + 1e-6)))),
        "wrong gamma* is rejected": _rejects(paper, 0, _corrupt_tour(
            tour, "sweep", repr(1.0), "cle_gamma", lambda v: "0.18")),
        "perturbed allocation is rejected": _rejects(
            city, 0, (_perturb(report), residual, celp, evaluation)),
        "BENCHMARK.json matches the metrics printed": _names_match_benchmark_json(),
    }
    for case, ok in cases.items():
        print(f"{'ok' if ok else 'FAILED'}: {case}")
    return all(cases.values())
