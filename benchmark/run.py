"""Benchmark for choicealloc: end-to-end metrics per workload, or per-layer metrics traced.

Run from the root of a checkout:

    python3 benchmark/run.py --workload paper-tables --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics and installs no
wrappers; ``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics. ``--smoke`` runs one checked operation of every workload and
``--self-test`` shows that the checks reject wrong outputs. See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before numpy and choicealloc are imported: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed in this many extra fresh processes besides the measuring one.
SETUP_CHILDREN = 6
SETUP_CHILD_TIMEOUT_S = 60


def import_program():
    """Put the checkout's src first on the path and import the workloads.

    Fails unless choicealloc comes from this checkout's src directory.
    """
    os.environ.pop("CHOICEALLOC_THREADS", None)
    sys.path.insert(0, str(SRC))
    import choicealloc

    if Path(choicealloc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"choicealloc imported from {choicealloc.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_in_children(workload: str, seed: int) -> list[float]:
    """Set-up time measured in fresh processes, one after another."""
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, result: dict, setup_times: list[float]) -> dict:
    peak_kb = workload.peak_rss_kb()  # before np.percentile, which adds 1.6 MB to a small process
    latencies = result["latencies"]
    ms = [t * 1e3 for t in latencies]
    return {
        "ops_per_s": metric(len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_tail_ms": metric(float(np.percentile(ms, workload.tail_percentile)), "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - T0
    result = workloads.measure(workload, seconds, tracer)
    if trace:
        metrics = layers.per_layer(tracer, workload, result)
    else:
        metrics = end_to_end(workload, result, [setup_s] + setup_in_children(name, seed))
    return {"correct": result["wrong"] == 0, "attempted": len(result["latencies"]),
            "failed": result["failed"], "metrics": metrics}


def smoke(workloads, seed: int) -> bool:
    """One checked operation of every workload."""
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed)
        workload.round_size = 1
        t = time.perf_counter()
        workload.setup()
        result = workloads.measure(workload, 0.0)
        print(f"{name}: {'ok' if result['failed'] == 0 else 'FAILED'} "
              f"(set-up and one operation {time.perf_counter() - t:.2f} s)")
        ok = ok and result["failed"] == 0
    return ok


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-tables")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation of each workload")
    parser.add_argument("--self-test", action="store_true", help="show the checks can fail")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.smoke:
        return 0 if smoke(workloads, args.seed) else 1
    if args.self_test:
        import selftest

        return 0 if selftest.run(args.seed) else 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    result = run_workload(workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
