"""End-to-end benchmark of the AM-DGCNN system.

One run of one workload, from the root of a checkout::

    python3 e2ebench/run.py --workload train --seed 1 --seconds 30 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` first runs the same workload untraced in a child process, then
traced, and reports the per-layer metrics, among them the tracing overhead.
Spans of a traced run are written to ``.e2ebench-out/``.

Steadiness mode runs every workload in fresh processes, seeds 1..N, with
the workload order alternating from round to round, and prints each
end-to-end metric's median, quartiles and spread next to its bound::

    python3 e2ebench/run.py --steady 10 [--seconds 30]

The program is imported from ``src/`` of the same checkout; BLAS is pinned
to one thread per process before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "serve", "stream")
#: Fresh interpreters that time the import beside the run's own import.
IMPORT_CHILDREN = 2
_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fold_seed(seed: int) -> int:
    """NumPy seeds only from non-negative integers; fold any other into range."""
    return seed % 2**64


def _import_program() -> None:
    """Put ``src/`` of this checkout first on the path; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no program under {src}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _import_seconds() -> float:
    """Time one fresh interpreter takes to import the benchmark and the program."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT, str(HERE), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _child(workload: str, seed: int, seconds: float, trace: int, timeout: float) -> dict:
    """Run one workload in a fresh process and parse its result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed no result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _spec()
    _import_program()
    untraced = _child(workload, seed, seconds, 0, timeout=170) if trace else None
    t = time.perf_counter()
    import workloads
    from tracer import Tracer

    # setup_s is the median import time plus the median set-up.
    imports = [time.perf_counter() - t] + [_import_seconds() for _ in range(IMPORT_CHILDREN)]
    tracer = Tracer() if trace else None
    outcome = workloads.RUNNERS[workload](seed, seconds, tracer)
    outcome.metrics["setup_s"] += statistics.median(imports)

    if trace:
        tracer.write(ROOT / ".e2ebench-out" / f"trace-{workload}-seed{seed}.json")
        values = dict(outcome.layers)
        base = untraced["metrics"]["throughput_per_s"]["value"]
        values["trace.overhead_ratio"] = base / outcome.metrics["throughput_per_s"]
        wanted = spec["per_layer"]
    else:
        values = outcome.metrics
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload} produced no value for {missing}")
    for note in outcome.notes:
        sys.stderr.write(f"e2ebench {workload}: {note}\n")
    for problem in outcome.problems:
        sys.stderr.write(f"e2ebench {workload}: FAILED CHECK: {problem}\n")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def steady(runs: int, seconds: float) -> int:
    """Alternate-order repeated runs; print median, quartiles and spread."""
    spec = _spec()
    values = defaultdict(list)
    shares = defaultdict(set)
    ok = True
    for r in range(runs):
        for workload in WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]:
            t = time.perf_counter()
            result = _child(workload, r + 1, seconds, 0, timeout=600)
            wall = time.perf_counter() - t
            ok &= result["correct"]
            shares[workload].add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[workload, name].append(metric["value"])
            print(f"# round {r + 1} {workload} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for workload in WORKLOADS:
        for m in spec["end_to_end"]:
            vals = values[workload, m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(json.dumps({
                "workload": workload, "metric": m["name"], "unit": m["unit"], "runs": len(vals),
                "median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                "bound": m["bound"], "within_third": spread < m["bound"] / 3,
            }))
        print(json.dumps({"workload": workload, "failed_shares": sorted(shares[workload])}))
    return 0 if ok else 1


def main(argv=None) -> int:
    # Before anything imports NumPy; child processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="repeat every workload RUNS times (seeds 1..RUNS)")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args.steady, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args.workload, fold_seed(args.seed), args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
