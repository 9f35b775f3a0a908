#!/usr/bin/env python3
"""stimkit benchmark: one workload, driven through ``stimkit.cli.main``.

    python3 perfbench/run.py --workload cv-train --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads: cv-train, predict-clips,
flow-pairs. The inputs are generated from ``--seed`` three times in
separate processes (the median is ``setup_s``); then one caller runs the
workload's stimkit command back to back for ``--seconds`` and checks
every output.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead runs
a fixed amount of every workload twice, untraced and with each stimkit
layer wrapped in a span, and prints the per-layer metrics (every
workload under its own prefix) and the tracing overhead.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when an output or
call-count check fails, and 2 when the stimkit sources are missing.
A results file with the environment record is written under
``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv-train", "predict-clips", "flow-pairs")
SETUP_REPEATS = 3

# unit of each end-to-end metric; op is one cv run, one predict call, or
# one frame pair through flowviz --method lk and --method dense. With one
# closed-loop caller, ops_per_s is the reciprocal of the mean op latency.
# The p50/p90 latencies are printed but not reported: this host's speed
# drifts between slow and fast phases, and a run's median lands in one
# phase or the other, while the mean moves in proportion to the mix.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int, dest: Path) -> float:
    """Generate inputs in a fresh process; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_inputs.py"), workload, str(seed), str(dest)],
        cwd=ROOT, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return seconds


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, env=env)
    except FileNotFoundError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np

    import stimkit.backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "backend": stimkit.backend.active_backend(),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src" / "stimkit"),
    }


def run_timed(workload, seed, seconds, work, tally):
    import workloads

    setup_times = []
    digests = set()
    for i in range(SETUP_REPEATS):
        dest = work / f"setup_{i}"
        setup_times.append(setup(workload, seed, dest))
        digests.add(tree_digest(dest))
    if len(digests) > 1:
        tally.problem(f"{workload}: set-up wrote different inputs for one seed")
    latencies, named = workloads.MEASURE[workload](work / "setup_0", seed, seconds, tally)
    latency = workloads.latency_metrics(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": latency["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named["ops"] = (len(latencies), "count")
    named["op_p50_ms"] = (latency["op_p50_ms"], "ms")
    named["op_p90_ms"] = (latency["op_p90_ms"], "ms")
    named["fail_ratio"] = (tally.failed / max(1, tally.attempted), "ratio")
    detail = {"setup_s_each": setup_times, "op_latencies_s": latencies, "named": named}
    return metrics, END_TO_END, detail


def run_traced(seed, work, tally):
    import tracer
    import workloads

    metrics = {"trace.span_cost_us": tracer.span_cost_seconds() * 1e6}
    for workload in WORKLOADS:
        dest = work / workload
        setup(workload, seed, dest)
        metrics.update(workloads.TRACE[workload](dest, seed, tally))
    units = dict(workloads.per_layer_names())
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        tally.problem(f"per-layer metrics missing or unlisted: {sorted(mismatch)}")
    return metrics, units, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/stimkit/cli.py", "benchmarks/bench_backends.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; run from a stimkit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics, units, detail = run_traced(args.seed, work, tally)
        else:
            metrics, units, detail = run_timed(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not tally.problems and tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    env = environment()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"run": vars(args), "environment": env, "problems": tally.problems, "result": result, "detail": detail}
    (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in sorted(detail.get("named", {}).items()):
        print(f"{name} {value:.6g} {unit}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
