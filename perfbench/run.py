"""Benchmark of mapforms: run a workload and print its metrics.

    python3 perfbench/run.py --workload two-route --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; mapforms is imported from src/.
Each workload runs in its own fresh process with BLAS/OpenMP threads pinned
to 1.  Set-up time is the median, over several fresh launches, of the time
from starting the interpreter to the inputs being built.  The last line of
output is one JSON object: correct, attempted, failed, and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  With
--workload all there is one such line per workload, with its name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("two-route", "verify-suites", "spectral", "point-calculus")
SETUP_LAUNCHES = 5          # fresh launches behind setup_s, the timed run included
DEADLINE_S = 170.0          # one workload, all its launches included
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def launch(args, deadline: float) -> tuple:
    """Start worker.py, time it up to its READY line and return
    (set-up seconds, parsed final JSON line or None).  The worker is killed
    at the perf_counter time `deadline`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **PINNED)
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise WorkerError("out of time before launching a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    deadline = time.perf_counter() + DEADLINE_S
    setup = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setup.append(launch(common + ["--probe"], deadline)[0])
    ready_s, res = launch(common + ["--seconds", str(seconds), "--trace", str(trace)],
                          deadline)
    setup.append(ready_s)
    if res is None:
        raise WorkerError(f"worker for {name} printed no result")
    for problem in res["problems"]:
        print(f"{name}: {problem}", file=sys.stderr)
    before, after = res["reference_s"]
    items = sorted(res["item_ms"])
    print(f"{name}: {len(items)} timed items, {items[0]:.1f} to {items[-1]:.1f} ms"
          f" (warm-up {res['warmup_ms']:.1f} ms); set-up launches"
          f" {', '.join(f'{s:.3f}' for s in setup)} s; machine reference kernel"
          f" {before:.4f} s before, {after:.4f} s after")
    if trace:
        print(f"{name}: {res['spans']} spans kept, {res['spans_dropped']} dropped;"
              f" tracing overhead {res['layers']['trace.overhead_pct']:.1f} %")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "items_per_s": {"value": res["items_per_s"], "unit": "items/s"},
            "item_p50_ms": {"value": res["item_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def unit_of(metric: str) -> str:
    for suffix, unit in (("_calls", "count"), ("_pairings", "count"), ("_ms", "ms"),
                         ("_us_per_node", "us/node"), ("_us", "us"), ("_pct", "%"),
                         ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mapforms" / "__init__.py").is_file():
        print(f"error: no mapforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
