"""One workload in a fresh single-threaded process; started by run.py.

Prints ``READY`` as soon as the inputs are built (run.py times set-up up to
that line), then, unless it is a set-up probe, runs one untimed warm-up
item and the timed items, checks every output and prints one JSON line.
``items_per_s`` counts the timed items over the sum of their times, so the
checks between items are not part of it.

With --trace 1 it times a run of untraced items first, then installs the
tracer, rebuilds the inputs and times traced items; the per-layer metrics
are medians over the traced items and the tracing overhead compares the two
medians.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {"two-route": "two_route", "verify-suites": "verify_suites",
             "spectral": "spectral", "point-calculus": "point_calculus"}

_perf = time.perf_counter


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array NumPy work,
    the two kinds of work mapforms does; it tracks the machine's speed."""
    import numpy as np
    start = _perf()
    acc = 0.0
    for i in range(300_000):
        acc += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(20_000):
        a = np.sin(a) + 0.5
    return _perf() - start


def run_phase(mod, inputs, seconds: float, tracer=None, layer_metrics=None):
    """Run whole items until `seconds` have passed (at least one item),
    checking each item's outputs after it is timed, so that no outputs are
    kept.  Returns (item durations, problems, failed items, per-item layer
    metrics)."""
    durations, problems, layers = [], [], []
    failed = 0
    start = _perf()
    while True:
        if tracer is not None:
            tracer.begin_item(len(durations))
        t = _perf()
        try:
            out = mod.run_item(inputs)
        except Exception:   # a failed item is counted, not fatal
            traceback.print_exc()
            failed += 1
            out = None
        durations.append(_perf() - t)
        if tracer is not None:
            layers.append(layer_metrics(tracer))
        if out is not None:
            problems += [f"item {len(durations)}: {p}" for p in mod.check(inputs, out)]
        if _perf() - start >= seconds:
            break
    return durations, problems, failed, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit once the inputs are built")
    args = parser.parse_args(argv)

    t0 = _perf()
    mod = importlib.import_module(WORKLOADS[args.workload])
    import_s = _perf() - t0
    import mapforms
    if SRC.resolve() not in Path(mapforms.__file__).resolve().parents:
        print(f"error: imported mapforms from {mapforms.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    t1 = _perf()
    inputs = mod.build(args.seed)
    inputs_s = _perf() - t1
    print("READY", flush=True)
    if args.probe:
        return 0

    reference = [reference_kernel()]
    t2 = _perf()
    warm = mod.run_item(inputs)
    warmup_ms = (_perf() - t2) * 1e3
    problems = [f"warm-up: {p}" for p in mod.check(inputs, warm)]
    seconds = args.seconds / 2 if args.trace else args.seconds
    durations, found, failed, _ = run_phase(mod, inputs, seconds)
    problems += found
    result = {"attempted": len(durations), "failed": failed,
              "import_s": import_s, "inputs_s": inputs_s, "warmup_ms": warmup_ms,
              "item_ms": [d * 1e3 for d in durations],
              "item_p50_ms": statistics.median(durations) * 1e3,
              "items_per_s": len(durations) / sum(durations)}

    if args.trace:
        import tracer as tr
        from verify_suites import SUITE_IDS
        tracer = tr.Tracer()
        tr.install(tracer)
        inputs = mod.build(args.seed)
        durations, found, failed, layers = run_phase(
            mod, inputs, seconds, tracer, lambda t: tr.layer_metrics(t, SUITE_IDS))
        problems += found
        per_layer = {name: statistics.median(m[name] for m in layers)
                     for name in layers[0]}
        traced_p50 = statistics.median(durations) * 1e3
        per_layer["trace.overhead_pct"] = (traced_p50 / result["item_p50_ms"] - 1.0) * 100
        per_layer["setup.import_s"] = import_s
        per_layer["setup.inputs_s"] = inputs_s
        result["attempted"] += len(durations)
        result["failed"] += failed
        result["layers"] = per_layer
        result["spans"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"trace-{args.workload}-seed{args.seed}.csv")

    reference.append(reference_kernel())
    result.update(correct=not problems, problems=problems[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  reference_s=reference)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
