#!/usr/bin/env python3
"""Headroom sweep: every record of the eight suites over seeds 0-87.

    python scripts/sweep.py

Runs all eight suites in process at seeds 0-87 on the default grids and
prints, for each record, the largest residual/tolerance over the seeds and
the seed where it occurs (a 0/1 gate reads 0, or 1e12 once it fails), then
lists the seeds at which some record fails.  A NaN or infinite ratio is the
worst of its record, at the first seed where it occurs.  A failing record
is data, not an error: the script exits 1 only if a suite raises, after
printing its traceback, or if some record's residual is not finite.
"""

from __future__ import annotations

import math
import sys
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mapforms.suites import SUITES, SuiteConfig, run_suite  # noqa: E402

SEEDS = range(88)


def main() -> int:
    ratios = {}   # record id -> (residual / tolerance, seed) at every seed
    failing = {}  # seed -> ids of its failing records
    raised = 0
    for seed in SEEDS:
        config = SuiteConfig(seed=seed)
        for name in SUITES:
            try:
                records = run_suite(name, config)
            except Exception:
                print(f"suite {name} raised at seed {seed}", file=sys.stderr)
                traceback.print_exc()
                raised += 1
                continue
            for r in records:
                ratios.setdefault(r.test_id, []).append((r.residual / r.tolerance, seed))
                if not r.passed:
                    failing.setdefault(seed, []).append(r.test_id)
    print(f"{'record':40s}  {'max residual/tol':>16s}  seed")
    non_finite = []
    for test_id, cases in ratios.items():
        # argmax takes the first NaN, else the first largest ratio
        ratio, seed = cases[int(np.argmax([ratio for ratio, _ in cases]))]
        print(f"{test_id:40s}  {ratio:16.3e}  {seed}")
        if not math.isfinite(ratio):
            non_finite.append(f"{test_id} at seed {seed}")
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}: {len(failing)} with a failing record")
    for seed, ids in failing.items():
        print(f"  seed {seed}: {', '.join(ids)}")
    if non_finite:
        print(f"non-finite residual: {'; '.join(non_finite)}", file=sys.stderr)
    return 1 if raised or non_finite else 0


if __name__ == "__main__":
    sys.exit(main())
