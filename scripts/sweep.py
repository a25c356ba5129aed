#!/usr/bin/env python3
"""Headroom sweep: every record of the eight suites over seeds 0-87.

    python scripts/sweep.py

Runs all eight suites in process at seeds 0-87 on the default grids and
prints, for each record, the largest residual/tolerance over the seeds and
the seed where it occurs (a 0/1 gate reads 0, or 1e12 once it fails), then
lists the seeds at which some record fails.  A failing record is data, not
an error: the script exits 1 only if a suite raises, after printing its
traceback.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mapforms.suites import SUITES, SuiteConfig, run_suite  # noqa: E402

SEEDS = range(88)


def main() -> int:
    worst = {}   # record id -> (residual / tolerance, seed)
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
                ratio = r.residual / r.tolerance
                if r.test_id not in worst or ratio > worst[r.test_id][0]:
                    worst[r.test_id] = (ratio, seed)
                if not r.passed:
                    failing.setdefault(seed, []).append(r.test_id)
    print(f"{'record':40s}  {'max residual/tol':>16s}  seed")
    for test_id, (ratio, seed) in worst.items():
        print(f"{test_id:40s}  {ratio:16.3e}  {seed}")
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}: {len(failing)} with a failing record")
    for seed, ids in failing.items():
        print(f"  seed {seed}: {', '.join(ids)}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
