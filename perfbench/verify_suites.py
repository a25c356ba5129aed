"""verify-suites: ``mapforms verify`` on all eight suites, as users run it.

One item runs the command through ``mapforms.cli.main`` at the default
config with a JSON report.  The checks: exit code 0, every expected record
id present and passed, every fitted refinement order at or above its
target, and reports byte-identical across the items of a run.

The verify seed comes from PASSING_SEEDS: at some other seeds
``hat-calculus`` or ``boundary`` fails for reasons recorded in CHANGES.md,
and such a seed-dependent failure cannot be part of a steady workload.

Print the expected record ids (to regenerate expected_ids.txt) with

    PYTHONPATH=src python3 perfbench/verify_suites.py > perfbench/expected_ids.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from mapforms import cli

NAME = "verify-suites"

SUITE_IDS = ("hat-calculus", "bar-calculus", "tilda-calculus", "fiber-rules",
             "boundary", "momentum", "cocycles", "branes")
PASSING_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 11, 13, 14, 15, 16)
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


@dataclass
class Inputs:
    verify_seed: int
    expected_ids: list
    items: int = 0
    first_report: bytes = b""


def build(seed: int) -> Inputs:
    OUT_DIR.mkdir(exist_ok=True)
    ids = (HERE / "expected_ids.txt").read_text().split()
    return Inputs(PASSING_SEEDS[seed % len(PASSING_SEEDS)], ids)


def _argv(seed: int, out: Path) -> list:
    suites = [a for s in SUITE_IDS for a in ("--suite", s)]
    return ["verify", *suites, "--seed", str(seed), "--out", str(out)]


def run_item(inputs: Inputs):
    out = OUT_DIR / f"verify-{os.getpid()}-{inputs.items}.json"
    inputs.items += 1
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(_argv(inputs.verify_seed, out))
    return code, out


def check(inputs: Inputs, outputs) -> list:
    code, path = outputs
    data = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    if code != 0:
        return [f"exit code {code}"]
    if not inputs.first_report:
        inputs.first_report = data
    problems = []
    if data != inputs.first_report:
        problems.append("report differs from the first report of the run")
    report = json.loads(data)
    records = report["records"]
    ids = [r["test_id"] for r in records]
    if sorted(ids) != sorted(inputs.expected_ids):
        missing = sorted(set(inputs.expected_ids) - set(ids))
        extra = sorted(set(ids) - set(inputs.expected_ids))
        problems.append(f"record ids differ: missing {missing}, unexpected {extra}")
    failed = [r["test_id"] for r in records if not r["passed"]]
    if failed or not report["passed"]:
        problems.append(f"failed records {failed}")
    low = [r["test_id"] for r in records
           if r["order"] is not None and r["order_target"] is not None
           and not r["order"] >= r["order_target"]]
    if low:
        problems.append(f"fitted order below target: {low}")
    return problems


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"ids-{os.getpid()}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(_argv(PASSING_SEEDS[0], out))
    records = json.loads(out.read_text())["records"]
    out.unlink()
    print("\n".join(r["test_id"] for r in records))
    return code


if __name__ == "__main__":
    sys.exit(main())
