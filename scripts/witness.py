#!/usr/bin/env python3
"""Print one SHA-256 digest per artifact of the byte-identity witness set.

    python scripts/witness.py > digests.txt

Two checkouts whose digest lists match produce the same reports, tables
and printed values.  The witness set is:

- the JSON report and stdout of `mapforms verify` on all eight suites at
  seeds 0-23, and at seeds 0 and 7 with `--nodes 32`;
- every file and the stdout of `mapforms demo mw-links|dualpair|branes`
  at seed 7;
- the stdout of each `demos/*.py`;
- the CSV and JSON tables and stdout of `mapforms converge` for
  `derivation-circle` at 32,64,128,256 and at 64, `derivation-torus` at
  256,1024,4096, `two-route-circle` and `quadrature-circle`.

Every command runs from a temporary directory with PYTHONPATH pointing at
this checkout's `src/`, so nothing is written into the repository.  The
script stops at the first command that exits non-zero, prints that
command's `[FAIL]` lines and exits 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from mapforms.suites import SUITES  # noqa: E402

CONVERGE = (
    ("derivation-circle", "32,64,128,256"),
    ("derivation-circle", "64"),
    ("derivation-torus", "256,1024,4096"),
    ("two-route-circle", None),
    ("quadrature-circle", None),
)


def _commands():
    """(artifact label, argv after the interpreter, files the command writes)."""
    cli = ["-m", "mapforms.cli"]
    suites = [a for s in SUITES for a in ("--suite", s)]
    runs = [(seed, []) for seed in range(24)] + [(0, ["--nodes", "32"]), (7, ["--nodes", "32"])]
    for seed, extra in runs:
        label = f"verify-seed{seed}" + "".join(extra).replace("--", "-")
        out = f"{label}.json"
        yield label, cli + ["verify", "--seed", str(seed), *extra, *suites, "--out", out], [out]
    for name in ("mw-links", "dualpair", "branes"):
        label = f"demo-{name}"
        yield label, cli + ["demo", name, "--seed", "7", "--out", label], [label]
    for script in sorted((REPO / "demos").glob("*.py")):
        yield script.name, [str(script)], []
    for identity, levels in CONVERGE:
        label = f"converge-{identity}" + (f"-{levels}" if levels else "")
        argv = cli + ["converge", "--identity", identity]
        argv += ["--levels", levels] if levels else []
        for fmt in ("csv", "json"):
            out = f"{label}.{fmt}"
            yield f"{label}-{fmt}", argv + ["--format", fmt, "--out", out], [out]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    with tempfile.TemporaryDirectory(prefix="mapforms-witness-") as tmp:
        for label, argv, outputs in _commands():
            proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                                  capture_output=True)
            if proc.returncode != 0:
                text = proc.stdout.decode(errors="replace").splitlines()
                fails = [line for line in text if line.startswith("[FAIL]")]
                print(f"{label}: exit {proc.returncode}", file=sys.stderr)
                print("\n".join(fails or proc.stderr.decode(errors="replace")
                                .splitlines()[-20:]), file=sys.stderr)
                return 1
            print(f"{_digest(proc.stdout)}  {label}:stdout", flush=True)
            for name in outputs:
                path = Path(tmp) / name
                files = sorted(path.iterdir()) if path.is_dir() else [path]
                for f in files:
                    rel = f.relative_to(tmp).as_posix()
                    print(f"{_digest(f.read_bytes())}  {label}:{rel}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
