#!/usr/bin/env python3
"""Print the functions of the mapforms package that no command, demo or
benchmark workload enters.

    python scripts/reach.py

In one process, under `sys.settrace`, it runs:

- `mapforms verify` on all eight suites at seeds 0 and 3 (the seed-3
  report as CSV), and at seed 0 with `--nodes 32`;
- `mapforms demo mw-links|dualpair|branes` at seed 7;
- `mapforms converge` for the four identities, at the levels of the
  witness set (scripts/witness.py);
- every `demos/*.py`;
- one build, item and check of the perfbench workloads point-calculus,
  spectral and two-route.

It then prints every function defined under src/mapforms (methods and
nested functions included, lambdas not) whose code none of these ran, one
`module:line qualified.name` per line, and their count.  A function listed
here is reached by tests alone.  Commands write into a temporary directory,
and their stdout is discarded, so nothing is written into the repository.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "mapforms"
WORKLOADS = ("point_calculus", "spectral", "two_route")


def defined_functions() -> dict:
    """(file, first line) -> "module:line qualified.name" of every def under
    src/mapforms.  The first line is that of the first decorator, as in
    the code object's co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(str(path), first)] = f"{path.stem}:{child.lineno} {name}"
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), "")
    return found


def _runs(tmp: Path):
    """The callables whose work counts as a non-test use of the package.
    The package and witness.py, which imports it, are imported here, under
    the trace, so that functions run at import time count as entered."""
    from mapforms import cli
    from mapforms.suites import SUITES
    from witness import CONVERGE

    suites = [a for s in SUITES for a in ("--suite", s)]
    for seed, extra in ((0, []), (3, ["--format", "csv"]), (0, ["--nodes", "32"])):
        yield lambda seed=seed, extra=extra: cli.main(
            ["verify", "--seed", str(seed), *extra, *suites, "--out", str(tmp / "report")])
    for name in ("mw-links", "dualpair", "branes"):
        yield lambda name=name: cli.main(["demo", name, "--seed", "7", "--out", str(tmp / name)])
    for identity, levels in CONVERGE:
        argv = ["converge", "--identity", identity] + (["--levels", levels] if levels else [])
        yield lambda argv=argv: cli.main(argv)
    for script in sorted((REPO / "demos").glob("*.py")):
        yield lambda script=script: runpy.run_path(str(script), run_name="__main__")
    sys.path.insert(0, str(REPO / "perfbench"))
    for workload in WORKLOADS:
        def item(workload=workload):
            mod = __import__(workload)
            inputs = mod.build(0)
            problems = mod.check(inputs, mod.run_item(inputs))
            if problems:
                raise RuntimeError(f"{workload}: {problems}")
        yield item


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    functions = defined_functions()
    files = {path for path, _ in functions}
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno))
        return None

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="mapforms-reach-") as tmp:
        os.chdir(tmp)
        sys.settrace(trace)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for run in _runs(Path(tmp)):
                    run()
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    missed = sorted((label for key, label in functions.items() if key not in entered),
                    key=lambda s: (s.split(":")[0], int(s.split(":")[1].split()[0])))
    for label in missed:
        print(label)
    print(f"{len(missed)} of {len(functions)} functions under src/mapforms are entered "
          "by no command, demo or benchmark workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
