"""The finite-data rule: a NaN case is never outvoted and never passes a gate.

An AST scan of src/mapforms and tests/ finds the three idioms that let a
NaN through:

- a builtin `max` or `min` over a single iterable, which drops a NaN that
  does not come first (`max([1.0, nan])` is 1.0);
- a running accumulator `x = max(x, ...)`, where `max(0.0, nan)` is 0.0;
- an `if` test that is a bare ordering comparison (alone or inside
  `and`/`or`, not under `not`) against a float literal or an upper-case
  module constant, since every such comparison is False for NaN.

Cases combine through `charts.worst`, and a gate refuses unless its pass
condition holds (`if not x <= TOL: raise`).  Each site that keeps an idiom
is listed in ALLOWED with its reason.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src/mapforms", "tests")
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

# "path: source line" of each allowed site, and why NaN cannot slip through it
ALLOWED = {
    "src/mapforms/domains.py: if self.periods is not None and n > MATRIX_MAX_NODES:":
        "an integer node count picks the differentiation route",
    "src/mapforms/domains.py: if n < MIN_INTERVAL_NODES:":
        "an integer node count, checked where the interval is built",
    "tests/test_acceptance.py: worst = max(records, key=lambda r: r.residual / max(r.tolerance, 1e-300))":
        "picks the record the message names; the verdict is all(r.passed)",
    "tests/test_grassmannian.py: loop = min(np.linalg.svd(J, compute_uv=False)[-1] for J in T.jacobian())":
        "a per-node reference that the test compares with ==, which a NaN fails",
}


def _threshold(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return ((isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Name) and node.id.isupper()))


def _bare_ordering(test):
    if isinstance(test, ast.BoolOp):
        return any(_bare_ordering(v) for v in test.values)
    return (isinstance(test, ast.Compare) and any(isinstance(op, ORDERING) for op in test.ops)
            and any(_threshold(x) for x in [test.left, *test.comparators]))


def _max_or_min(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min"))


def _accumulates(node):
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and _max_or_min(node.value)
            and any(isinstance(a, ast.Name) and a.id == node.targets[0].id
                    for a in node.value.args))


def nan_blind_sites(source: str):
    """(line, idiom) of every site in source that can let a NaN through."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (_max_or_min(node) and len(node.args) == 1
                and not isinstance(node.args[0], ast.Starred)):
            found.append((node.lineno, "reduction"))
        elif _accumulates(node):
            found.append((node.lineno, "accumulator"))
        elif isinstance(node, (ast.If, ast.IfExp)) and _bare_ordering(node.test):
            found.append((node.lineno, "gate"))
    return sorted(found)


def test_no_nan_blind_site_outside_the_allow_list():
    found = {}
    for d in SCANNED:
        for p in sorted((REPO / d).rglob("*.py")):
            lines = p.read_text().splitlines()
            for line, idiom in nan_blind_sites(p.read_text()):
                found[f"{p.relative_to(REPO)}: {lines[line - 1].strip()}"] = idiom
    assert {site: idiom for site, idiom in found.items() if site not in ALLOWED} == {}
    assert sorted(set(ALLOWED) - set(found)) == []  # no stale entry


def test_scan_finds_each_idiom_and_passes_the_rule():
    source = ("def f(xs, x, TOL):\n"
              "    a = max(xs)\n"
              "    b = min(v for v in xs)\n"
              "    a = max(a, x)\n"
              "    if x > 1e-8 or x < 0:\n        pass\n"
              "    if 0 < x and x <= TOL:\n        pass\n"
              "    y = 1 if x >= -0.5 else 2\n"
              # the rule: two-argument max, worst, gates under not, int bounds
              "    c = max(x, 1e-300)\n"
              "    d = worst(xs)\n"
              "    if not x <= TOL:\n        pass\n"
              "    if not (x <= 1e-8 and d <= TOL):\n        pass\n"
              "    if len(xs) > 64 or np.all(xs < 1e-3):\n        pass\n")
    assert nan_blind_sites(source) == [
        (2, "reduction"), (3, "reduction"), (4, "accumulator"),
        (5, "gate"), (7, "gate"), (9, "gate")]
