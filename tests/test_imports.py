"""No module imports a name it never uses.

An AST scan of every Python file under src/, tests/, demos/ and scripts/:
each name bound by an import must appear as a name somewhere else in the
file (an attribute base counts, as do quoted annotations).  A package
`__init__.py` is exempt, since its imports are the package's public API.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "scripts")


def _imported(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in (n for ann in _annotations(tree) if ann for n in ast.walk(ann)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _used(ast.parse(node.value, mode="eval"))  # "SourceDomain"
    return names


def unused_imports(source: str):
    """(name, line) of every import in source whose name is never used."""
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    files = [p for d in SCANNED for p in sorted((REPO / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    found = [f"{p.relative_to(REPO)}:{line} {name}"
             for p in files for name, line in unused_imports(p.read_text())]
    assert found == []


def test_scan_finds_exactly_the_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from a.b import c, d, e as g\n"
              "def f(x: \"d\") -> None:\n    return np.pi + g\n")
    assert unused_imports(source) == [("os", 2), ("os", 3), ("c", 5)]
