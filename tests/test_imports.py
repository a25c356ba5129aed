"""No module imports a name it never uses, no public function is dead, and
the package imports only at module level.

An AST scan of every Python file under src/, tests/, demos/ and scripts/:
each name bound by an import must appear as a name somewhere else in the
file (an attribute base counts, as do quoted annotations).  A package
`__init__.py` is exempt, since its imports are the package's public API.

A second scan takes every public module-level function and method of
src/mapforms and asks for a reference to its name, as a name or an
attribute, somewhere in src/, tests/, demos/, scripts/ or perfbench/
outside the body of a function of that name (an import is not a
reference).

A third scan finds the imports inside a function body of src/mapforms;
there must be none, since no import cycle needs one.

Last, `import mapforms` in a fresh interpreter loads the calculus modules
only: not the report writer, the suites, the CLI, mechanics or the catalog.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "scripts")
REFERENCING = SCANNED + ("perfbench",)


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


def public_functions(source: str):
    """(name, line) of every module-level function and method of source
    whose name does not start with an underscore."""
    tree = ast.parse(source)
    scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
    return [(node.name, node.lineno) for scope in scopes for node in scope.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


class _References(ast.NodeVisitor):
    """Names and attributes of a tree, leaving out those inside the body of
    a function of the same name (recursion is not a use)."""

    def __init__(self):
        self.enclosing, self.found = [], set()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def _see(self, name):
        if name not in self.enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._see(node.id)

    def visit_Attribute(self, node):
        self._see(node.attr)
        self.generic_visit(node)


def references(source: str) -> set:
    refs = _References()
    refs.visit(ast.parse(source))
    return refs.found


def test_every_public_function_is_referenced():
    used = set()
    for d in REFERENCING:
        for p in sorted((REPO / d).rglob("*.py")):
            used |= references(p.read_text())
    defined = [(p, name, line) for p in sorted((REPO / "src" / "mapforms").glob("*.py"))
               for name, line in public_functions(p.read_text())]
    assert len(defined) > 100
    dead = [f"{p.relative_to(REPO)}:{line} {name}" for p, name, line in defined
            if name not in used]
    assert dead == []


def test_reference_scan_skips_recursion_and_imports():
    source = ("from m import lone\n"
              "def walk(n):\n    return walk(n - 1) if n else used(n)\n"
              "def used(n):\n    return n\n"
              "class A:\n    def method(self):\n        return self.other()\n"
              "    def other(self):\n        return 1\n    def _hidden(self):\n        pass\n")
    assert public_functions(source) == [("walk", 2), ("used", 4), ("method", 7), ("other", 9)]
    assert {"walk", "lone", "method"}.isdisjoint(references(source))
    assert {"used", "other"} <= references(source)


def function_level_imports(source: str):
    """Lines of the imports inside a function body of source."""
    tree = ast.parse(source)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_package_imports_only_at_module_level():
    found = [f"{p.relative_to(REPO)}:{line}"
             for p in sorted((REPO / "src" / "mapforms").glob("*.py"))
             for line in function_level_imports(p.read_text())]
    assert found == []


def test_function_level_scan_finds_nested_imports():
    source = ("import os\n"
              "def f():\n    import sys\n    def g():\n        from a import b\n"
              "    return sys, g\n"
              "class C:\n    from . import y\n    def m(self):\n        from . import x\n")
    assert function_level_imports(source) == [3, 5, 10]


def test_import_mapforms_loads_only_the_calculus_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, mapforms\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mapforms'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["mapforms"] + [f"mapforms.{m}" for m in
                                  ("charts", "domains", "forms", "grassmannian", "mapspace")]
