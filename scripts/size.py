#!/usr/bin/env python3
"""Print the size measures of the mapforms package.

    python scripts/size.py

The measures are: the line count of every module under src/mapforms and
their total; the function parameters with a default value (lambdas
included), which are the options a caller can set; the dataclass fields
with a default value; and the `dtype=float` coercions.  All but the line
counts come from an AST scan, so comments and docstrings do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mapforms"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def measures(source: str) -> dict:
    """The AST measures of one module's source."""
    tree = ast.parse(source)
    params = fields = coercions = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults)
            params += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(item, ast.AnnAssign) and item.value is not None
                          for item in node.body)
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            coercions += isinstance(node.value, ast.Name) and node.value.id == "float"
    return {"params_with_defaults": params, "dataclass_fields_with_defaults": fields,
            "dtype_float_coercions": coercions}


def main() -> None:
    totals = {"lines": 0}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = len(source.splitlines())
        print(f"{lines:6d}  src/mapforms/{path.name}")
        totals["lines"] += lines
        for key, value in measures(source).items():
            totals[key] = totals.get(key, 0) + value
    print(f"{totals.pop('lines'):6d}  total")
    for key, value in totals.items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
