"""Print the size of src/mfequil: its line count and its settable values.

    python scripts/size_report.py

A settable value is a function parameter with a default, a dataclass field
with a default, or a command-line flag (an add_argument option starting
with "--").  Both counts are read from the source with ast, nothing is
imported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mfequil"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument" and node.args
              and isinstance(node.args[0], ast.Constant)
              and str(node.args[0].value).startswith("--")):
            count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    lines = settable = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        settable += settable_values(ast.parse(text))
    print(f"src/mfequil lines: {lines}")
    print(f"settable values: {settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
