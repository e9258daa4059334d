"""Size of a source tree: lines, settable values and public names.

Run from anywhere:

    python3 tools/code_size.py SRC

SRC is a ``src`` directory holding the ``grayscott`` package.  Prints
three counts over the ``.py`` files under SRC:

- ``src_lines``: all lines, as ``wc -l`` counts them;
- ``settable_values``: function parameters with a default (positional
  and keyword-only) plus fields with a default in ``@dataclass``
  classes;
- ``public_names``: names bound in ``grayscott/__init__.py`` that do not
  start with an underscore.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


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
            count += sum(1 for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(1 for s in node.body
                         if isinstance(s, ast.AnnAssign) and s.value is not None)
    return count


def public_names(tree: ast.Module) -> int:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sum(1 for n in names if not n.startswith("_"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/code_size.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0])
    files = sorted(src.rglob("*.py"))
    lines = sum(len(f.read_bytes().splitlines()) for f in files)
    settable = sum(settable_values(ast.parse(f.read_text(encoding="utf-8"))) for f in files)
    init = ast.parse((src / "grayscott" / "__init__.py").read_text(encoding="utf-8"))
    print(f"src_lines {lines}")
    print(f"settable_values {settable}")
    print(f"public_names {public_names(init)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
