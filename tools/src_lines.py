"""Count the lines of src/ by kind: code, docstring, comment and blank.

A whitespace-only line is blank, also inside a docstring. Any other line of a
module, class or function docstring is docstring. A line whose first
non-blank character is ``#`` is comment. Every other line is code.

Run from anywhere: ``python tools/src_lines.py [root]``, where root defaults to
the repository's src/ directory.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> Counter:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    kinds: Counter = Counter()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            kinds["blank"] += 1
        elif number in docs:
            kinds["docstring"] += 1
        elif line.lstrip().startswith("#"):
            kinds["comment"] += 1
        else:
            kinds["code"] += 1
    return kinds


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    kinds = sum(map(count, sorted(root.rglob("*.py"))), Counter())
    split = " + ".join(f"{kinds[k]:,} {k}" for k in ("code", "docstring", "comment", "blank"))
    print(f"{root.name}/: {kinds.total():,} lines = {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
