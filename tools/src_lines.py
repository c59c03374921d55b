"""Count the lines of src/ by kind: code, docstring, comment and blank.

A whitespace-only line is blank, also inside a docstring. Any other line of a
module, class or function docstring is docstring. A line whose first
non-blank character is ``#`` is comment. Every other line is code.

Run from anywhere: ``python tools/src_lines.py [root] [--base REV]``, where
root defaults to the repository's src/ directory. With --base, it also prints
the split of REV's src/, extracted with `git archive` as tools/ab.py does, and
the difference root minus REV, kind by kind.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import Counter
from pathlib import Path

from ab import extract

SRC = Path(__file__).resolve().parent.parent / "src"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
KINDS = ("code", "docstring", "comment", "blank")


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


def tree_kinds(root: Path) -> Counter:
    return sum(map(count, sorted(root.rglob("*.py"))), Counter())


def split(label: str, kinds: Counter, sign: str = "") -> str:
    """One line: label, the total and each kind, signed when sign is "+"."""
    parts = (", " if sign else " + ").join(f"{kinds[k]:{sign},} {k}" for k in KINDS)
    return f"{label}: {sum(kinds[k] for k in KINDS):{sign},} lines = {parts}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=SRC)
    parser.add_argument("--base", metavar="REV", help="also count REV's src/ and the difference")
    args = parser.parse_args(argv)
    kinds = tree_kinds(args.root)
    print(split(f"{args.root.name}/", kinds))
    if args.base:
        with tempfile.TemporaryDirectory() as tmp:
            base = tree_kinds(extract(args.base, Path(tmp)).parent)
        print(split(f"{args.base} src/", base))
        print(split("difference", Counter({k: kinds[k] - base[k] for k in KINDS}), "+"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
