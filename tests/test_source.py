"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import stragglersim

SOURCE_DIR = Path(stragglersim.__file__).parent


def test_no_assert_statements_in_package_source():
    # python -O strips assert statements; invariants must be explicit raises
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package source: {found}"
