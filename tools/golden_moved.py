"""Print each entry of tests/golden.json at a git revision that changed value since.

    python tools/golden_moved.py REV

An entry is a path of keys to a value that is not a dict, such as
variants/fedavg_full/0/output_w or simulate_sha256/feast/stdout. An entry
that REV holds and the working tree changes or removes is printed; an entry
the working tree adds is not. So the output is empty exactly when the
working tree's golden file keeps every value REV recorded. CI runs the A/B
of tools/ab.py against the parent commit unless an entry under variants/
moved: a change that moves a trial output means to move outputs, and the
A/B would report every pair. The simulate_sha256 and report_sha256 digests
hash logs that carry each config's hash, which the A/B's digest leaves out,
so a change that only edits config fields moves them and is still checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/golden.json"
_MISSING = object()


def entries(node, path: tuple[str, ...] = ()) -> dict[tuple[str, ...], object]:
    """Every path of keys to a value that is not a dict, with its value."""
    if not isinstance(node, dict):
        return {path: node}
    leaves = {}
    for key, child in node.items():
        leaves.update(entries(child, (*path, key)))
    return leaves


def moved(old: dict, new: dict) -> list[str]:
    """The entries of old that new changes or removes, as slash-joined paths."""
    now = entries(new)
    return [
        "/".join(path) for path, value in entries(old).items()
        if now.get(path, _MISSING) != value
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python tools/golden_moved.py REV")
    shown = subprocess.run(
        ["git", "-C", str(ROOT), "show", f"{argv[0]}:{GOLDEN}"],
        check=True, capture_output=True, text=True,
    ).stdout
    for path in moved(json.loads(shown), json.loads((ROOT / GOLDEN).read_text(encoding="utf-8"))):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
