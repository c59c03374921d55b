"""tools/golden_moved.py, which decides whether CI runs the A/B against the parent."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_moved.py"
_spec = importlib.util.spec_from_file_location("golden_moved", TOOL)
golden_moved = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_moved)

OLD = {"budget": 300, "variants": {"a": {"0": {"output_w": [1.0, 2.0], "tau_limit": None}}}}


def test_added_entries_do_not_count_as_moved():
    new = {**OLD, "variants": {**OLD["variants"], "b": {"0": {"output_w": [3.0]}}}}
    assert golden_moved.moved(OLD, new) == []


def test_changed_and_removed_entries_are_moved():
    changed = {"variants": {"a": {"0": {"output_w": [1.0, 2.5], "tau_limit": None}}}}
    assert golden_moved.moved(OLD, changed) == ["budget", "variants/a/0/output_w"]
    dropped = {**OLD, "variants": {"a": {"0": {"output_w": [1.0, 2.0]}}}}
    assert golden_moved.moved(OLD, dropped) == ["variants/a/0/tau_limit"]


def test_a_variant_dropped_whole_is_one_removed_line():
    two = {**OLD, "variants": {**OLD["variants"], "b": {"0": {"output_w": [3.0]}, "1": {}}}}
    assert golden_moved.moved(two, OLD) == ["removed variants/b"]
    # a change inside a kept variant still prints its entry, which CI's grep matches
    changed = {"budget": 300, "variants": {"a": {"0": {"output_w": [1.0], "tau_limit": None}}}}
    assert golden_moved.moved(two, changed) == ["variants/a/0/output_w", "removed variants/b"]
