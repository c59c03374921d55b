"""Rules the package source itself must keep."""

import ast
import importlib.util
from pathlib import Path

import stragglersim
from stragglersim import engine, model

SOURCE_DIR = Path(stragglersim.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_no_assert_statements_in_package_source():
    # python -O strips assert statements; invariants must be explicit raises
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package source: {found}"


def test_every_name_the_benchmark_tracer_patches_exists():
    # The tracer patches owner.__dict__[attr] from outside the package, so a
    # renamed or deleted target would only break a traced benchmark run.
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, _ in tracing._SPANS] + [
        (model, "loss_and_grad"),
        (model, "forward_logits"),
        (engine.EventQueue, "pop"),
        (engine.EventQueue, "schedule"),
    ]
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in targets if a not in o.__dict__]
    assert not missing, f"tracer targets missing: {missing}"
    originals = [(o, a, o.__dict__[a]) for o, a in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(o.__dict__[a] is not original for o, a, original in originals)
    finally:
        tracer.uninstall()
    assert all(o.__dict__[a] is original for o, a, original in originals)
