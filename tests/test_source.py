"""Rules the package source itself must keep."""

import ast
import importlib.util
import inspect
from pathlib import Path

import stragglersim
from stragglersim import algorithms, engine, model

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


def _calls_in_loops(names: set[str]) -> list[str]:
    """file:line of every call to one of names inside a loop of the package source."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {
            f"{path.name}:{node.lineno}"
            for loop in ast.walk(tree) if isinstance(loop, loops)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in names
        }
    return sorted(found)


def test_no_stream_is_made_per_id_in_a_loop():
    # A SeedSequence costs about 20 us; a family of per-id streams comes from
    # one key table (rng.stream_keys), so rng.stream is never called in a loop.
    found = _calls_in_loops({"rng.stream"})
    assert not found, f"rng.stream called in a loop: {found}"


def test_no_set_operation_runs_per_shard_in_a_loop():
    # Class membership is one lookup in a bool[n_classes] table over a whole
    # array; np.isin and np.unique sort their input on every call, and one call
    # per shard was most of the cost of building a 2,000-client dataset.
    found = _calls_in_loops({"np.isin", "np.unique"})
    assert not found, f"np.isin or np.unique called in a loop: {found}"


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


def _class_body(path: Path, name: str) -> ast.ClassDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return cls


def _attributes_of(tree, owner: str) -> set[str]:
    """Every X of an `<owner>.X` expression in tree."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == owner
    }


def test_drivers_use_only_the_declared_simulation_context():
    # Drivers reach the engine only through self.sim. Every name they use is
    # declared on SimContext and defined on Simulation (a method with the
    # declared signature, or an attribute it sets), and SimContext declares
    # nothing the drivers do not use.
    used = _attributes_of(ast.parse((SOURCE_DIR / "algorithms.py").read_text()), "self.sim")
    context = _class_body(SOURCE_DIR / "algorithms.py", "SimContext")
    fields = {n.target.id for n in context.body if isinstance(n, ast.AnnAssign)}
    methods = {n.name for n in context.body if isinstance(n, ast.FunctionDef)}
    assert used == fields | methods, (
        f"used, not declared: {sorted(used - fields - methods)}; "
        f"declared, not used: {sorted((fields | methods) - used)}"
    )
    simulation = _class_body(SOURCE_DIR / "engine.py", "Simulation")
    assigned = {
        target.attr
        for node in ast.walk(simulation) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self"
    }
    assert fields <= assigned, f"Simulation never sets {sorted(fields - assigned)}"
    for name in sorted(methods):
        declared = inspect.signature(getattr(algorithms.SimContext, name))
        assert inspect.signature(getattr(engine.Simulation, name)) == declared, name
