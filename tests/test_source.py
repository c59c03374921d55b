"""Rules the package source itself must keep."""

import ast
import dataclasses
import importlib.util
import threading
from pathlib import Path

import numpy as np

import stragglersim
from stragglersim import algorithms, data, engine, metrics, model, rng, verify
from stragglersim.config import ModelConfig, load_config

SOURCE_DIR = Path(stragglersim.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
ACCEPTANCE = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
FEAST = ACCEPTANCE / "feast.json"
CROWD = Path(__file__).resolve().parent.parent / "benchmarks" / "configs" / "fedbuff_crowd.json"


def test_no_assert_statements_in_package_source():
    # python -O strips assert statements; invariants must be explicit raises
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in package source: {found}"


def _names_read(tree) -> set[str]:
    """Every name tree reads, also inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _names_read(ast.parse(part.value, mode="eval"))
    return names


def test_every_import_in_the_package_is_used():
    # A name counts as used when read in a string annotation: latency imports
    # FederatedDataset under TYPE_CHECKING only for one.
    unused = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _names_read(tree)
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read
        ]
    assert not unused, f"imported, never used: {unused}"


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
    # A SeedSequence is costly, so a family of per-id streams comes from one
    # key table (rng.stream_keys) and rng.stream is never called in a loop.
    # A new generator costs more than a rekey, so a loop over the family
    # rekeys one (rng.rekey) rather than calling rng.stream_from_key per id.
    found = _calls_in_loops({"rng.stream", "rng.stream_from_key"})
    assert not found, f"rng.stream or rng.stream_from_key called in a loop: {found}"


def test_no_set_operation_runs_per_shard_in_a_loop():
    # Class membership is one lookup in a bool[n_classes] table over a whole
    # array; np.isin and np.unique sort their input on every call, and one call
    # per shard was most of the cost of building a 2,000-client dataset.
    found = _calls_in_loops({"np.isin", "np.unique"})
    assert not found, f"np.isin or np.unique called in a loop: {found}"


def test_only_the_layout_reads_the_hidden_width_in_the_model():
    # ModelLayout.dims is the one description of the parameter layout, so a
    # pass that reads layout.hidden would fork on the model kind again.
    tree = ast.parse((SOURCE_DIR / "model.py").read_text(encoding="utf-8"))
    layout = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ModelLayout")
    inside = {id(node) for node in ast.walk(layout)}
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "hidden" and id(node) not in inside
    ]
    assert not found, f"model.py reads .hidden outside ModelLayout at lines {found}"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _tracer_targets(tracing) -> list:
    """(owner, attribute) of every name the benchmark tracer patches."""
    return [(owner, attr) for owner, attr, _ in tracing._SPANS] + [
        (model, "loss_and_grad"),
        (model, "forward_logits"),
        (engine.EventQueue, "pop"),
        (engine.EventQueue, "schedule"),
    ]


def test_every_name_the_benchmark_tracer_patches_exists():
    # The tracer patches owner.__dict__[attr] from outside the package, so a
    # renamed or deleted target would only break a traced benchmark run.
    tracing = _load_tracing()
    targets = _tracer_targets(tracing)
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


def test_every_benchmark_tracer_target_is_on_a_run_path(monkeypatch):
    # A target the engine no longer calls keeps its span at zero in every
    # traced run without failing the test above. Counters stay out of this
    # check; two still read 0, and mending them is a benchmark change:
    # model.batches counts model.loss_and_grad calls, which training does
    # not make (it runs model._sgd_grad), and model.teacher_forward_calls
    # counts model.forward_logits calls inside model.local_sgd, whose
    # teacher forwards run model._forward.
    tracing = _load_tracing()
    calls = {}
    for owner, attr, _ in tracing._SPANS:
        calls[owner, attr] = _spy(monkeypatch, owner, attr)
    with tracing.Tracer() as tracer:
        configs = {
            path.stem: dataclasses.replace(stragglersim.config.load_config(path), budget=200)
            for path in sorted(ACCEPTANCE.glob("*.json"))
        }
        feast = configs["feast"]
        configs["feast_tau_max_120"] = dataclasses.replace(
            feast, algo=dataclasses.replace(feast.algo, tau_max=120.0)
        )
        configs["fedbuff"] = dataclasses.replace(feast, algo=algorithms.AlgoConfig(
            "fedbuff", buffer_size=10, max_concurrency=40, eta_l=0.1, batch_size=20
        ))
        for cfg in configs.values():
            dataset = stragglersim.data.build_dataset(cfg.dataset, cfg.effective_data_seed())
            engine.Simulation(cfg, 0, dataset).run()
    unreached = [
        f"{getattr(owner, '__name__', owner)}.{attr}" for (owner, attr), n in calls.items() if not n
    ]
    assert not unreached, f"tracer targets no run reaches: {unreached}"
    assert tracer.counts["model.examples"] > 0 and tracer.counts["engine.events"] > 0


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


# The driver/engine boundary, written once: every name of engine.Simulation
# that a driver may use through the sim argument its hooks receive.
DRIVER_BOUNDARY = frozenset({
    "now", "state", "teacher_gen", "idle_at", "sample_cohort", "dispatch",
    "apply_server_update", "apply_aux_update", "tally", "schedule", "budget_reached",
})


def test_drivers_use_only_the_declared_simulation_context():
    # Drivers reach the engine only through the sim argument their hooks
    # receive, and none keeps it as self.sim. The names they use are
    # DRIVER_BOUNDARY, no more and no fewer, and each is a method of
    # Simulation or an attribute it sets.
    tree = ast.parse((SOURCE_DIR / "algorithms.py").read_text())
    assert "sim" not in _attributes_of(tree, "self")
    used = _attributes_of(tree, "sim")
    assert used == DRIVER_BOUNDARY, (
        f"used, not in the boundary: {sorted(used - DRIVER_BOUNDARY)}; "
        f"in the boundary, not used: {sorted(DRIVER_BOUNDARY - used)}"
    )
    simulation = _class_body(SOURCE_DIR / "engine.py", "Simulation")
    methods = {n.name for n in simulation.body if isinstance(n, ast.FunctionDef)}
    assigned = {
        target.attr
        for node in ast.walk(simulation) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Attribute) and ast.unparse(target.value) == "self"
    }
    missing = DRIVER_BOUNDARY - methods - assigned
    assert not missing, f"Simulation neither defines nor sets {sorted(missing)}"


def test_only_the_tally_writes_the_counters():
    # Simulation.tally is the one code that moves a counter, and it traces
    # what it counts, so the trace and the counters agree by construction.
    def writes(node) -> bool:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            return False
        return any(
            isinstance(t, ast.Subscript) and ast.unparse(t.value).split(".")[-1] == "counters"
            for target in targets for t in ast.walk(target)
        )

    found, tally = set(), set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, node.lineno) for node in ast.walk(tree) if writes(node)}
        if path.name == "engine.py":
            (method,) = [n for n in _class_body(path, "Simulation").body
                         if isinstance(n, ast.FunctionDef) and n.name == "tally"]
            tally = {(path.name, n.lineno) for n in ast.walk(method) if writes(n)}
    assert tally and found == tally, f"counters written outside tally: {sorted(found - tally)}"


def test_drivers_decide_only_round_semantics():
    # The teacher download cost and FeAST's auxiliary model belong to the
    # engine, and strict_sequential is FeAST's: only AuxTrackDriver reads it.
    tree = ast.parse((SOURCE_DIR / "algorithms.py").read_text())
    drivers = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name.endswith("Driver")]

    def strict_reads(node) -> set[int]:
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "strict_sequential"}

    (aux_driver,) = [cls for cls in drivers if cls.name == "AuxTrackDriver"]
    outside = strict_reads(tree) - strict_reads(aux_driver)
    assert not outside, f"strict_sequential read outside AuxTrackDriver: {sorted(outside)}"
    found = sorted(
        f"{cls.name}:{node.lineno}" for cls in drivers for node in ast.walk(cls)
        if (isinstance(node, ast.Attribute) and ast.unparse(node).endswith("state.aux"))
        or any("comm_scale" in (getattr(node, field, None) or "")
               for field in ("attr", "arg", "id"))
    )
    assert not found, f"drivers name state.aux or comm_scale: {found}"


def test_the_engine_only_starts_the_driver_and_asks_if_it_is_finished():
    # Drivers schedule their own events: a synchronous round its close and
    # its late arrivals, the buffered driver each completion. The engine
    # calls nothing else on its driver.
    used = _attributes_of(ast.parse((SOURCE_DIR / "engine.py").read_text()), "self.driver")
    assert used <= {"start", "is_finished"}, f"engine uses driver.{sorted(used)}"


def test_the_quadratic_oracle_draws_nothing():
    # Each check draws the normals the oracle scales and passes them in, so
    # its stream order is written where the check is. A draw inside the oracle
    # would be reordered silently once the gap trace stacks seeds.
    tree = ast.parse((SOURCE_DIR / "verify.py").read_text(encoding="utf-8"))
    oracle = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "QuadClientSet")
    draws = {"standard_normal", "choice", "integers", "random", "uniform"}
    found = []
    for method in (n for n in oracle.body if isinstance(n, ast.FunctionDef)):
        args = method.args
        found += [
            f"{method.name} takes {arg.arg}"
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if arg.arg in {"gen", "rng", "generator"}
            or (arg.annotation is not None and "Generator" in ast.unparse(arg.annotation))
        ]
        found += [
            f"{method.name} calls {node.func.attr}"
            for node in ast.walk(method)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in draws
        ]
    assert not found, f"QuadClientSet draws: {found}"


def _spy(monkeypatch, owner, name: str) -> list:
    """The thread of every call that reaches owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_the_checks_and_the_engine_run_one_copy_of_each_update(monkeypatch):
    # The convergence checks step the gap trace, and criterion 1 checks the
    # gradient, through the same functions a simulation runs. A restated copy
    # in verify or in training would leave one of these counts at zero.
    aux = _spy(monkeypatch, algorithms, "aux_step")
    server = _spy(monkeypatch, algorithms, "server_apply")
    grad = _spy(monkeypatch, model, "_grad")

    config = dataclasses.replace(load_config(FEAST), budget=100)
    result = engine.Simulation(config, 0).run()
    assert len(aux) == result.counters["aux_rounds"] > 0
    assert len(server) == result.server_steps > 0
    assert len(grad) > 0

    for calls in (aux, server, grad):
        calls.clear()
    quad = verify.make_quad_set(4, 3, seed=0)
    verify.run_gap_trace(quad, T=3, B=1, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1,
                         eta_a=1.0, beta=0.5, seeds=[0])
    assert len(aux) == len(server) == 3
    # stacked seeds take each step once for all of them
    aux.clear()
    server.clear()
    verify.run_gap_trace(quad, T=3, B=1, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1,
                         eta_a=1.0, beta=0.5, seeds=[0, 1])
    assert len(aux) == len(server) == 3

    layout = model.ModelLayout(d_in=2, hidden=0, n_classes=3)
    gen = rng.stream(0, rng.VERIFY, 0)
    model.loss_and_grad(model.init_params(layout, gen), layout, gen.standard_normal((4, 2)),
                        np.array([0, 1, 2, 0]))
    assert len(grad) == 1


def test_batch_plans_are_drawn_by_one_function(monkeypatch):
    # A client's shuffle stream draws in dispatch order, whatever trains,
    # only if each dispatch draws its batch plan once, at dispatch, by one
    # rule (one shuffle per epoch it starts): model.draw_batch_plan. Training
    # lays out the plans it is given; a restated shuffle anywhere else in the
    # package fails here.
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rule = [n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "draw_batch_plan"]
        inside = {id(node) for fn in rule for node in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"shuffle", "permutation"} and id(node) not in inside
        ]
    assert not found, f"batch-plan draws outside model.draw_batch_plan: {found}"

    drawn = _spy(monkeypatch, model, "draw_batch_plan")
    trained = _spy(monkeypatch, model, "local_sgd")
    config = dataclasses.replace(load_config(ACCEPTANCE / "fedavg_oversel.json"), budget=500)
    result = engine.Simulation(config, 0).run()
    assert len(trained) > 0 and result.counters["discarded_updates"] > 0
    assert len(drawn) == result.counters["dispatches"]


def _spy_tracer_targets(monkeypatch) -> dict:
    """(owner, attribute) -> the thread of every call that reaches each
    tracer target from here on."""
    targets = _tracer_targets(_load_tracing())
    return {(owner, attr): _spy(monkeypatch, owner, attr) for owner, attr in targets}


def _called_off(thread, calls: dict) -> list[str]:
    """The spied targets that a thread other than thread called."""
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), threads in calls.items() if any(t is not thread for t in threads)
    )


def test_a_build_runs_no_tracer_target_on_its_worker(monkeypatch):
    # The rule in data.build_dataset's docstring: its worker builds the eval
    # split and reaches nothing the tracer patches, rng.stream included, so
    # the tracer sees every stream and span of a build on the calling thread.
    calls = _spy_tracer_targets(monkeypatch)
    labelled = _spy(monkeypatch, data, "_label")
    for path in (FEAST, CROWD):
        config = load_config(path)
        data.build_dataset(config.dataset, config.effective_data_seed())
    main = threading.main_thread()
    off_main = _called_off(main, calls)
    assert not off_main, f"tracer targets called off the main thread: {off_main}"
    assert len(calls[rng, "stream"]) > 0 and len(calls[data, "build_dataset"]) == 2
    # the check is not empty: each build labelled its population here and its
    # eval split on the worker
    assert sorted(t is main for t in labelled) == [False, False, True, True]


def test_nothing_the_benchmark_tracer_patches_runs_off_the_main_thread(monkeypatch):
    # The tracer keeps one span stack for the process, and its forward_logits
    # counter reads the top of it. Mid-run evaluations run on the engine's
    # evaluation thread, which must reach no tracer target; only the final
    # record is evaluated through metrics.evaluate_accuracy, inline.
    calls = _spy_tracer_targets(monkeypatch)
    forwards = _spy(monkeypatch, model, "_forward")
    config = load_config(ACCEPTANCE / "fare_dust.json")
    config = dataclasses.replace(config, budget=200, eval_every=1, model=ModelConfig(hidden=64))
    sim = engine.Simulation(config, 0)
    sim.run()

    main = threading.main_thread()
    off_main = _called_off(main, calls)
    assert not off_main, f"tracer targets called off the main thread: {off_main}"
    assert len(calls[metrics, "evaluate_accuracy"]) == 1
    # the check is not empty: the mid-run evaluations ran on another thread,
    # each in more than one row block
    blocks = len(metrics._block_cuts(config.eval_cap, sim.layout)) - 1
    off_main_forwards = sum(t is not main for t in forwards)
    assert blocks > 1
    assert off_main_forwards > 0 and off_main_forwards % blocks == 0
