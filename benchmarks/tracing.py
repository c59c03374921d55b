"""Spans and counters recorded around stragglersim's layer boundaries.

The tracer patches public functions and methods from outside the package:
the engine reaches `model.local_sgd`, `latency.sample_lognormal`,
`algorithms.server_apply`, `metrics.evaluate_accuracy` and `rng.stream`
through module attributes, and the drivers reach `canonical_delta_sum`
through their module globals, so replacing those attributes is enough to
see every call. `uninstall` puts the originals back.

Each span stores a name, start, end, parent span and trial id in flat
arrays, kept in memory until the run ends. A span's self time is its
duration minus the durations of its direct children. Calls that are too
fine-grained to time without distorting the result (one `loss_and_grad`
per batch, one heap operation per event) are counted, not timed.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from stragglersim import algorithms, config, data, engine, latency, metrics, model, rng

# (owner, attribute, span name). Driver hooks are patched on every class
# that defines them, since subclasses override them.
_DRIVER_HOOKS = ("start", "on_client_completed", "on_dispatch", "on_aux_deadline")
_DRIVER_CLASSES = (
    algorithms.SyncRoundDriver,
    algorithms.HistoryDistillationDriver,
    algorithms.AuxTrackDriver,
    algorithms.BufferedDriver,
)
_SPANS = (
    (config, "load_config", "config.load"),
    (data, "build_dataset", "data.build"),
    (rng, "stream", "rng.stream"),
    (engine.Simulation, "run", "engine.loop"),
    (engine.Simulation, "sample_cohort", "engine.sample_cohort"),
    (engine.Simulation, "dispatch", "engine.dispatch"),
    (latency, "sample_lognormal", "latency.draw"),
    (model, "local_sgd", "model.local_sgd"),
    (algorithms, "server_apply", "algorithms.server_apply"),
    (algorithms, "canonical_delta_sum", "algorithms.delta_sum"),
    (algorithms.HistoryDistillationDriver, "_teacher_for_dispatch", "algorithms.teacher"),
    (metrics, "evaluate_accuracy", "metrics.evaluate"),
) + tuple(
    (cls, hook, "algorithms.driver")
    for cls in _DRIVER_CLASSES
    for hook in _DRIVER_HOOKS
    if hook in vars(cls)
)

COUNTERS = ("model.batches", "model.teacher_forward_calls", "model.examples", "engine.events")


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.current_trial = -1
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.heap_peak = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str):
        nid = self._id(name)
        name_id, start, end, parent, trial, stack = (
            self.name_id, self.start, self.end, self.parent, self.trial, self._stack
        )
        tracer = self

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                # A hook calling its superclass's hook: one span, not two.
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(top)
            trial.append(tracer.current_trial)
            end.append(0.0)
            stack.append(i)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._span(owner.__dict__[attr], name))

        counts, stack, name_id = self.counts, self._stack, self.name_id
        local_sgd_id = self._id("model.local_sgd")
        orig_local_sgd = model.local_sgd
        orig_loss_and_grad = model.loss_and_grad
        orig_forward = model.forward_logits
        orig_pop = engine.EventQueue.pop
        orig_schedule = engine.EventQueue.schedule
        tracer = self

        def local_sgd(*args, **kwargs):
            result = orig_local_sgd(*args, **kwargs)
            counts["model.examples"] += result[2]
            return result

        def loss_and_grad(*args, **kwargs):
            counts["model.batches"] += 1
            return orig_loss_and_grad(*args, **kwargs)

        def forward_logits(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == local_sgd_id:
                counts["model.teacher_forward_calls"] += 1
            return orig_forward(*args, **kwargs)

        def pop(queue):
            counts["engine.events"] += 1
            return orig_pop(queue)

        def schedule(queue, *args, **kwargs):
            orig_schedule(queue, *args, **kwargs)
            if len(queue) > tracer.heap_peak:
                tracer.heap_peak = len(queue)

        self._patch(model, "local_sgd", local_sgd)
        self._patch(model, "loss_and_grad", loss_and_grad)
        self._patch(model, "forward_logits", forward_logits)
        self._patch(engine.EventQueue, "pop", pop)
        self._patch(engine.EventQueue, "schedule", schedule)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -- #

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns, plus each span's self time."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "trial": np.array(self.trial, dtype=np.int64),
            "self_s": dur - covered,
            "dur_s": dur,
        }

    def by_name(self, trials: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        cols = self.arrays()
        mask = np.ones(len(cols["start"]), dtype=bool)
        if trials is not None:
            mask = np.isin(cols["trial"], sorted(trials))
        ids = cols["name_id"][mask]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=cols["dur_s"][mask], minlength=n)
        self_s = np.bincount(ids, weights=cols["self_s"][mask], minlength=n)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to an .npz file (names index the name_id column)."""
        cols = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name_id", "start", "end", "parent", "trial")},
        )
