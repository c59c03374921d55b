"""Deterministic discrete-event simulation of one federated training run.

Virtual time advances through a min-heap of events ordered by (fire_at,
sequence number), so ties resolve in scheduling order and runs with the same
config and seed replay identically. An event carries its handler and
arguments, and the loop calls handler(*args) at fire_at. Every
eval_every-th server step schedules an evaluation; drivers schedule the rest
(Simulation.schedule): a synchronous round its close and its late arrivals,
the buffered driver each completion. The engine only starts the driver and
asks it whether the run is finished.

The engine owns the wall-clock-free mechanics: client busy bookkeeping,
latency sampling with the teacher download cost, local training, the server
and FeAST auxiliary steps (ServerState builds its slots from the AlgoConfig),
the served model (ServerState.served), the update budget, evaluation
cadence, and the trace. Round semantics live in the drivers (see algorithms).

A driver decides only a dispatch's client and teacher; the engine binds it
to the open model version: start and anchor (nu > 0) state.w, round id
state.t. A dispatch records its work and does not train. Its completion
time and counts never depend on the trained weights: the latency factors
are drawn first (the per-round time limit needs them), the steps and
examples follow by arithmetic, and the update completes at now plus the
factors' total for those examples (latency.LatencySample.total_s). So the
version trains as one stacked call (model.local_sgd) when it closes,
at the next server step, before any of its deltas is read. A client whose
local SGD leaves non-finite weights raises FloatingPointError naming the
client, the round and the virtual time of its dispatch.

A client is busy until its update completes and is excluded from cohort
sampling in the meantime (allow_busy_reuse lifts this); a synchronous round
whose cohort is not idle yet starts at Simulation.idle_at. The busy-until
table spans all m_clients ids and a dropped shard's id is busy forever, so
the idle pool is one comparison; one call draws a cohort's k pool indices.
Client streams come from key tables (rng.stream_keys). A dispatch reads its
client's profile and shard size from a table built at set-up, and a version
trains on the dataset's kept arrays, by shard start row, without copies.
The run ends at the server step that brings the aggregated client updates
to the budget, except that feast first applies its open auxiliary rounds;
the total virtual time is the time of the last event that affected the
output model. The driver and the queued evaluations hold the engine only
weakly, so reference counting frees a finished run.

Evaluation runs beside the event loop. A mid-run evaluation tick hands the
served vector to one worker thread, started on the first tick, and keeps a
future in its record; numpy releases the GIL in the forward pass, so the
next model version trains meanwhile. The served vectors are rebound at each
step, never written in place, so the worker reads a fixed model. run() shuts
the worker down, evaluates the final record inline (the one evaluation on
the main thread, reusing the worker's buffers) and completes the records in
the order they were made. The worker calls nothing the benchmark tracer
patches, so traced spans and counters stay on the main thread.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import algorithms, latency, metrics, model, rng
from .algorithms import ClientUpdate, ServerState, make_driver
from .config import ConfigError, ExperimentConfig
from .data import FederatedDataset
from .metrics import MetricsRecord


class EventQueue:
    """Min-heap of (fire_at, seq, handler, args); ties pop in insertion order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: float, handler: Callable[..., None], *args, now: float) -> None:
        if fire_at < now:
            raise ValueError(f"cannot schedule {handler.__name__} at {fire_at} before now={now}")
        heapq.heappush(self._heap, (fire_at, self._seq, handler, args))
        self._seq += 1

    def pop(self) -> tuple[float, Callable[..., None], tuple] | None:
        if not self._heap:
            return None
        fire_at, _, handler, args = heapq.heappop(self._heap)
        return fire_at, handler, args


@dataclass(frozen=True)
class TraceEvent:
    """One entry of Simulation.events, recorded only when tracing is on.

    kind is "dispatch" (one member; completed_at is when its update
    arrives), "aggregate" (the members of one server step) or "aux" (an
    auxiliary-model step; no members, applied in round order). Members are
    (round_id, client_id) pairs, where round_id is the model version (server
    step count) the client was dispatched with. w is the model after an
    aggregate or aux step.
    """

    kind: str
    at: float
    members: tuple[tuple[int, int], ...]
    completed_at: float = math.nan
    w: np.ndarray | None = None


@dataclass
class RunResult:
    """Everything one trial produces."""

    records: list[MetricsRecord]
    counters: dict[str, int]
    total_time_s: float
    server_steps: int
    aggregated_updates: int
    output_w: np.ndarray
    which_model: str

    @property
    def final_record(self) -> MetricsRecord:
        return self.records[-1]

    def summary_dict(self) -> dict:
        return {
            "total_time_s": self.total_time_s,
            "server_steps": self.server_steps,
            "aggregated_updates": self.aggregated_updates,
            "which_model": self.which_model,
            "final_total_acc": self.final_record.total_acc,
            "final_straggler_acc": self.final_record.straggler_acc,
            **{f"n_{k}": v for k, v in sorted(self.counters.items())},
        }


_COUNTER_KEYS = (
    "dispatches",
    "rounds_started",
    "aggregated_updates",
    "discarded_updates",
    "late_folded",
    "late_discarded",
    "dropped_after_deadline",
    "aux_rounds",
    "evals",
)


class Simulation:
    """One seeded run of one experiment config."""

    def __init__(
        self,
        config: ExperimentConfig,
        trial_seed: int,
        dataset: FederatedDataset | None = None,
        trace: bool = False,
    ) -> None:
        self.config = config
        self.algo = config.algo
        self.trace = trace
        self.dataset = dataset if dataset is not None else config.build_dataset()
        self.layout = config.layout()
        scenario = config.latency

        w0 = model.init_params(
            self.layout, rng.stream(trial_seed, rng.INIT), scale=config.model.init_scale
        )
        self.state = ServerState(w=w0, algo=self.algo)

        self.now = 0.0
        self.queue = EventQueue()
        self.counters: dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        # (virtual time, server step, served model name, aggregated updates,
        # accuracies): a Future of the evaluation thread, None for the final
        # record until run() evaluates it
        self._evals: list[tuple[float, int, str, int, Future | None]] = []
        self._evaluator: ThreadPoolExecutor | None = None
        self._eval_out: tuple[np.ndarray | None, np.ndarray] | None = None
        self.events: list[TraceEvent] = []
        self.last_model_event = 0.0
        all_ids = range(config.dataset.m_clients)
        self._client_ids = np.array([s.client_id for s in self.dataset.shards], dtype=np.int64)
        # an id without a shard is never idle
        self._busy_until = np.full(len(all_ids), np.inf)
        self._busy_until[self._client_ids] = 0.0
        # a sync round draws distinct clients even with busy reuse; a fedbuff refill draws one
        if self.algo.name != "fedbuff":
            size = self.algo.resolved_dispatch_size()
            field = "cohort_size" if size == self.algo.cohort_size else "dispatch_size"
        else:
            field = "max_concurrency"
            size = 1 if self.algo.allow_busy_reuse else self.algo.max_concurrency
        if size > len(self._client_ids):
            raise ConfigError(
                f"algo.{field}: {size} clients busy at once, but the dataset keeps only "
                f"{len(self._client_ids)} clients"
            )
        self._cohort_gen = rng.stream(trial_seed, rng.COHORT)
        # client id -> (latency profile, n_examples, batches per epoch, start
        # row in the dataset's kept arrays), in shard order
        b = self.algo.batch_size
        self._dispatch_table = {
            s.client_id: (
                scenario.profile_for(s.is_straggler), s.n_examples, -(-s.n_examples // b), s.start
            )
            for s in self.dataset.shards
        }
        self.teacher_gen = rng.stream(trial_seed, rng.TEACHER)
        self._teacher_download_factor = scenario.teacher_download_factor
        # (purpose, client id) -> that client's stream, made on first use from its key row
        purposes = (rng.LATENCY, rng.SHUFFLE)
        self._client_keys = {p: rng.stream_keys(trial_seed, p, ids=all_ids) for p in purposes}
        self._client_gens: dict[tuple[int, int], np.random.Generator] = {}
        # dispatches of the open model version, trained when it closes
        self._pending: list[tuple] = []

        self.tau_limit: float | None = None
        if self.algo.time_limit:
            self.tau_limit = (
                self.algo.time_limit_s
                if self.algo.time_limit_s is not None
                else self._monte_carlo_time_limit()
            )
        self.driver = make_driver(weakref.proxy(self), self.algo)

    # -- context interface used by drivers -- #

    def sample_cohort(self, k: int) -> list[int]:
        """k sequential uniform picks without replacement from the id-sorted
        idle pool: slot i pops index integers(len(pool) - i), the k indices
        drawn in one call."""
        reuse = self.algo.allow_busy_reuse
        pool = self._client_ids if reuse else np.flatnonzero(self._busy_until <= self.now)
        if k > len(pool):
            raise RuntimeError(
                f"cohort of {k} requested at t={self.now:.3f} but only "
                f"{len(pool)} clients are idle"
            )
        if k == 1:  # a buffered refill: skip the list conversion
            return [int(pool[self._cohort_gen.integers(len(pool))])]
        picks = self._cohort_gen.integers(np.arange(len(pool), len(pool) - k, -1)).tolist()
        pool = pool.tolist()
        return [pool.pop(i) for i in picks]

    def idle_at(self, k: int) -> float:
        """The earliest virtual time, not before now, at which k clients are
        idle: now under allow_busy_reuse, else the k-th smallest busy-until."""
        if self.algo.allow_busy_reuse:
            return self.now
        return max(self.now, float(np.partition(self._busy_until, k - 1)[k - 1]))

    def dispatch(self, client_id: int, *, teacher_w: np.ndarray | None = None) -> ClientUpdate:
        """Record one client's local computation on the open model version;
        the driver schedules what its completion triggers.

        Without a time limit a client runs epochs * ceil(n / b) steps over
        epochs * n examples; with one, the latency draw fixes the steps and
        the last epoch may stop early. A teacher other than state.w itself is
        an extra download, paying comm * teacher_download_factor. The update's
        delta stays None until its model version closes (apply_server_update).
        Every dispatch of one version distills (passes teacher_w) or none does.
        """
        if not self.algo.allow_busy_reuse and self._busy_until[client_id] > self.now:
            raise RuntimeError(f"client {client_id} dispatched while busy")
        profile, n, per_epoch, _ = self._dispatch_table[client_id]
        factors = latency.sample_client_latency(profile, self._client_gen(rng.LATENCY, client_id))
        if self.tau_limit is None:
            steps, examples = self.algo.epochs * per_epoch, self.algo.epochs * n
        else:
            b = self.algo.batch_size
            steps = max(
                1, math.floor((self.tau_limit - factors.overhead_s) / (factors.per_example_s * b))
            )
            epochs, rest = divmod(steps, per_epoch)
            # rest < per_epoch, so the unfinished epoch walked only whole chunks
            examples = epochs * n + rest * b
        extra_download = teacher_w is not None and teacher_w is not self.state.w
        comm_scale = self._teacher_download_factor if extra_download else 1.0
        update = ClientUpdate(
            round_id=self.state.t,
            client_id=client_id,
            delta=None,
            dispatched_at=self.now,
            completed_at=self.now + factors.total_s(examples, comm_scale),
            examples_processed=examples,
            steps_done=steps,
        )
        self._busy_until[client_id] = update.completed_at
        self.counters["dispatches"] += 1
        if self.trace:
            members = ((update.round_id, client_id),)
            self.events.append(TraceEvent("dispatch", self.now, members, update.completed_at))
        self._pending.append((update, teacher_w))
        return update

    def apply_server_update(self, updates: list[ClientUpdate]) -> np.ndarray:
        """Close the current model version, training its dispatches, then
        aggregate updates into one server step; returns their delta sum, a
        fresh array the caller may keep."""
        if self._pending:
            self._train_group(self._pending)
            self._pending = []
        summed = algorithms.canonical_delta_sum(updates)
        algorithms.server_apply(self.state, summed, len(updates))
        self.counters["aggregated_updates"] += len(updates)
        self.last_model_event = self.now
        if self.trace:
            members = tuple(sorted((u.round_id, u.client_id) for u in updates))
            self.events.append(TraceEvent("aggregate", self.now, members, w=self.state.w.copy()))
        if self.state.t % self.config.eval_every == 0:
            self.schedule(self.now, Simulation._eval_record, weakref.proxy(self), self.now)
        return summed

    def apply_aux_update(self, w_snapshot: np.ndarray, delta_plus: np.ndarray, count: int) -> None:
        """Step FeAST's auxiliary model by the summed delta delta_plus of count
        clients that trained from w_snapshot; counts one auxiliary round."""
        state = self.state
        state.aux = algorithms.aux_step(state.aux, w_snapshot, delta_plus, count, state.algo)
        self.counters["aux_rounds"] += 1
        self.last_model_event = self.now
        if self.trace:
            self.events.append(TraceEvent("aux", self.now, (), w=state.aux.copy()))

    def schedule(self, fire_at: float, handler: Callable[..., None], *args) -> None:
        """Call handler(*args) at virtual time fire_at (not before now)."""
        self.queue.schedule(fire_at, handler, *args, now=self.now)

    def budget_reached(self) -> bool:
        return self.counters["aggregated_updates"] >= self.config.budget

    # -- internals -- #

    def _train_group(self, group: list[tuple]) -> None:
        """Train the dispatches of the open model version in one stacked call
        and set each update's delta. group holds dispatch's records:
        (update, teacher_w); each update trains for the steps its dispatch
        charged. The server step that closes the version rebinds state.w only
        after this, so state.w is the version's start."""
        updates, teachers = zip(*group)
        _, sizes, _, starts = zip(*(self._dispatch_table[u.client_id] for u in updates))
        distill = teachers[0] is not None
        for u, teacher in zip(updates, teachers):
            if (teacher is not None) != distill:
                raise RuntimeError(
                    f"client {u.client_id} of model version {u.round_id} does not share "
                    "teacher use with the rest of its version"
                )
        w = self.state.w
        try:
            w_final, _, _ = model.local_sgd(
                w,
                self.layout,
                self.dataset.features,
                self.dataset.labels,
                starts=starts,
                sizes=sizes,
                steps=[u.steps_done for u in updates],
                gens=[self._client_gen(rng.SHUFFLE, u.client_id) for u in updates],
                rho=self.algo.rho if distill else 0.0,
                nu=self.algo.nu,
                teacher_ws=teachers if distill else None,
                anchor=w if self.algo.nu > 0 else None,
                eta_l=self.algo.eta_l,
                batch_size=self.algo.batch_size,
                distill_loss=self.config.model.distill_loss,
                distill_temperature=self.config.model.distill_temperature,
            )
        except model.TrainingDiverged as exc:
            u = updates[exc.member]
            raise FloatingPointError(
                f"client {u.client_id} diverged in round {u.round_id} at "
                f"t={u.dispatched_at:.3f}: local SGD left non-finite weights"
            ) from None
        # Each delta is its own array: a view into w_final would keep the
        # whole group's block alive while one late update is in flight.
        for u, w_i in zip(updates, w_final):
            u.delta = w - w_i

    def _client_gen(self, purpose: int, client_id: int) -> np.random.Generator:
        key = (purpose, client_id)
        gen = self._client_gens.get(key)
        if gen is None:
            gen = self._client_gens[key] = rng.stream_from_key(self._client_keys[purpose][client_id])
        return gen

    def _monte_carlo_time_limit(self, draws_per_client: int = 50) -> float:
        """Population percentile of one-epoch computation time (no comm).

        Pools overhead + per_example * shard_size draws over all clients
        using a dedicated stream keyed by the data seed, so every trial of
        an experiment shares the same limit. Every shard's per_example draws
        come first, then every shard's overhead draws.
        """
        gen = rng.stream(self.config.effective_data_seed(), rng.TIME_LIMIT)
        profiles, sizes, _, _ = zip(*self._dispatch_table.values())  # in shard order
        per_example = [
            latency.sample_lognormal_batch(p.per_example, gen, draws_per_client) for p in profiles
        ]
        overhead = [
            latency.sample_lognormal_batch(p.overhead, gen, draws_per_client) for p in profiles
        ]
        totals = np.array(overhead) + np.array(per_example) * np.array(sizes, dtype=float)[:, None]
        return latency.nearest_rank_percentile(
            totals.ravel(), self.algo.time_limit_percentile
        )

    def _eval_record(self, at_time: float) -> None:
        """A mid-run evaluation tick: the served model is scored on the
        evaluation thread while the run goes on."""
        which_model, vec = self.state.served()
        if self._evaluator is None:
            self._evaluator = ThreadPoolExecutor(max_workers=1, thread_name_prefix="eval")
        # metrics._accuracy, not evaluate_accuracy: nothing the benchmark
        # tracer patches may run off the main thread
        accuracies = self._evaluator.submit(
            metrics._accuracy, vec, self.layout, self.dataset, self.config.eval_cap,
            self._eval_buffers(),
        )
        self._add_record(at_time, which_model, accuracies)

    def _add_record(self, at_time: float, which_model: str, accuracies: Future | None) -> None:
        stamp = (at_time, self.state.t, which_model)
        record = (*stamp, self.counters["aggregated_updates"], accuracies)
        if self._evals and self._evals[-1][:3] == stamp:
            # the last evaluation at an instant wins: an aux step may follow
            # the first; only the final record replaces one, a mid-run one
            self._evals[-1][4].cancel()
            self._evals[-1] = record
            return
        self._evals.append(record)
        self.counters["evals"] += 1

    def _eval_buffers(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The run's one pair of evaluation buffers, made on first use: held
        from set-up, they would add to a run's training peak."""
        if self._eval_out is None:
            self._eval_out = metrics.eval_buffers(self.layout, self.dataset, self.config.eval_cap)
        return self._eval_out

    def run(self) -> RunResult:
        try:
            self.driver.start()
            while not self.driver.is_finished():
                item = self.queue.pop()
                if item is None:
                    raise RuntimeError("event queue drained before the run terminated")
                fire_at, handler, args = item
                if fire_at < self.now:
                    raise RuntimeError(
                        f"event queue produced a time regression: {fire_at} < {self.now}"
                    )
                self.now = fire_at
                handler(*args)

            aggregated = self.counters["aggregated_updates"]
            if aggregated < self.config.budget:
                raise RuntimeError(
                    f"run finished with {aggregated} aggregated updates, "
                    f"below budget {self.config.budget}"
                )
            if self._pending:
                raise RuntimeError(
                    f"run finished with {len(self._pending)} dispatches never trained"
                )
            which_model, served = self.state.served()
            # before the shutdown, so that a mid-run evaluation it replaces is cancelled
            self._add_record(self.last_model_event, which_model, None)
        finally:
            if self._evaluator is not None:
                self._evaluator.shutdown(wait=True)
        final = metrics.evaluate_accuracy(
            served, self.layout, self.dataset, self.config.eval_cap, self._eval_buffers()
        )
        records = [
            MetricsRecord(at, step, n, *(final if acc is None else acc.result()), which)
            for at, step, which, n, acc in self._evals
        ]
        return RunResult(
            records=records,
            counters=dict(self.counters),
            total_time_s=self.last_model_event,
            server_steps=self.state.t,
            aggregated_updates=aggregated,
            output_w=served.copy(),
            which_model=which_model,
        )
