"""Deterministic discrete-event simulation of one federated training run.

The event loop (Simulation.run) pops events in (fire_at, scheduling order)
from an EventQueue and calls each handler with its arguments at fire_at, so
a config and seed replay identically. Every handler receives the simulation
as its first argument, the driver's hooks among them, and no driver or
queued event keeps it, so reference counting frees a finished run. Of the
driver the loop calls only start and is_finished; every other event is
scheduled (Simulation.schedule) by the driver, or by a server step due an
evaluation tick.

The engine owns the mechanics that hold for every algorithm: the idle
pool, latency and training, the server and FeAST auxiliary steps, the
served model, the update budget, evaluation and the trace. Round semantics
live in the drivers (algorithms), which reach the engine only through
algorithms.SimContext.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import algorithms, latency, metrics, model, rng
from .algorithms import DRIVERS, ClientUpdate, ServerState
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
    """One Simulation.tally call, recorded only when tracing is on: the
    counter it moved, its virtual time and the updates it counted, none for
    a kind counted once. w is the model after an aggregated_updates or
    aux_rounds step: the state's own array, which later steps rebind and
    never write into."""

    kind: str
    at: float
    updates: tuple[ClientUpdate, ...] = ()
    w: np.ndarray | None = None


@dataclass
class RunResult:
    """Everything one trial produces. total_time_s is the virtual time of the
    last event that changed the output model."""

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


# Latency draws per shard behind the Monte Carlo time limit. The 374 shards an
# acceptance config keeps pool 18,700 draws, so each integer percentile spans
# 187 ranks. The count fixes what the time-limit stream draws, and so the
# limit every time-limited run reports.
_TIME_LIMIT_DRAWS = 50


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
        # accuracies): a mid-run tick's Future of the evaluation thread, or
        # the final record's pair
        self._evals: list[tuple[float, int, str, int, Future | tuple]] = []
        self._evaluator: ThreadPoolExecutor | None = None
        self._eval_out: tuple[np.ndarray | None, np.ndarray] | None = None
        self.events: list[TraceEvent] = []
        self.last_model_event = 0.0
        # the kept clients' columns as lists, in ascending id order (a dropped
        # shard's id is in none): id, start row in the dataset's kept arrays,
        # size, and the index of its latency profile in _profiles
        shards = self.dataset.shards
        self._ids, self._starts, self._sizes, self._groups = (
            a.tolist() for a in (shards.ids, shards.starts, shards.sizes, shards.is_straggler)
        )
        self._profiles = (scenario.standard_profile, scenario.straggler_profile)
        # the idle kept ids, sorted, and a heap of (busy-until time, id) of the busy ones
        self._reuse = self.algo.allow_busy_reuse
        self._idle = self._ids.copy()
        self._busy: list[tuple[float, int]] = []
        # a sync round draws distinct clients even with busy reuse; a fedbuff refill draws one
        if self.algo.name != "fedbuff":
            size = self.algo.resolved_dispatch_size()
            field = "cohort_size" if size == self.algo.cohort_size else "dispatch_size"
        else:
            field = "max_concurrency"
            size = 1 if self._reuse else self.algo.max_concurrency
        if size > len(self._idle):
            raise ConfigError(
                f"algo.{field}: {size} clients busy at once, but the dataset keeps only "
                f"{len(self._idle)} clients"
            )
        self._cohort_gen = rng.stream(trial_seed, rng.COHORT)
        self._epochs, self._batch_size = self.algo.epochs, self.algo.batch_size
        self.teacher_gen = rng.stream(trial_seed, rng.TEACHER)
        self._teacher_download_factor = scenario.teacher_download_factor
        # kept position -> its client's (latency, shuffle) streams, made
        # together on first use from the key rows at that position; run()
        # hands them back to rng.recycle
        self._client_keys = [
            rng.stream_keys(trial_seed, p, ids=shards.ids) for p in (rng.LATENCY, rng.SHUFFLE)
        ]
        self._client_streams: dict[int, tuple[np.random.Generator, np.random.Generator]] = {}

        self.tau_limit: float | None = None
        if self.algo.time_limit:
            self.tau_limit = (
                self.algo.time_limit_s
                if self.algo.time_limit_s is not None
                else self._monte_carlo_time_limit()
            )
        self.driver = DRIVERS[self.algo.name](self.algo)

    # -- context interface used by drivers -- #

    def sample_cohort(self, k: int) -> list[int]:
        """k sequential uniform picks without replacement from the id-sorted
        idle pool: slot i pops index integers(len(pool) - i), the k indices
        drawn in one call. The picks stay in the pool until dispatched. A
        client is out of the pool from its dispatch to its update's
        completion, or under allow_busy_reuse to its dispatch's own instant."""
        pool = self._release()
        if k > len(pool):
            raise RuntimeError(
                f"cohort of {k} requested at t={self.now:.3f} but only "
                f"{len(pool)} clients are idle"
            )
        if k == 1:  # a buffered refill: skip the copy
            return [pool[self._cohort_gen.integers(len(pool))]]
        picks = self._cohort_gen.integers(np.arange(len(pool), len(pool) - k, -1)).tolist()
        pool = pool.copy()
        return [pool.pop(i) for i in picks]

    def idle_at(self, k: int) -> float:
        """The earliest virtual time, not before now, at which k of the kept
        clients are idle: now while k are idle (always under
        allow_busy_reuse), else the completion that makes the k-th idle."""
        short = k - len(self._release())
        return self.now if short <= 0 else heapq.nsmallest(short, self._busy)[-1][0]

    def dispatch(self, client_id: int, *, teacher_w: np.ndarray | None = None) -> ClientUpdate:
        """Record one client's local computation on the open model version:
        start weights and anchor (nu > 0) state.w, round id state.t. The
        driver chooses only the client and teacher, and schedules what the
        completion triggers.

        Taking the client out of the sorted idle list, by bisection, checks
        that it is idle; a second bisection, on the kept ids, finds its
        position, which gives its start row, size, latency profile and
        streams. It is busy until its update completes, or under
        allow_busy_reuse until now, so the pool read next at this instant
        returns it. Completion time and counts never depend on trained
        weights: the latency factors are drawn first, the steps and examples
        follow by arithmetic, and the update completes at now plus the
        factors' total (latency.LatencySample.total_s). Without a time limit
        a client runs epochs * ceil(n / b) steps over epochs * n examples;
        with one, the latency draw fixes the steps and the last epoch may stop
        early. A teacher other than state.w itself is an extra download,
        paying comm * teacher_download_factor. The batch plan is drawn last,
        from the client's shuffle stream, so every stream draws in dispatch
        order whatever trains. Every update one server step trains distills
        (passes teacher_w) or none does.
        """
        idle = self._release()
        i = bisect.bisect_left(idle, client_id)
        if i == len(idle) or idle[i] != client_id:
            raise RuntimeError(f"client {client_id} dispatched while busy")
        del idle[i]
        k = bisect.bisect_left(self._ids, client_id)
        start, n = self._starts[k], self._sizes[k]
        latency_gen, shuffle_gen = self._streams(k)
        factors = latency.sample_client_latency(self._profiles[self._groups[k]], latency_gen)
        b = self._batch_size
        per_epoch = -(-n // b)
        if self.tau_limit is None:
            steps, examples = self._epochs * per_epoch, self._epochs * n
        else:
            steps = max(
                1, math.floor((self.tau_limit - factors.overhead_s) / (factors.per_example_s * b))
            )
            epochs, rest = divmod(steps, per_epoch)
            # rest < per_epoch, so the unfinished epoch walked only whole chunks
            examples = epochs * n + rest * b
        w = self.state.w
        extra_download = teacher_w is not None and teacher_w is not w
        comm_scale = self._teacher_download_factor if extra_download else 1.0
        plan = model.draw_batch_plan(shuffle_gen, n, steps, b)
        update = ClientUpdate(
            round_id=self.state.t,
            client_id=client_id,
            delta=None,
            dispatched_at=self.now,
            completed_at=self.now + factors.total_s(examples, comm_scale),
            examples_processed=examples,
            steps_done=steps,
            work=(plan, w, teacher_w, start, n),
        )
        heapq.heappush(self._busy, (self.now if self._reuse else update.completed_at, client_id))
        self.tally("dispatches", (update,))
        return update

    def apply_server_update(
        self, updates: list[ClientUpdate], late: Sequence[ClientUpdate] = ()
    ) -> np.ndarray:
        """Aggregate updates into one server step; returns their delta sum, a
        fresh array the caller may keep. Every eval_every-th step schedules
        an evaluation tick.

        An update trains only when a server step reads it: the step first
        trains, in one stacked call (_train_group), the untrained updates it
        aggregates and late, those the driver folds after it. So an update
        the driver discards, and a dispatch still in flight when the run
        ends, never trains.
        """
        untrained = [u for u in (*updates, *late) if u.work is not None]
        if untrained:
            self._train_group(untrained)
        summed = algorithms.canonical_delta_sum(updates)
        algorithms.server_apply(self.state, summed, len(updates))
        self.last_model_event = self.now
        self.tally("aggregated_updates", updates, self.state.w)
        if self.state.t % self.config.eval_every == 0:
            self.schedule(self.now, Simulation._eval_record, self.now)
        return summed

    def apply_aux_update(self, w_snapshot: np.ndarray, delta_plus: np.ndarray, count: int) -> None:
        """Step FeAST's auxiliary model by the summed delta delta_plus of count
        clients that trained from w_snapshot; counts one auxiliary round."""
        state = self.state
        state.aux = algorithms.aux_step(state.aux, w_snapshot, delta_plus, count, state.algo)
        self.last_model_event = self.now
        self.tally("aux_rounds", w=state.aux)

    def tally(
        self, kind: str, updates: Sequence[ClientUpdate] = (), w: np.ndarray | None = None
    ) -> None:
        """The one writer of counters: adds len(updates), or 1 without updates,
        to counters[kind], and when tracing records the call as a TraceEvent."""
        self.counters[kind] += len(updates) or 1
        if self.trace:
            self.events.append(TraceEvent(kind, self.now, tuple(updates), w))

    def schedule(self, fire_at: float, handler: Callable[..., None], *args) -> None:
        """Queue handler with args for virtual time fire_at, not before now."""
        self.queue.schedule(fire_at, handler, *args, now=self.now)

    def budget_reached(self) -> bool:
        """Whether the aggregated updates reached the budget. The run ends at
        the server step that reaches it, except that feast first applies its
        open auxiliary rounds (AuxTrackDriver.is_finished)."""
        return self.counters["aggregated_updates"] >= self.config.budget

    # -- internals -- #

    def _train_group(self, updates: list[ClientUpdate]) -> None:
        """Train untrained updates in one model.local_sgd call and set each
        delta. Each trains for the steps its dispatch charged, on the batch
        plan it drew, from its own start weights, which are also its anchor
        when nu > 0, reading its shard by start row from the dataset's kept
        arrays without a copy. A client whose weights end non-finite raises
        FloatingPointError naming it, its round and its dispatch time."""
        plans, ws, teachers, starts, sizes = zip(*(u.work for u in updates))
        distill = teachers[0] is not None
        for u, teacher in zip(updates, teachers):
            if (teacher is not None) != distill:
                raise RuntimeError(
                    f"client {u.client_id} of round {u.round_id} does not share "
                    "teacher use with the rest of its stacked call"
                )
        # one version's members share their start weights
        w0 = ws[0] if all(w is ws[0] for w in ws) else np.array(ws)
        try:
            w_final, _, _ = model.local_sgd(
                w0,
                self.layout,
                self.dataset.features,
                self.dataset.labels,
                starts=starts,
                sizes=sizes,
                steps=[u.steps_done for u in updates],
                plans=plans,
                rho=self.algo.rho if distill else 0.0,
                nu=self.algo.nu,
                teacher_ws=teachers if distill else None,
                anchor=w0 if self.algo.nu > 0 else None,
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
        for u, w, w_i in zip(updates, ws, w_final):
            u.delta, u.work = w - w_i, None

    def _release(self) -> list[int]:
        """The sorted idle ids, after moving in every busy client whose update
        completes at or before now, so a client is idle again at its
        completion's own instant. Every read of the pool goes through here."""
        busy, idle, now = self._busy, self._idle, self.now
        while busy and busy[0][0] <= now:
            bisect.insort(idle, heapq.heappop(busy)[1])
        return idle

    def _streams(self, k: int) -> tuple[np.random.Generator, np.random.Generator]:
        """The (latency, shuffle) streams of the client at kept position k,
        made together at its first dispatch from row k of the key tables
        (rng.stream_keys of the kept ids, so row k is the key of its id)."""
        streams = self._client_streams.get(k)
        if streams is None:
            latency_keys, shuffle_keys = self._client_keys
            streams = self._client_streams[k] = (
                rng.stream_from_key(latency_keys[k]),
                rng.stream_from_key(shuffle_keys[k]),
            )
        return streams

    def _monte_carlo_time_limit(self) -> float:
        """Population percentile of one-epoch computation time (no comm).

        Pools overhead + per_example * shard_size draws over all clients
        using a dedicated stream keyed by the data seed, so every trial of
        an experiment shares the same limit. Every shard's per_example draws
        come first, then every shard's overhead draws.
        """
        gen = rng.stream(self.config.effective_data_seed(), rng.TIME_LIMIT)
        profiles = [self._profiles[g] for g in self._groups]  # in id order
        per_example = [
            latency.sample_lognormal_batch(p.per_example, gen, _TIME_LIMIT_DRAWS) for p in profiles
        ]
        overhead = [
            latency.sample_lognormal_batch(p.overhead, gen, _TIME_LIMIT_DRAWS) for p in profiles
        ]
        totals = np.array(overhead) + np.array(per_example) * self.dataset.shards.sizes[:, None]
        return latency.nearest_rank_percentile(
            totals.ravel(), self.algo.time_limit_percentile
        )

    def _eval_record(self, at_time: float) -> None:
        """A mid-run evaluation tick. The run's one worker thread, started
        with one block's buffers on the first tick, scores the served vector
        with metrics._accuracy in those buffers, and the record keeps its
        future. numpy releases the GIL in the forward pass, so the next model
        version trains meanwhile. Server steps rebind the served vectors and
        never write into them, so the worker reads a fixed model."""
        which_model, vec = self.state.served()
        if self._evaluator is None:
            # the worker's one-block buffers, made with it: held from set-up,
            # they would add to a run's training peak
            self._evaluator = ThreadPoolExecutor(max_workers=1, thread_name_prefix="eval")
            self._eval_out = metrics.eval_buffers(self.layout, self.dataset, self.config.eval_cap)
        accuracies = self._evaluator.submit(
            metrics._accuracy, vec, self.layout, self.dataset, self.config.eval_cap, self._eval_out
        )
        self._add_record(at_time, which_model, accuracies)

    def _add_record(self, at_time: float, which_model: str, accuracies: Future | tuple) -> None:
        """Append a record, or replace the last one when it has the same
        instant, server step and served model: the last evaluation at an
        instant wins, since an aux step may follow the first. A replaced
        record that holds a Future is cancelled, so the worker skips its tick
        if it has not started it."""
        stamp = (at_time, self.state.t, which_model)
        record = (*stamp, self.counters["aggregated_updates"], accuracies)
        if self._evals and self._evals[-1][:3] == stamp:
            if isinstance(self._evals[-1][4], Future):
                self._evals[-1][4].cancel()
            self._evals[-1] = record
            return
        self._evals.append(record)
        self.tally("evals")

    def run(self) -> RunResult:
        """Run the loop until the driver is finished, then score the final
        record on this thread through evaluate_accuracy, in buffers of its
        own, while the worker finishes its ticks. It is the only record
        scored here, and the only one through evaluate_accuracy: nothing the
        benchmark tracer patches may run off the main thread. Finished or
        failed, the run hands its clients' streams back to rng.recycle and
        keeps none."""
        finished = False
        try:
            self.driver.start(self)
            while not self.driver.is_finished(self):
                item = self.queue.pop()
                if item is None:
                    raise RuntimeError("event queue drained before the run terminated")
                fire_at, handler, args = item
                if fire_at < self.now:
                    raise RuntimeError(
                        f"event queue produced a time regression: {fire_at} < {self.now}"
                    )
                self.now = fire_at
                handler(self, *args)

            aggregated = self.counters["aggregated_updates"]
            if aggregated < self.config.budget:
                raise RuntimeError(
                    f"run finished with {aggregated} aggregated updates, "
                    f"below budget {self.config.budget}"
                )
            which_model, served = self.state.served()
            final = metrics.evaluate_accuracy(
                served, self.layout, self.dataset, self.config.eval_cap
            )
            self._add_record(self.last_model_event, which_model, final)
            finished = True
        finally:
            # a failing run cancels the ticks the worker has not started
            if self._evaluator is not None:
                self._evaluator.shutdown(wait=True, cancel_futures=not finished)
            rng.recycle(itertools.chain.from_iterable(self._client_streams.values()))
            self._client_streams.clear()
        records = [
            MetricsRecord(at, step, n, *(acc.result() if isinstance(acc, Future) else acc), which)
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
