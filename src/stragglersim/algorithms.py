"""Federated optimization algorithms driven by the event engine.

A driver owns only the round semantics of one algorithm family: which
clients are dispatched, which arrivals count, and where late straggler
updates go. It talks to the simulation through a narrow context interface
(SimContext): dispatch a client with its teacher and communication scale,
hand over the updates of one server step, publish an auxiliary model,
learn when k clients will be idle, and schedule one of its own hooks. The
engine binds every dispatch to the open model version (start and anchor
state.w, round id state.t), records the work, and trains every dispatch of
a version together when that version closes, at its server step. The
engine also sums and applies the updates, decides which model is served,
and keeps the trace. Its update budget ends every run: a driver reads
Simulation.budget_reached() and keeps no finished flag of its own.
Conventions shared by every driver:

* A client update carries delta = w_dispatched - w_final, so the server
  subtracts: SGD does w <- w - (eta_g / count) * summed_delta.
* An update's round_id is the model version it started from; a synchronous
  round is named by the version its cohort trains from.
* Delta sums are always accumulated in (round_id, client_id) order so
  aggregation is independent of event arrival order.
* Synchronous cohorts are sampled sequentially without replacement from the
  id-sorted idle pool, one uniform index draw per slot; the buffered driver
  draws from the same stream one client at a time, which makes the two
  families consume randomness identically.

Drivers:
  SyncRoundDriver    plain synchronous rounds (SGD or Adam server), with
                     optional over-selection and per-round time limits;
                     also the base for the history-distillation and
                     auxiliary-model variants below.
  HistoryDistillationDriver  over-selection rounds where late stragglers
                     fold into a bounded history of past round deltas, and
                     each dispatched client distills against a teacher
                     reconstructed from a uniformly sampled history entry;
                     the served model is an EMA of the fast-round iterates.
  AuxTrackDriver     over-selection rounds plus an auxiliary slow-timescale
                     model: stragglers fold into an augmented delta until a
                     per-round deadline, and the auxiliary model averages the
                     augmented updates in strict round order.
  BufferedDriver     fully asynchronous buffered aggregation with a fixed
                     concurrency target and optional distillation/proximal/
                     EMA/Adam modifications.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


ALGORITHM_NAMES = ("fedavg", "fedadam", "fedbuff", "fare_dust", "feast")


@dataclass(frozen=True)
class AlgoConfig:
    """Algorithm selection plus every tunable shared across the drivers."""

    name: str
    eta_g: float = 1.0
    eta_l: float = 0.1
    batch_size: int = 20
    epochs: int = 1
    cohort_size: int = 50
    over_selection: bool = False
    over_selection_factor: float = 1.2
    dispatch_size: int | None = None
    time_limit: bool = False
    time_limit_s: float | None = None
    time_limit_percentile: float = 75.0
    buffer_size: int = 20
    max_concurrency: int = 100
    server_opt: str | None = None
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-4
    ema_enabled: bool | None = None
    ema_beta: float = 0.99
    history_k: int = 50
    rho: float = 0.0
    nu: float = 0.0
    feast_beta: float = 0.99
    kappa: float = 0.9
    eta_a: float | None = None
    tau_max: float = 100000.0
    strict_sequential: bool = False
    skip_distill_when_no_history: bool = False
    allow_busy_reuse: bool = False

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}")
        if self.eta_g <= 0 or self.eta_l < 0:
            raise ValueError(f"need eta_g > 0 and eta_l >= 0, got {self.eta_g}, {self.eta_l}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.cohort_size < 1:
            raise ValueError(f"cohort_size must be >= 1, got {self.cohort_size}")
        if self.over_selection_factor < 1.0:
            raise ValueError("over_selection_factor must be >= 1")
        if self.dispatch_size is not None and self.dispatch_size < self.cohort_size:
            raise ValueError("dispatch_size must be >= cohort_size")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if self.max_concurrency < self.buffer_size and self.name == "fedbuff":
            raise ValueError("max_concurrency must be >= buffer_size")
        if self.server_opt not in (None, "sgd", "adam"):
            raise ValueError(f"server_opt must be sgd or adam, got {self.server_opt!r}")
        if not 0 <= self.ema_beta < 1:
            raise ValueError(f"ema_beta must be in [0, 1), got {self.ema_beta}")
        if not 0 <= self.feast_beta < 1:
            raise ValueError(f"feast_beta must be in [0, 1), got {self.feast_beta}")
        if self.history_k < 1:
            raise ValueError(f"history_k must be >= 1, got {self.history_k}")
        if self.rho < 0 or self.nu < 0:
            raise ValueError("rho and nu must be >= 0")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.eta_a is not None and self.eta_a < 0:
            raise ValueError(f"eta_a must be >= 0, got {self.eta_a}")
        if self.tau_max < 0:
            raise ValueError(f"tau_max must be >= 0, got {self.tau_max}")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be > 0")
        if not 0 < self.time_limit_percentile <= 100:
            raise ValueError("time_limit_percentile must be in (0, 100]")

    def resolved_dispatch_size(self) -> int:
        """Clients dispatched per synchronous round (B_t)."""
        if self.dispatch_size is not None:
            return self.dispatch_size
        if self.over_selection:
            return int(round(self.cohort_size * self.over_selection_factor))
        return self.cohort_size

    def resolved_server_opt(self) -> str:
        if self.server_opt is not None:
            return self.server_opt
        if self.name in ("fedadam", "fare_dust"):
            return "adam"
        return "sgd"

    def resolved_ema_enabled(self) -> bool:
        if self.name == "fare_dust":
            return True
        if self.ema_enabled is None:
            return False
        return self.ema_enabled

    def resolved_eta_a(self) -> float:
        if self.eta_a is not None:
            return self.eta_a
        return self.kappa * self.eta_g


@dataclass
class ClientUpdate:
    """Result of one client computation, delivered via a completion event.

    delta is None until the engine trains the update's model version, which
    it does before the version's first server step reads any delta.
    """

    round_id: int
    client_id: int
    delta: np.ndarray | None
    dispatched_at: float
    completed_at: float
    examples_processed: int
    steps_done: int


# ---- Server-side optimizers ---- #


@dataclass
class ServerState:
    """Global model plus the server optimizer and EMA that algo asks for.

    t counts server steps; the Adam moments exist only for an Adam server.
    ema is None before the first step and without EMA; aux is feast's model.
    """

    w: np.ndarray
    algo: AlgoConfig
    t: int = 0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    ema: np.ndarray | None = None
    aux: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.algo.resolved_server_opt() == "adam":
            self.adam_m = np.zeros_like(self.w)
            self.adam_v = np.zeros_like(self.w)

    def served(self) -> tuple[str, np.ndarray]:
        """The model that is evaluated and returned: aux, else EMA, else w."""
        if self.aux is not None:
            return "aux", self.aux
        if self.ema is not None:
            return "ema", self.ema
        return "global", self.w


def server_apply(state: ServerState, summed_delta: np.ndarray, count: int) -> ServerState:
    """Apply one aggregated update: the averaged delta acts as a pseudo-gradient.

    Every constant comes from state.algo.
    SGD:  w <- w - eta_g * (summed_delta / count)
    Adam: moment updates without bias correction, then
          w <- w - eta_g * m / (sqrt(v) + eps)
    EMA:  ema <- w after the first step, then beta * ema + (1 - beta) * w
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if summed_delta.shape != state.w.shape:
        raise ValueError("summed_delta shape mismatch")
    algo = state.algo
    g = summed_delta / count
    if algo.resolved_server_opt() == "sgd":
        state.w = state.w - algo.eta_g * g
    else:
        b1, b2 = algo.adam_beta1, algo.adam_beta2
        state.adam_m = b1 * state.adam_m + (1.0 - b1) * g
        state.adam_v = b2 * state.adam_v + (1.0 - b2) * (g * g)
        state.w = state.w - algo.eta_g * state.adam_m / (np.sqrt(state.adam_v) + algo.adam_eps)
    state.t += 1
    if algo.resolved_ema_enabled():
        if state.ema is None:
            state.ema = state.w.copy()
        else:
            state.ema = algo.ema_beta * state.ema + (1.0 - algo.ema_beta) * state.w
    return state


def aux_step(
    aux: np.ndarray, w_snapshot: np.ndarray, delta_plus: np.ndarray, count: int, algo: AlgoConfig
) -> np.ndarray:
    """FeAST's auxiliary update: the auxiliary model after aux takes the
    summed delta delta_plus of count clients that trained from w_snapshot."""
    g = delta_plus / count
    w_plus = w_snapshot - algo.eta_g * g
    beta, eta_a = algo.feast_beta, algo.resolved_eta_a()
    return beta * (aux - eta_a * g) + (1.0 - beta) * w_plus


def canonical_delta_sum(updates: list[ClientUpdate]) -> np.ndarray:
    """Sum deltas in (round_id, client_id) order, independent of arrival."""
    if not updates:
        raise ValueError("no updates to sum")
    ordered = sorted(updates, key=lambda u: (u.round_id, u.client_id))
    total = ordered[0].delta.copy()
    for u in ordered[1:]:
        total += u.delta
    return total


# ---- Bounded history of past round deltas ---- #


@dataclass
class DeltaHistoryEntry:
    origin_round: int
    summed_delta: np.ndarray
    contributor_count: int


class DeltaHistory:
    """Sliding window of the last k round deltas, with late-arrival folding."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"history size must be >= 1, got {k}")
        self.k = k
        self._entries: dict[int, DeltaHistoryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, origin_round: int, summed_delta: np.ndarray, count: int) -> None:
        if origin_round in self._entries:
            raise ValueError(f"round {origin_round} already in history")
        self._entries[origin_round] = DeltaHistoryEntry(origin_round, summed_delta, count)
        while len(self._entries) > self.k:
            oldest = min(self._entries)
            del self._entries[oldest]

    def fold(self, origin_round: int, delta: np.ndarray) -> bool:
        """Add a late straggler delta to its origin round; False if evicted."""
        entry = self._entries.get(origin_round)
        if entry is None:
            return False
        entry.summed_delta += delta
        entry.contributor_count += 1
        return True

    def sample(self, gen: np.random.Generator) -> DeltaHistoryEntry | None:
        """Uniform draw over stored entries (ordered by round); None if empty."""
        if not self._entries:
            return None
        keys = sorted(self._entries)
        return self._entries[keys[int(gen.integers(len(keys)))]]


def teacher_from_history(
    w: np.ndarray, entry: DeltaHistoryEntry, eta_g: float
) -> np.ndarray:
    """Reconstruct a teacher by replaying one averaged round delta from w."""
    return w - eta_g * (entry.summed_delta / entry.contributor_count)


# ---- Simulation context expected by drivers ---- #


class SimContext(Protocol):
    now: float
    counters: dict[str, int]
    state: ServerState
    teacher_gen: np.random.Generator
    teacher_comm_scale: float

    def idle_at(self, k: int) -> float: ...

    def sample_cohort(self, k: int) -> list[int]: ...

    def dispatch(
        self, client_id: int, *, teacher_w: np.ndarray | None = None, comm_scale: float = 1.0
    ) -> ClientUpdate: ...

    def apply_server_update(self, updates: list[ClientUpdate]) -> np.ndarray: ...

    def publish_aux(self, aux: np.ndarray) -> None: ...

    def schedule(self, fire_at: float, handler: Callable[..., None], *args) -> None: ...

    def budget_reached(self) -> bool: ...


# ---- Synchronous rounds ---- #


@dataclass
class SyncRound:
    round_id: int
    started_at: float
    fast_ids: frozenset[int]
    fast_updates: list[ClientUpdate] = field(default_factory=list)
    pending_late: list[ClientUpdate] = field(default_factory=list)
    advanced: bool = False
    n_arrived: int = 0


class SyncRoundDriver:
    """Synchronous rounds: dispatch B_t, aggregate the B fastest."""

    def __init__(self, sim: SimContext, config: AlgoConfig) -> None:
        self.sim = sim
        self.config = config
        self.dispatch_size = config.resolved_dispatch_size()
        self.rounds: dict[int, SyncRound] = {}

    # -- hooks overridden by subclasses -- #

    def _teacher_for_dispatch(self) -> tuple[np.ndarray | None, float]:
        return None, 1.0

    def _after_advance(self, rnd: SyncRound, summed: np.ndarray, w_before: np.ndarray) -> None:
        pass

    def _handle_late(self, update: ClientUpdate) -> None:
        self.sim.counters["discarded_updates"] += 1

    # -- driver interface -- #

    def start(self) -> None:
        self._start_round()

    def is_finished(self) -> bool:
        return self.sim.budget_reached()

    def on_client_completed(self, update: ClientUpdate) -> None:
        rnd = self.rounds[update.round_id]
        rnd.n_arrived += 1
        if update.client_id in rnd.fast_ids:
            rnd.fast_updates.append(update)
            if len(rnd.fast_updates) == self.config.cohort_size:
                self._advance(rnd)
        elif rnd.advanced:
            self._handle_late(update)
        else:
            # Tied completion times can deliver a non-fast update before the
            # last fast one; hold it until the round advances.
            rnd.pending_late.append(update)
        if rnd.advanced and rnd.n_arrived == self.dispatch_size:
            del self.rounds[update.round_id]

    # -- internals -- #

    def _start_round(self) -> None:
        # Late clients of earlier rounds may still be busy: wait for a full cohort.
        start_at = self.sim.idle_at(self.dispatch_size)
        if start_at > self.sim.now:
            self.sim.schedule(start_at, self._start_round)
            return
        self.sim.counters["rounds_started"] += 1
        cohort = self.sim.sample_cohort(self.dispatch_size)
        # Teachers are drawn in cohort order before any dispatch.
        teachers = [self._teacher_for_dispatch() for _ in cohort]
        updates = [
            self.sim.dispatch(cid, teacher_w=teacher, comm_scale=scale)
            for cid, (teacher, scale) in zip(cohort, teachers)
        ]
        by_finish = sorted(updates, key=lambda u: (u.completed_at, u.client_id))
        fast_ids = frozenset(u.client_id for u in by_finish[: self.config.cohort_size])
        rid = self.sim.state.t
        self.rounds[rid] = SyncRound(round_id=rid, started_at=self.sim.now, fast_ids=fast_ids)

    def _advance(self, rnd: SyncRound) -> None:
        rnd.advanced = True
        # The server step rebinds state.w, so this reference keeps the
        # pre-step model.
        w_before = self.sim.state.w
        summed = self.sim.apply_server_update(rnd.fast_updates)
        rnd.fast_updates.clear()
        self._after_advance(rnd, summed, w_before)
        for update in rnd.pending_late:
            self._handle_late(update)
        rnd.pending_late.clear()
        if not self.sim.budget_reached() and not self.config.strict_sequential:
            self._start_round()


class HistoryDistillationDriver(SyncRoundDriver):
    """Over-selection rounds with straggler folding into a teacher history."""

    def __init__(self, sim: SimContext, config: AlgoConfig) -> None:
        super().__init__(sim, config)
        self.history = DeltaHistory(config.history_k)

    def _teacher_for_dispatch(self) -> tuple[np.ndarray | None, float]:
        if self.config.rho <= 0:
            return None, 1.0
        entry = self.history.sample(self.sim.teacher_gen)
        if entry is None:
            if self.config.skip_distill_when_no_history:
                return None, 1.0
            # No history yet: the current global model stands in as teacher,
            # which the client already downloads.
            return self.sim.state.w.copy(), 1.0
        teacher = teacher_from_history(self.sim.state.w, entry, self.config.eta_g)
        return teacher, self.sim.teacher_comm_scale

    def _after_advance(self, rnd: SyncRound, summed: np.ndarray, w_before: np.ndarray) -> None:
        self.history.push(rnd.round_id, summed, self.config.cohort_size)

    def _handle_late(self, update: ClientUpdate) -> None:
        if self.history.fold(update.round_id, update.delta):
            self.sim.counters["late_folded"] += 1
        else:
            self.sim.counters["late_discarded"] += 1


@dataclass
class PendingAuxRound:
    """One round waiting for stragglers before its auxiliary-model update.

    delta_plus sums the deltas of its count_plus reported clients (the fast
    cohort plus folded stragglers), applied from w_snapshot, the model the
    round trained from. ready: the deadline passed or every client reported.
    """

    round_id: int
    w_snapshot: np.ndarray
    delta_plus: np.ndarray
    count_plus: int
    ready: bool = False


class AuxTrackDriver(SyncRoundDriver):
    """Over-selection rounds plus an auxiliary model fed by augmented deltas.

    The global model advances on the B fastest updates as usual. Stragglers
    from round t keep folding into an augmented delta until min(round start +
    tau_max, all dispatched clients reported); the auxiliary model then takes
    the aux_step of each round's augmented delta, strictly in round order.
    With strict_sequential the next round only starts after the previous
    round's auxiliary update, reproducing a blocking wait of tau_max per round.
    """

    def __init__(self, sim: SimContext, config: AlgoConfig) -> None:
        super().__init__(sim, config)
        self.pending: dict[int, PendingAuxRound] = {}
        self.next_aux_round = 0

    def start(self) -> None:
        self.sim.state.aux = self.sim.state.w.copy()
        super().start()

    def is_finished(self) -> bool:
        return self.sim.budget_reached() and not self.pending

    def _after_advance(self, rnd: SyncRound, summed: np.ndarray, w_before: np.ndarray) -> None:
        rec = PendingAuxRound(rnd.round_id, w_before, summed, self.config.cohort_size)
        self.pending[rnd.round_id] = rec
        if self._all_reported(rec):
            self._mark_ready(rec)
        else:
            # A deadline in the past still fires "now"; queued same-time
            # completions hold earlier sequence numbers, so they fold first.
            deadline = max(rnd.started_at + self.config.tau_max, self.sim.now)
            self.sim.schedule(deadline, self.on_aux_deadline, rnd.round_id)

    def _handle_late(self, update: ClientUpdate) -> None:
        rec = self.pending.get(update.round_id)
        if rec is None or rec.ready:
            self.sim.counters["dropped_after_deadline"] += 1
            return
        rec.delta_plus += update.delta
        rec.count_plus += 1
        self.sim.counters["late_folded"] += 1
        if self._all_reported(rec):
            self._mark_ready(rec)

    def _all_reported(self, rec: PendingAuxRound) -> bool:
        """Every dispatched client reported; a strict round waits for its deadline."""
        return not self.config.strict_sequential and rec.count_plus == self.dispatch_size

    def on_aux_deadline(self, round_id: int) -> None:
        rec = self.pending.get(round_id)
        if rec is not None and not rec.ready:
            self._mark_ready(rec)

    def _mark_ready(self, rec: PendingAuxRound) -> None:
        rec.ready = True
        # Later rounds can become ready before earlier ones; the auxiliary
        # update is applied strictly in round order, holding early-comers.
        while (head := self.pending.get(self.next_aux_round)) is not None and head.ready:
            self._apply_aux(head)
            del self.pending[self.next_aux_round]
            self.next_aux_round += 1
            # a strictly sequential run opens its next round only now
            if self.config.strict_sequential and not self.sim.budget_reached():
                self._start_round()

    def _apply_aux(self, rec: PendingAuxRound) -> None:
        if rec.round_id != self.next_aux_round:
            raise RuntimeError(
                f"auxiliary update for round {rec.round_id} out of order; "
                f"expected {self.next_aux_round}"
            )
        aux = self.sim.state.aux
        self.sim.publish_aux(
            aux_step(aux, rec.w_snapshot, rec.delta_plus, rec.count_plus, self.config)
        )


# ---- Buffered asynchronous aggregation ---- #


class BufferedDriver:
    """Asynchronous buffered aggregation with a fixed concurrency target.

    max_concurrency clients run at all times; each completion lands its
    delta (unscaled) in the buffer, and every buffer_size-th landing flushes
    the canonical sum into the server optimizer. Refills are dispatched via
    queue events scheduled at the completion timestamp so that all tied
    completions are processed before any refill samples a client or reads
    the (possibly just-updated) global model.
    """

    def __init__(self, sim: SimContext, config: AlgoConfig) -> None:
        self.sim = sim
        self.config = config
        self.buffer: list[ClientUpdate] = []

    def start(self) -> None:
        for _ in range(self.config.max_concurrency):
            self.on_dispatch()

    def is_finished(self) -> bool:
        return self.sim.budget_reached()

    def on_client_completed(self, update: ClientUpdate) -> None:
        self.buffer.append(update)
        if len(self.buffer) == self.config.buffer_size:
            self.sim.apply_server_update(self.buffer)
            self.buffer.clear()
        # The run ends after this event once the budget is reached, so a
        # queued refill never pops after it.
        if not self.sim.budget_reached():
            self.sim.schedule(self.sim.now, self.on_dispatch)

    def on_dispatch(self) -> None:
        cid = self.sim.sample_cohort(1)[0]
        self.sim.dispatch(cid, teacher_w=self.sim.state.w if self.config.rho > 0 else None)


def make_driver(sim: SimContext, config: AlgoConfig):
    if config.name in ("fedavg", "fedadam"):
        return SyncRoundDriver(sim, config)
    if config.name == "fare_dust":
        return HistoryDistillationDriver(sim, config)
    if config.name == "feast":
        return AuxTrackDriver(sim, config)
    if config.name == "fedbuff":
        return BufferedDriver(sim, config)
    raise ValueError(f"unknown algorithm {config.name!r}")
