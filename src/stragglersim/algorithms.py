"""Federated optimization algorithms driven by the event engine.

A driver owns only the round semantics of one algorithm family: which
clients are dispatched, which arrivals count, and where late straggler
updates go. The engine owns everything else (see engine). A driver reaches
it only through the sim argument of its hooks, an engine.Simulation, whose
driver-facing names are the boundary: now, state, teacher_gen, idle_at,
sample_cohort, dispatch, apply_server_update, apply_aux_update, tally,
schedule and budget_reached. tests/test_source.py holds that list and checks
it. A driver keeps no finished flag: budget_reached ends every run.
Conventions shared by every driver:

* A client update carries delta = w_dispatched - w_final, so the server
  subtracts: SGD does w <- w - (eta_g / count) * summed_delta.
* An update's round_id is the model version it started from; a synchronous
  round is named by the version its cohort trains from.
* A server step sums its deltas in (round_id, client_id) order, whatever
  the arrival order. History folds and FeAST's augmented deltas add late
  deltas in arrival order: deterministic, but their sums depend on it.
* Synchronous cohorts and the buffered driver's single refills draw from
  the same cohort stream (Simulation.sample_cohort), so the two families
  consume randomness identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .engine import Simulation


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
    ema_enabled: bool = False
    ema_beta: float = 0.99
    history_k: int = 50
    rho: float = 0.0
    nu: float = 0.0
    feast_beta: float = 0.99
    kappa: float = 0.9
    tau_max: float = 100000.0
    strict_sequential: bool = False
    skip_distill_when_no_history: bool = False

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}")
        if self.eta_g <= 0 or self.eta_l < 0:
            raise ValueError(f"need eta_g > 0 and eta_l >= 0, got {self.eta_g}, {self.eta_l}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.cohort_size < 1:
            raise ValueError(f"cohort_size must be >= 1, got {self.cohort_size}")
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
        if self.tau_max < 0:
            raise ValueError(f"tau_max must be >= 0, got {self.tau_max}")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be > 0")
        if not 0 < self.time_limit_percentile <= 100:
            raise ValueError("time_limit_percentile must be in (0, 100]")

    def resolved_dispatch_size(self) -> int:
        """Clients dispatched per synchronous round (B_t)."""
        return self.cohort_size if self.dispatch_size is None else self.dispatch_size

    def resolved_server_opt(self) -> str:
        if self.server_opt is not None:
            return self.server_opt
        if self.name in ("fedadam", "fare_dust"):
            return "adam"
        return "sgd"

    def resolved_ema_enabled(self) -> bool:
        return self.name == "fare_dust" or self.ema_enabled

    def resolved_eta_a(self) -> float:
        """FeAST's auxiliary step, kappa * eta_g."""
        return self.kappa * self.eta_g


@dataclass
class ClientUpdate:
    """Result of one client computation; completed_at is fixed at dispatch.

    work is what the engine trains the update from, fixed at dispatch too:
    (batch plan, start weights, teacher_w, start row, shard size). delta is
    None until the update trains, which clears work; reading an untrained
    delta raises RuntimeError (_read_delta).
    """

    round_id: int
    client_id: int
    delta: np.ndarray | None
    dispatched_at: float
    completed_at: float
    examples_processed: int
    steps_done: int
    work: tuple | None = field(default=None, repr=False, compare=False)


def _read_delta(update: ClientUpdate) -> np.ndarray:
    """update.delta; RuntimeError naming the client and round if it never trained."""
    if update.delta is None:
        raise RuntimeError(
            f"the update of client {update.client_id} from round {update.round_id} "
            "is read but was never trained"
        )
    return update.delta


# ---- Server-side optimizers ---- #


@dataclass
class ServerState:
    """Global model plus the server optimizer, EMA and aux model that algo asks for.

    t counts server steps; the Adam moments exist only for an Adam server.
    ema is None before the first step and without EMA; feast's aux starts at w.
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
        if self.algo.name == "feast":
            self.aux = self.w.copy()

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
    # the list becomes one C-contiguous (B, P) block, whose rows numpy adds
    # in order, as a += loop would
    return np.add.reduce([_read_delta(u) for u in ordered])


# ---- Bounded history of past round deltas ---- #


@dataclass
class DeltaHistoryEntry:
    origin_round: int
    summed_delta: np.ndarray
    contributor_count: int


class DeltaHistory:
    """Sliding window of the last k round deltas, with late-arrival folding.
    Rounds are pushed in increasing order, so insertion order is round order."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"history size must be >= 1, got {k}")
        self.k = k
        self._entries: dict[int, DeltaHistoryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, origin_round: int, summed_delta: np.ndarray, count: int) -> None:
        if self._entries and origin_round <= next(reversed(self._entries)):
            raise ValueError(f"round {origin_round} is not newer than the history's newest")
        self._entries[origin_round] = DeltaHistoryEntry(origin_round, summed_delta, count)
        if len(self._entries) > self.k:
            del self._entries[next(iter(self._entries))]

    def fold(self, update: ClientUpdate) -> bool:
        """Add a late straggler's delta to its origin round; False if evicted."""
        entry = self._entries.get(update.round_id)
        if entry is None:
            return False
        entry.summed_delta += _read_delta(update)
        entry.contributor_count += 1
        return True

    def sample(self, gen: np.random.Generator) -> DeltaHistoryEntry | None:
        """Uniform draw over stored entries (ordered by round); None if empty."""
        if not self._entries:
            return None
        return list(self._entries.values())[int(gen.integers(len(self._entries)))]


def teacher_from_history(
    w: np.ndarray, entry: DeltaHistoryEntry, eta_g: float
) -> np.ndarray:
    """Reconstruct a teacher by replaying one averaged round delta from w."""
    return w - eta_g * (entry.summed_delta / entry.contributor_count)


# ---- Synchronous rounds ---- #


class SyncRoundDriver:
    """Synchronous rounds (fedavg, fedadam): dispatch B_t, aggregate the B
    fastest, with an SGD or Adam server, optional over-selection and
    per-round time limits. A round knows at its start which B are fast, by
    (completed_at, client_id), so it schedules its close then, and then each
    late update in dispatch order. Late updates are discarded unread unless
    folds_late: then the close names them late to its server step. The base
    of the history-distillation and auxiliary-model drivers."""

    folds_late = False

    def __init__(self, config: AlgoConfig) -> None:
        self.config = config
        self.dispatch_size = config.resolved_dispatch_size()

    # -- hooks overridden by subclasses -- #

    def _teacher_for_dispatch(self, sim: Simulation) -> np.ndarray | None:
        return None

    def _after_advance(
        self, sim: Simulation, round_id: int, started_at: float, summed: np.ndarray,
        w_before: np.ndarray,
    ) -> None:
        pass

    def on_client_completed(self, sim: Simulation, update: ClientUpdate) -> None:
        """A late update arrives after its round closed."""
        sim.tally("discarded_updates", (update,))

    # -- driver interface -- #

    def start(self, sim: Simulation) -> None:
        self._start_round(sim)

    def is_finished(self, sim: Simulation) -> bool:
        return sim.budget_reached()

    # -- internals -- #

    def _start_round(self, sim: Simulation) -> None:
        # Late clients of earlier rounds may still be busy: wait for a full cohort.
        start_at = sim.idle_at(self.dispatch_size)
        if start_at > sim.now:
            sim.schedule(start_at, self._start_round)
            return
        sim.tally("rounds_started")
        cohort = sim.sample_cohort(self.dispatch_size)
        updates = [sim.dispatch(cid, teacher_w=self._teacher_for_dispatch(sim)) for cid in cohort]
        b = self.config.cohort_size
        by_finish = sorted(
            range(len(updates)), key=lambda i: (updates[i].completed_at, updates[i].client_id)
        )
        fast = set(by_finish[:b])
        close_at = updates[by_finish[b - 1]].completed_at
        # Updates due at one time arrive in dispatch order, so the round closes
        # on the last-dispatched fast update due at close_at. A late update due
        # then but dispatched before that one is held: the close hands it on
        # after the server step and before the next round starts.
        last = max(i for i in fast if updates[i].completed_at == close_at)
        held, late = [], []
        for i, u in enumerate(updates):
            if i not in fast:
                (held if i < last and u.completed_at == close_at else late).append(u)
        # The close is scheduled first, so it runs before same-time late events.
        sim.schedule(
            close_at, self._close_round, [updates[i] for i in by_finish[:b]], held,
            (held + late) if self.folds_late else [],
        )
        for u in late:
            sim.schedule(u.completed_at, self.on_client_completed, u)

    def _close_round(
        self, sim: Simulation, fast: list[ClientUpdate], held: list[ClientUpdate],
        late: list[ClientUpdate],
    ) -> None:
        # The step rebinds state.w, so w_before keeps the pre-step model. A
        # cohort is dispatched at one instant from one version: fast[0] names both.
        w_before = sim.state.w
        summed = sim.apply_server_update(fast, late)
        self._after_advance(sim, fast[0].round_id, fast[0].dispatched_at, summed, w_before)
        for update in held:
            self.on_client_completed(sim, update)
        if not sim.budget_reached():
            self._start_round(sim)


class HistoryDistillationDriver(SyncRoundDriver):
    """fare_dust: over-selection rounds whose late stragglers fold into a
    bounded history of past round deltas. Each dispatched client distills
    against a teacher rebuilt from a uniformly sampled history entry, and
    the served model is an EMA of the fast-round iterates."""

    folds_late = True

    def __init__(self, config: AlgoConfig) -> None:
        super().__init__(config)
        self.history = DeltaHistory(config.history_k)
        # this round's teachers by origin round: its dispatches that draw one
        # entry share one array. Folds run only in event handlers, between
        # rounds' dispatches, so no entry changes while the round dispatches.
        self._teachers: dict[int, np.ndarray] = {}

    def _start_round(self, sim: Simulation) -> None:
        self._teachers.clear()
        super()._start_round(sim)

    def _teacher_for_dispatch(self, sim: Simulation) -> np.ndarray | None:
        if self.config.rho <= 0:
            return None
        entry = self.history.sample(sim.teacher_gen)
        if entry is None:
            if self.config.skip_distill_when_no_history:
                return None
            # No history yet: the open model itself stands in as teacher; the
            # client already downloads it, so the engine charges no extra comm.
            return sim.state.w
        teacher = self._teachers.get(entry.origin_round)
        if teacher is None:
            teacher = teacher_from_history(sim.state.w, entry, self.config.eta_g)
            self._teachers[entry.origin_round] = teacher
        return teacher

    def _after_advance(
        self, sim: Simulation, round_id: int, started_at: float, summed: np.ndarray,
        w_before: np.ndarray,
    ) -> None:
        self.history.push(round_id, summed, self.config.cohort_size)

    def on_client_completed(self, sim: Simulation, update: ClientUpdate) -> None:
        sim.tally("late_folded" if self.history.fold(update) else "late_discarded", (update,))


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
    """feast: over-selection rounds plus an auxiliary model fed by augmented deltas.

    The global model advances on the B fastest updates as usual. Stragglers
    from round t keep folding into an augmented delta until min(round start +
    tau_max, all dispatched clients reported); the auxiliary model then takes
    the aux_step of each round's augmented delta, strictly in round order.
    With strict_sequential the next round only starts after the previous
    round's auxiliary update, reproducing a blocking wait of tau_max per round.
    """

    folds_late = True

    def __init__(self, config: AlgoConfig) -> None:
        super().__init__(config)
        self.pending: dict[int, PendingAuxRound] = {}
        self.next_aux_round = 0

    def _start_round(self, sim: Simulation) -> None:
        # a strictly sequential run opens its next round only at the previous
        # round's auxiliary update (_mark_ready)
        if not (self.config.strict_sequential and self.pending):
            super()._start_round(sim)

    def is_finished(self, sim: Simulation) -> bool:
        return sim.budget_reached() and not self.pending

    def _after_advance(
        self, sim: Simulation, round_id: int, started_at: float, summed: np.ndarray,
        w_before: np.ndarray,
    ) -> None:
        rec = PendingAuxRound(round_id, w_before, summed, self.config.cohort_size)
        self.pending[round_id] = rec
        if self._all_reported(rec):
            self._mark_ready(sim, rec)
        else:
            # A deadline in the past still fires "now". The round scheduled its
            # late updates when it started, so those due at the deadline's
            # time hold earlier sequence numbers and fold first.
            deadline = max(started_at + self.config.tau_max, sim.now)
            sim.schedule(deadline, self.on_aux_deadline, round_id)

    def on_client_completed(self, sim: Simulation, update: ClientUpdate) -> None:
        rec = self.pending.get(update.round_id)
        if rec is None or rec.ready:
            sim.tally("dropped_after_deadline", (update,))
            return
        rec.delta_plus += _read_delta(update)
        rec.count_plus += 1
        sim.tally("late_folded", (update,))
        if self._all_reported(rec):
            self._mark_ready(sim, rec)

    def _all_reported(self, rec: PendingAuxRound) -> bool:
        """Every dispatched client reported; a strict round waits for its deadline."""
        return not self.config.strict_sequential and rec.count_plus == self.dispatch_size

    def on_aux_deadline(self, sim: Simulation, round_id: int) -> None:
        rec = self.pending.get(round_id)
        if rec is not None and not rec.ready:
            self._mark_ready(sim, rec)

    def _mark_ready(self, sim: Simulation, rec: PendingAuxRound) -> None:
        rec.ready = True
        # Later rounds can become ready before earlier ones; the auxiliary
        # update is applied strictly in round order, holding early-comers.
        while (head := self.pending.get(self.next_aux_round)) is not None and head.ready:
            self._apply_aux(sim, head)
            del self.pending[self.next_aux_round]
            self.next_aux_round += 1
            # a strictly sequential run opens its next round only now
            if self.config.strict_sequential and not sim.budget_reached():
                self._start_round(sim)

    def _apply_aux(self, sim: Simulation, rec: PendingAuxRound) -> None:
        if rec.round_id != self.next_aux_round:
            raise RuntimeError(
                f"auxiliary update for round {rec.round_id} out of order; "
                f"expected {self.next_aux_round}"
            )
        sim.apply_aux_update(rec.w_snapshot, rec.delta_plus, rec.count_plus)


# ---- Buffered asynchronous aggregation ---- #


class BufferedDriver:
    """fedbuff: asynchronous buffered aggregation with a fixed concurrency
    target, and optional distillation against the global model, proximal
    term, EMA and Adam server.

    max_concurrency clients run at all times; each dispatch schedules its
    completion, which lands the delta (unscaled) in the buffer, and every
    buffer_size-th landing flushes the canonical sum into the server
    optimizer. Refills are dispatched via
    queue events scheduled at the completion timestamp so that all tied
    completions are processed before any refill samples a client or reads
    the (possibly just-updated) global model.
    """

    def __init__(self, config: AlgoConfig) -> None:
        self.config = config
        self.buffer: list[ClientUpdate] = []

    def start(self, sim: Simulation) -> None:
        for _ in range(self.config.max_concurrency):
            self.on_dispatch(sim)

    def is_finished(self, sim: Simulation) -> bool:
        return sim.budget_reached()

    def on_client_completed(self, sim: Simulation, update: ClientUpdate) -> None:
        self.buffer.append(update)
        if len(self.buffer) == self.config.buffer_size:
            sim.apply_server_update(self.buffer)
            self.buffer.clear()
        # The run ends after this event once the budget is reached, so a
        # queued refill never pops after it.
        if not sim.budget_reached():
            sim.schedule(sim.now, self.on_dispatch)

    def on_dispatch(self, sim: Simulation) -> None:
        cid = sim.sample_cohort(1)[0]
        update = sim.dispatch(cid, teacher_w=sim.state.w if self.config.rho > 0 else None)
        sim.schedule(update.completed_at, self.on_client_completed, update)


# the driver class of each of ALGORITHM_NAMES, which AlgoConfig checks
DRIVERS = {
    "fedavg": SyncRoundDriver,
    "fedadam": SyncRoundDriver,
    "fedbuff": BufferedDriver,
    "fare_dust": HistoryDistillationDriver,
    "feast": AuxTrackDriver,
}
