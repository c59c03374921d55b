"""Tests for the discrete-event loop: ordering, equivalences, invariants."""

import copy
import dataclasses
import gc
import itertools
import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import test_golden as golden
from conftest import round_views
from hypothesis import given, settings
from hypothesis import strategies as st

from stragglersim import engine, metrics, model, rng
from stragglersim.algorithms import AlgoConfig
from stragglersim.config import DATASETS_KEPT, ExperimentConfig, ModelConfig, load_config
from stragglersim.data import DatasetConfig, build_dataset
from stragglersim.engine import _COUNTER_KEYS, EventQueue, Simulation
from stragglersim.latency import LatencyProfile, LatencyScenario, LognormalParams


def _profile(mu_comm, mu_pe, mu_ov, sigma=0.0):
    return LatencyProfile(
        comm=LognormalParams(mu_comm, sigma),
        per_example=LognormalParams(mu_pe, sigma),
        overhead=LognormalParams(mu_ov, sigma),
    )


# Deterministic latencies: every factor collapses to exp(mu).
DET_PE = LatencyScenario("pe", _profile(1.0, -3.0, 0.5), _profile(1.0, -3.0, 0.5))
DET_PDPE = LatencyScenario("pdpe", _profile(1.0, -3.0, 0.5), _profile(2.5, -2.0, 1.0))

SMALL_DATA = DatasetConfig(
    n_classes=4,
    d_in=4,
    m_clients=30,
    median_shard_size=8.0,
    size_sigma=0.5,
    straggler_classes=(0, 1),
    n_straggler_clients=8,
    eval_size=200,
)


def _config(algo, *, dataset=SMALL_DATA, scenario=DET_PDPE, budget=40, eval_every=10, seed=0):
    return ExperimentConfig(
        algo=algo,
        dataset=dataset,
        latency=scenario,
        model=ModelConfig(hidden=0),
        budget=budget,
        eval_every=eval_every,
        eval_cap=128,
        trials=1,
        base_seed=seed,
    )


# ---- event queue ---- #


def test_queue_orders_by_time_then_insertion():
    gen = rng.stream(0, rng.VERIFY, 7)
    queue = EventQueue()
    scheduled = []
    popped = []
    for k in range(500):
        t = float(np.round(gen.uniform(0.0, 20.0), 1))  # force plenty of ties
        queue.schedule(t, popped.append, k, now=0.0)
        scheduled.append((t, k))
    times = []
    while len(queue):
        fire_at, handler, args = queue.pop()
        times.append(fire_at)
        handler(*args)
    # k is the insertion counter
    assert list(zip(times, popped)) == sorted(scheduled)
    assert queue.pop() is None


def test_queue_rejects_events_in_the_past():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.schedule(1.0, print, now=2.0)
    queue.schedule(2.0, print, now=2.0)  # "now" is fine


# ---- synchronous rounds ---- #

def _run(config, seed=0, trace=True):
    sim = Simulation(config, trial_seed=seed, trace=trace)
    result = sim.run()
    return sim, result


REPO = Path(__file__).resolve().parent.parent
ACCEPTANCE_DIR = REPO / "configs" / "acceptance"
ACCEPTANCE = ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
_CROWD = dict(eta_l=0.1, batch_size=20, buffer_size=10, max_concurrency=100)


def _acceptance(name, algo=None, budget=1000):
    config = load_config(ACCEPTANCE_DIR / f"{name}.json")
    return dataclasses.replace(config, budget=budget, algo=algo or config.algo)


@pytest.mark.parametrize(
    "config, seed",
    [(_config(AlgoConfig("fedavg", cohort_size=5, dispatch_size=6, eta_l=0.05, batch_size=4)), 0)]
    + [(_acceptance(name, budget=500), seed) for name in ACCEPTANCE for seed in (0, 1)],
    ids=["tied_small"] + [f"{name}-{seed}" for name in ACCEPTANCE for seed in (0, 1)],
)
def test_round_advances_at_bth_order_statistic_exactly(config, seed):
    # Each round's step fires at the B-th smallest completion time of its
    # dispatched clients, and steps exactly those B (ties go by client id).
    sim, _ = _run(config, seed)
    cohort = config.algo.cohort_size
    assert sim.driver.dispatch_size == (config.algo.dispatch_size or cohort)
    views = round_views(sim.events)
    assert len(views) == config.budget // cohort
    for entry in views:
        assert len(entry.completed_at) == sim.driver.dispatch_size
        finishes = sorted((t, cid) for cid, t in entry.completed_at.items())
        assert entry.advanced_at == finishes[cohort - 1][0]
        assert entry.fast_ids == sorted(cid for _, cid in finishes[:cohort])


def test_full_participation_round_waits_for_slowest():
    algo = AlgoConfig("fedavg", cohort_size=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=20)
    sim, result = _run(config)
    for entry in round_views(sim.events):
        assert entry.advanced_at == max(entry.completed_at.values())
        assert entry.fast_ids == sorted(entry.completed_at)


def _fedbuff_runs():
    """fedbuff_crowd at seeds 0-2, and the golden fedbuff variants at the golden seeds."""
    crowd = load_config(REPO / "benchmarks" / "configs" / "fedbuff_crowd.json")
    variants = golden._variants()
    return [pytest.param(crowd, s, id=f"fedbuff_crowd-{s}") for s in range(3)] + [
        pytest.param(variants[name], s, id=f"{name}-{s}")
        for name in ("fedbuff", "fedbuff_time_limit") for s in golden.SEEDS
    ]


@pytest.mark.parametrize("config, seed", _fedbuff_runs())
def test_fedbuff_keeps_max_concurrency_clients_in_flight(config, seed):
    # Little's law on the sample path: clipped at the run's end T, the
    # dispatches' busy times add up to max_concurrency x T exactly when
    # max_concurrency clients are in flight at every instant of [0, T].
    sim, _ = _run(config, seed)
    end = sim.now
    dispatched = [u for e in sim.events if e.kind == "dispatches" for u in e.updates]
    busy = math.fsum(min(u.completed_at, end) - u.dispatched_at for u in dispatched)
    assert busy == pytest.approx(config.algo.max_concurrency * end, rel=1e-12, abs=0.0)


def test_deterministic_latency_matches_formula():
    # With all sigmas at zero a client's duration is a closed-form function
    # of its group and shard size.
    algo = AlgoConfig("fedavg", cohort_size=4, dispatch_size=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=16)
    sim, result = _run(config)
    shards = sim.dataset.shards
    sizes = dict(zip(shards.ids.tolist(), shards.sizes.tolist()))
    flags = dict(zip(shards.ids.tolist(), shards.is_straggler.tolist()))
    for entry in round_views(sim.events):
        for cid, completed in entry.completed_at.items():
            profile = DET_PDPE.profile_for(flags[cid])
            expected = (
                math.exp(profile.comm.mu) * 1.0
                + math.exp(profile.overhead.mu)
                + math.exp(profile.per_example.mu) * sizes[cid]
            )
            assert completed == entry.started_at + expected


def test_budget_invariant_and_step_counting():
    algo = AlgoConfig("fedavg", cohort_size=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=53)
    sim, result = _run(config)
    assert result.aggregated_updates == 55  # ceil(53 / 5) rounds
    assert config.budget <= result.aggregated_updates < config.budget + 5
    assert result.server_steps == 11
    assert sim.counters["dispatches"] == 55
    assert sim.counters["rounds_started"] == 11


def test_over_selection_discards_late_updates():
    algo = AlgoConfig("fedavg", cohort_size=4, dispatch_size=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=40)
    sim, result = _run(config)
    rounds = sim.counters["rounds_started"]
    assert sim.driver.dispatch_size == 5
    assert result.aggregated_updates == 4 * rounds
    # every dispatched non-fast update is eventually discarded or in flight
    in_flight = sim.counters["dispatches"] - result.aggregated_updates
    assert sim.counters["discarded_updates"] <= in_flight
    assert sim.counters["discarded_updates"] > 0


def test_clients_are_never_double_booked():
    algo = AlgoConfig("fedavg", cohort_size=6, dispatch_size=7, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=60)
    sim, result = _run(config)
    intervals = {}
    for entry in round_views(sim.events):
        for cid, completed in entry.completed_at.items():
            intervals.setdefault(cid, []).append((entry.started_at, completed))
    for cid, spans in intervals.items():
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0, f"client {cid} re-dispatched while busy"


def test_a_round_waits_for_busy_clients():
    # One straggler, so the advance instant can never coincide with the
    # last busy client's completion: the next cohort is short one client
    # until that client completes, and the round starts only then.
    dataset = DatasetConfig(
        n_classes=4,
        d_in=4,
        m_clients=6,
        median_shard_size=8.0,
        straggler_classes=(0,),
        n_straggler_clients=1,
        eval_size=50,
    )
    algo = AlgoConfig("fedavg", cohort_size=5, dispatch_size=6, eta_l=0.05, batch_size=4)
    config = _config(algo, dataset=dataset, budget=20)
    assert config.algo.resolved_dispatch_size() == 6
    sim, result = _run(config)
    assert result.aggregated_updates >= 20
    spans = {}
    for event in sim.events:
        if event.kind == "dispatches":
            (update,) = event.updates
            spans.setdefault(update.client_id, []).append((event.at, update.completed_at))
    for runs in spans.values():
        assert all(end <= start for (_, end), (start, _) in zip(runs, runs[1:]))
    views = round_views(sim.events)
    assert sim.counters["rounds_started"] == len(views)
    assert any(nxt.started_at > prev.advanced_at for prev, nxt in zip(views, views[1:]))


def _scan_pool(sim, last_done):
    """The reference idle pool: an id-sorted scan of every kept client, where
    a client is idle once its last dispatch (last_done: id -> completion
    time) completes at or before now."""
    ids = sim.dataset.shards.ids.tolist()
    return [cid for cid in ids if last_done.get(cid, 0.0) <= sim.now]


def _scan_cohort(pool, k, gen):
    """The reference cohort draw: one index draw per slot without replacement."""
    if k > len(pool):
        raise RuntimeError("short pool")
    pool = list(pool)
    return [pool.pop(int(gen.integers(len(pool)))) for _ in range(k)]


def test_sample_cohort_matches_the_id_sorted_scan():
    algo = AlgoConfig("fedavg", cohort_size=2)
    sim = Simulation(_config(algo), trial_seed=5)
    ids = sim.dataset.shards.ids.tolist()
    # two of every three clients are dispatched at 0; now is then set to
    # their median completion, so clients are idle, idle at now, or busy
    last_done = {cid: sim.dispatch(cid).completed_at for i, cid in enumerate(ids) if i % 3}
    sim.now = float(np.median(list(last_done.values())))
    states = {(t < sim.now) - (t > sim.now) for t in last_done.values()}
    assert states == {-1, 0, 1} and len(last_done) < len(ids)
    reference = copy.deepcopy(sim._cohort_gen)
    n_idle = len(_scan_pool(sim, last_done))
    for k in (1, 3, 1, n_idle, 1):
        picks = sim.sample_cohort(k)
        assert picks == _scan_cohort(_scan_pool(sim, last_done), k, reference)
        assert all(type(cid) is int for cid in picks)
    # the cohort stream is left where the scan leaves it
    assert sim._cohort_gen.integers(2**62) == reference.integers(2**62)
    with pytest.raises(RuntimeError, match="idle"):
        sim.sample_cohort(n_idle + 1)
    for cid in _scan_pool(sim, last_done):
        last_done[cid] = sim.dispatch(cid).completed_at
    with pytest.raises(RuntimeError, match="only 0 clients are idle"):
        sim.sample_cohort(1)


# dropped shards (ids with no client) and equal shard sizes under fixed
# latencies, so completions tie
_POOL_DATA = dataclasses.replace(SMALL_DATA, median_shard_size=2.0, n_straggler_clients=6)
_POOL_STEPS = st.lists(
    st.tuples(st.sampled_from(["dispatch", "dispatch", "advance", "sample", "idle_at"]),
              st.integers(0, 63)),
    min_size=20,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(steps=_POOL_STEPS)
def test_idle_pool_matches_the_scan_over_last_completions(steps):
    # Random dispatch, advance, sample and idle_at steps against the scan of
    # each client's last completion. An advance often lands on a pending
    # completion, so a client may complete at now; a dispatch may name a
    # busy client or a dropped id, which raises and changes nothing.
    algo = AlgoConfig("fedavg", cohort_size=2)
    config = _config(algo, dataset=_POOL_DATA, scenario=DET_PE)
    sim = Simulation(config, trial_seed=3)
    kept = sim.dataset.shards.ids.tolist()
    assert sim.dataset.dropped_clients
    named = range(_POOL_DATA.m_clients)
    reference = copy.deepcopy(sim._cohort_gen)
    last_done: dict[int, float] = {}
    for op, x in steps:
        pool = _scan_pool(sim, last_done)
        if op == "dispatch":
            cid = named[x % len(named)]
            if cid in pool:
                last_done[cid] = sim.dispatch(cid).completed_at
            else:
                with pytest.raises(RuntimeError, match=f"client {cid} dispatched while busy"):
                    sim.dispatch(cid)
        elif op == "advance":
            pending = sorted({t for t in last_done.values() if t >= sim.now})
            sim.now = pending[x % len(pending)] if pending and x % 4 else sim.now + x % 7 / 3
        elif op == "sample":
            k = 1 + x % (len(pool) + 1)
            if k > len(pool):
                with pytest.raises(RuntimeError, match=f"only {len(pool)} clients are idle"):
                    sim.sample_cohort(k)
            else:
                assert sim.sample_cohort(k) == _scan_cohort(pool, k, reference)
        else:
            k = 1 + x % len(kept)
            done = sorted(last_done.get(cid, 0.0) for cid in kept)
            assert sim.idle_at(k) == max(sim.now, done[k - 1])
    assert sim._cohort_gen.integers(2**62) == reference.integers(2**62)


def test_client_streams_and_idle_pool_skip_nothing_but_dropped_shards():
    # Every client's latency and shuffle streams start where rng.stream
    # starts them; an id whose shard was dropped is never in the idle pool.
    dataset = dataclasses.replace(SMALL_DATA, median_shard_size=2.0, n_straggler_clients=6)
    algo = AlgoConfig("fedbuff", buffer_size=3, max_concurrency=5, eta_l=0.05, batch_size=4)
    config = _config(algo, dataset=dataset, budget=60)
    sim = Simulation(config, trial_seed=11, trace=True)
    dropped = set(sim.dataset.dropped_clients)
    shard_ids = sim.dataset.shards.ids.tolist()
    assert dropped and len(shard_ids) + len(dropped) == dataset.m_clients
    for k, client_id in enumerate(shard_ids):
        for purpose, gen in zip((rng.LATENCY, rng.SHUFFLE), sim._streams(k)):
            gen = copy.deepcopy(gen)
            reference = rng.stream(11, purpose, client_id)
            assert repr(gen.bit_generator.state) == repr(reference.bit_generator.state)
            np.testing.assert_array_equal(gen.standard_normal(3), reference.standard_normal(3))
    assert sorted(sim.sample_cohort(len(shard_ids))) == shard_ids
    with pytest.raises(RuntimeError, match=f"only {len(shard_ids)} clients are idle"):
        sim.sample_cohort(len(shard_ids) + 1)
    sim.run()
    dispatched = {u.client_id for e in sim.events if e.kind == "dispatches" for u in e.updates}
    assert dispatched and not dispatched & dropped


def test_a_run_on_recycled_generators_equals_one_on_new_generators(monkeypatch):
    # A longer run of another seed hands back a generator for every client
    # the next run dispatches, so that run builds none; it must give what a
    # run on new generators gives.
    algo = AlgoConfig("fedbuff", buffer_size=3, max_concurrency=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=60, eval_every=4)
    Simulation(dataclasses.replace(config, budget=300), trial_seed=4).run()
    spares = {id(gen) for gen in rng._spares}
    recycled = Simulation(config, trial_seed=5).run()
    assert {id(gen) for gen in rng._spares} == spares
    monkeypatch.setattr(rng, "_spares", [])
    fresh = Simulation(config, trial_seed=5).run()
    assert recycled.counters == fresh.counters
    assert recycled.total_time_s == fresh.total_time_s
    assert [r.to_dict() for r in recycled.records] == [r.to_dict() for r in fresh.records]
    np.testing.assert_array_equal(recycled.output_w, fresh.output_w)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("diverging", [False, True], ids=["finished", "diverged"])
def test_a_run_hands_back_every_client_generator(diverging):
    algo = AlgoConfig("fedavg", cohort_size=4, **_SMALL_STEP)
    if diverging:
        algo = dataclasses.replace(algo, eta_l=1e307, eta_g=10.0)
    sim = Simulation(_config(algo, budget=40, eval_every=1), trial_seed=0)
    made = sim._streams(0)
    if diverging:
        assert _diverges(sim)
    else:
        sim.run()
    assert not sim._client_streams
    assert all(any(gen is spare for spare in rng._spares) for gen in made)


def test_run_is_deterministic_in_the_trial_seed():
    algo = AlgoConfig("fedavg", cohort_size=5, dispatch_size=6, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=30, eval_every=2)
    _, a = _run(config, seed=3)
    _, b = _run(config, seed=3)
    _, c = _run(config, seed=4)
    assert a.total_time_s == b.total_time_s
    np.testing.assert_array_equal(a.output_w, b.output_w)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]
    assert not np.array_equal(a.output_w, c.output_w)


def test_trials_share_the_dataset_but_not_trajectories():
    algo = AlgoConfig("fedavg", cohort_size=5, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=20)
    sim_a = Simulation(config, trial_seed=1)
    sim_b = Simulation(config, trial_seed=2)
    assert sim_a.dataset.shards is sim_b.dataset.shards
    np.testing.assert_array_equal(sim_a.dataset.features, sim_b.dataset.features)
    a = sim_a.run()
    b = sim_b.run()
    assert not np.array_equal(a.output_w, b.output_w)


def test_eval_cadence_and_final_record():
    algo = AlgoConfig("fedavg", cohort_size=2, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=12, eval_every=3)
    sim, result = _run(config)
    assert [r.server_step for r in result.records] == [3, 6]
    assert result.final_record.virtual_time_s == result.total_time_s
    assert result.final_record.aggregated_updates == 12
    times = [r.virtual_time_s for r in result.records]
    assert times == sorted(times)


def test_final_record_evaluates_the_output_model():
    # tau_max = 0 finalizes each auxiliary round at its server step, after
    # that step's evaluation, so the final evaluation at the same instant
    # must describe the stepped auxiliary model
    config = _acceptance("feast")
    config = dataclasses.replace(
        config, budget=300, eval_every=1, algo=dataclasses.replace(config.algo, tau_max=0.0)
    )
    for seed in (0, 1):
        sim = Simulation(config, seed)
        result = sim.run()
        assert result.which_model == result.final_record.which_model == "aux"
        accuracies = metrics.evaluate_accuracy(
            result.output_w, sim.layout, sim.dataset, config.eval_cap
        )
        final = result.final_record
        assert (final.total_acc, final.straggler_acc) == accuracies
        assert len(result.records) == result.counters["evals"] == result.server_steps


def test_every_step_eval_has_no_duplicate_final():
    algo = AlgoConfig("fedavg", cohort_size=2, eta_l=0.05, batch_size=4)
    config = _config(algo, budget=12, eval_every=1)
    sim, result = _run(config)
    assert [r.server_step for r in result.records] == [1, 2, 3, 4, 5, 6]
    stamps = {(r.server_step, r.virtual_time_s, r.which_model) for r in result.records}
    assert len(stamps) == len(result.records)


_SMALL_STEP = dict(eta_l=0.05, batch_size=4)


def test_evaluation_thread_records_equal_synchronous_evaluation():
    # Mid-run records are scored on the evaluation thread; each must equal
    # an inline evaluation of the served (global) model after its step, also
    # when the interpreter lock changes hands far more often than usual.
    config = _acceptance("fedavg_full")
    config = dataclasses.replace(
        config, budget=300, eval_every=1, model=ModelConfig(hidden=16)
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sim, result = _run(config)
    finally:
        sys.setswitchinterval(interval)
    aggregates = [e for e in sim.events if e.kind == "aggregated_updates"]
    assert result.which_model == "global"
    assert [r.server_step for r in result.records] == list(range(1, len(aggregates) + 1))
    for record, event in zip(result.records, aggregates):
        accuracies = metrics.evaluate_accuracy(event.w, sim.layout, sim.dataset, config.eval_cap)
        assert (record.total_acc, record.straggler_acc) == accuracies
        assert record.virtual_time_s == event.at


def _shared_eval_config(name):
    """fare_dust at hidden 64, and feast with tau_max 0, whose auxiliary step
    at the budget's instant makes the final record replace that step's tick;
    both evaluate at every server step."""
    config = _acceptance(name)
    if name == "feast":
        return dataclasses.replace(
            config, budget=300, eval_every=1, algo=dataclasses.replace(config.algo, tau_max=0.0)
        )
    return dataclasses.replace(config, budget=300, eval_every=1, model=ModelConfig(hidden=64))


def _spy_scorings(monkeypatch):
    """Record (on the main thread, scored vector) for each metrics._accuracy
    call, and the ticks the engine takes; the list keeps each vector alive."""
    scorings, ticks = [], []
    accuracy, eval_record = metrics._accuracy, Simulation._eval_record

    def spy_accuracy(w, *args):
        scorings.append((threading.current_thread() is threading.main_thread(), w))
        return accuracy(w, *args)

    def spy_eval_record(self, at_time):
        ticks.append(at_time)
        return eval_record(self, at_time)

    monkeypatch.setattr(metrics, "_accuracy", spy_accuracy)
    monkeypatch.setattr(Simulation, "_eval_record", spy_eval_record)
    return scorings, ticks


@pytest.mark.parametrize("name", ["fare_dust", "feast"])
def test_records_do_not_depend_on_the_scoring_thread(monkeypatch, name):
    # The worker scores each tick with metrics._accuracy in its own buffers,
    # and the main thread the final record in buffers of its own, so the
    # records are bitwise equal however the two overlap: by default, and
    # with each submit waiting until the worker has scored its tick, so no
    # tick is ever unfinished or cancelled, and the worker also scores the
    # tick the final record replaces.
    config = _shared_eval_config(name)
    default = Simulation(config, 0).run().records
    scorings, _ = _spy_scorings(monkeypatch)

    class ScoredOnSubmit(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            future.exception()  # waits for the worker to finish the tick
            return future

    with monkeypatch.context() as patch:
        patch.setattr(engine, "ThreadPoolExecutor", ScoredOnSubmit)
        worker_only = Simulation(config, 0).run().records
    assert [on_main for on_main, _ in scorings].count(True) == 1  # the final record
    assert len(default) == config.budget // config.algo.cohort_size
    assert worker_only == default


@pytest.mark.parametrize("name", ["fare_dust", "feast"])
def test_every_record_is_scored_once(monkeypatch, name):
    evaluations = []
    evaluate = metrics.evaluate_accuracy
    monkeypatch.setattr(
        metrics,
        "evaluate_accuracy",
        lambda *args: evaluations.append(threading.current_thread()) or evaluate(*args),
    )
    scorings, ticks = _spy_scorings(monkeypatch)
    config = _shared_eval_config(name)
    # frequent lock hand-offs, so the worker may start a tick while the main
    # thread cancels it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = Simulation(config, 0).run().records
    finally:
        sys.setswitchinterval(interval)
    assert evaluations == [threading.main_thread()]
    # the final record replaces the tick at its instant, if there is one
    replaced = len(ticks) + 1 - len(records)
    assert replaced == (name == "feast")
    # no served vector is scored twice; only the replaced tick may go unscored
    assert len({id(w) for _, w in scorings}) == len(scorings)
    assert len(records) <= len(scorings) <= len(records) + replaced


def test_the_main_thread_scores_no_tick_however_far_the_worker_falls_behind(monkeypatch):
    # Every mid-run tick waits for the worker, however many are queued: the
    # main thread calls metrics._accuracy only inside its one
    # evaluate_accuracy call, the final record's, and the records are those
    # of a run whose worker keeps up.
    config = _shared_eval_config("fare_dust")
    expected = Simulation(config, 0).run().records
    accuracy, evaluate = metrics._accuracy, metrics.evaluate_accuracy
    main_scorings, evaluations, in_evaluate = [], [], []

    def slow_accuracy(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        elif not in_evaluate:
            main_scorings.append(args[0])
        return accuracy(*args)

    def spy_evaluate(*args):
        evaluations.append(threading.current_thread())
        in_evaluate.append(True)
        try:
            return evaluate(*args)
        finally:
            in_evaluate.pop()

    monkeypatch.setattr(metrics, "_accuracy", slow_accuracy)
    monkeypatch.setattr(metrics, "evaluate_accuracy", spy_evaluate)
    records = Simulation(config, 0).run().records
    assert len(main_scorings) == 0 and evaluations == [threading.main_thread()]
    assert records == expected


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_no_evaluation_thread_outlives_its_run():
    algo = AlgoConfig("fedavg", cohort_size=4, **_SMALL_STEP)
    before = threading.active_count()
    sim = Simulation(_config(algo, budget=40, eval_every=1), trial_seed=0)
    sim.run()
    assert sim._evaluator is not None and threading.active_count() == before
    # A step near the float maximum leaves the global model finite after the
    # first server step (|w| up to about 1.01e308), after which the evaluation
    # thread has started; its evaluation overflows, and round 1's local SGD
    # leaves non-finite weights, which raises.
    diverging = dataclasses.replace(algo, eta_l=1e307, eta_g=10.0)
    sim = Simulation(_config(diverging, budget=40, eval_every=1), trial_seed=0)
    with pytest.raises(FloatingPointError, match="diverged in round 1"):
        sim.run()
    assert sim._evaluator is not None and threading.active_count() == before


def test_a_failing_run_scores_no_queued_tick(monkeypatch):
    # The worker holds the first tick until the fifth server step raises; the
    # ticks queued behind it are cancelled, not scored, before the error leaves.
    started, raised, worker_scorings = threading.Event(), threading.Event(), []
    accuracy, apply = metrics._accuracy, Simulation.apply_server_update

    def blocking_accuracy(*args):
        if threading.current_thread() is not threading.main_thread():
            worker_scorings.append(args[0])
            started.set()
            raised.wait(timeout=10)
            time.sleep(0.05)  # the main thread shuts the worker down meanwhile
        return accuracy(*args)

    def failing_step(sim, updates, late=()):
        if sim.state.t == 4:
            assert started.wait(timeout=10)
            raised.set()
            raise RuntimeError("server step failed")
        return apply(sim, updates, late)

    monkeypatch.setattr(metrics, "_accuracy", blocking_accuracy)
    monkeypatch.setattr(Simulation, "apply_server_update", failing_step)
    algo = AlgoConfig("fedavg", cohort_size=4, **_SMALL_STEP)
    sim = Simulation(_config(algo, budget=40, eval_every=1), trial_seed=0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="server step failed"):
        sim.run()
    assert len(sim._evals) == 4 and len(worker_scorings) == 1
    assert [record[4].cancelled() for record in sim._evals] == [False, True, True, True]
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "algo, served",
    [
        (AlgoConfig("fedavg", cohort_size=4, dispatch_size=5, **_SMALL_STEP), "global"),
        (AlgoConfig("fedadam", cohort_size=4, eta_g=0.05, **_SMALL_STEP), "global"),
        (AlgoConfig("fedbuff", buffer_size=3, max_concurrency=6, **_SMALL_STEP), "global"),
        (
            AlgoConfig("fedbuff", buffer_size=3, max_concurrency=6, ema_enabled=True, **_SMALL_STEP),
            "ema",
        ),
        (AlgoConfig("fare_dust", cohort_size=4, dispatch_size=5, rho=0.1, **_SMALL_STEP), "ema"),
        (AlgoConfig("feast", cohort_size=4, dispatch_size=5, tau_max=50.0, **_SMALL_STEP), "aux"),
    ],
    ids=["fedavg", "fedadam", "fedbuff", "fedbuff_ema", "fare_dust", "feast"],
)
def test_trace_accounts_for_every_dispatch_step_and_aux_round(algo, served):
    config = _config(algo, budget=40)
    sim, result = _run(config)
    traced = dict.fromkeys(_COUNTER_KEYS, 0)
    for e in sim.events:
        traced[e.kind] += len(e.updates) or 1
    assert traced == result.counters
    times = [e.at for e in sim.events]
    assert times == sorted(times)
    assert result.which_model == served
    untraced, _ = _run(config, trace=False)
    assert untraced.events == []


_OVERSEL = dict(cohort_size=4, dispatch_size=5, **_SMALL_STEP)
# the counters that settle a dispatched update, each update under one of them
_SETTLING_KINDS = (
    "aggregated_updates", "discarded_updates", "late_folded", "late_discarded",
    "dropped_after_deadline",
)


@pytest.mark.parametrize(
    "algo",
    [
        AlgoConfig("fedavg", **_OVERSEL),
        AlgoConfig("fedadam", eta_g=0.05, **_OVERSEL),
        AlgoConfig("fedbuff", buffer_size=3, max_concurrency=6, **_SMALL_STEP),
        AlgoConfig("fare_dust", rho=0.1, history_k=2, **_OVERSEL),
        AlgoConfig("feast", tau_max=15.0, **_OVERSEL),
        AlgoConfig("fedavg", time_limit_percentile=75.0, **_OVERSEL),
        # a buffer as large as the concurrency: a client completes, is drawn
        # again and completes again before the flush
        AlgoConfig("fedbuff", buffer_size=6, max_concurrency=6, **_SMALL_STEP),
    ],
    ids=["fedavg", "fedadam", "fedbuff", "fare_dust", "feast", "time_limit", "fedbuff_redrawn"],
)
def test_every_dispatch_is_aggregated_dropped_or_still_in_flight(algo):
    # Each dispatched update is settled exactly once, under one kind, or is
    # still queued in flight when the run ends.
    sim, _ = _run(_config(algo, budget=200))
    in_flight = [
        args[0] for _, handler, args in iter(sim.queue.pop, None)
        if handler == sim.driver.on_client_completed
    ]
    dispatched = [u for e in sim.events if e.kind == "dispatches" for u in e.updates]
    settled = [u for e in sim.events if e.kind in _SETTLING_KINDS for u in e.updates]
    assert in_flight
    assert sorted(map(id, settled + in_flight)) == sorted(map(id, dispatched))


@pytest.mark.parametrize(
    "algo, eval_every",
    [
        (AlgoConfig("fedavg", cohort_size=4, **_SMALL_STEP), 10),
        (AlgoConfig("fedavg", **_OVERSEL), 10),
        (AlgoConfig("fedadam", eta_g=0.05, **_OVERSEL), 10),
        (AlgoConfig("fare_dust", rho=0.1, history_k=2, **_OVERSEL), 10),
        (AlgoConfig("feast", tau_max=15.0, **_OVERSEL), 10),
        (AlgoConfig("fedbuff", buffer_size=3, max_concurrency=6, **_SMALL_STEP), 10),
        (AlgoConfig("fare_dust", rho=0.1, **_OVERSEL), 1),
    ],
    ids=["fedavg", "fedavg_oversel", "fedadam", "fare_dust", "feast", "fedbuff", "eval_every_1"],
)
def test_a_finished_trial_is_freed_without_the_cycle_collector(algo, eval_every):
    # Reference counting alone must free a dropped trial, with its queue of
    # in-flight updates and any evaluation left queued after the last step.
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(_config(algo, budget=40, eval_every=eval_every), trial_seed=0)
        sim.run()
        assert sim.driver.is_finished(sim) and sim.queue.pop() is not None
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def _diverges(sim: Simulation) -> bool:
    """Run sim until it raises FloatingPointError. The error's traceback,
    which holds the run, is gone once this returns."""
    try:
        sim.run()
    except FloatingPointError:
        return True
    return False


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("diverging", [False, True], ids=["never_ran", "diverged"])
def test_an_unrun_or_diverged_trial_is_freed_without_the_cycle_collector(diverging):
    # The cases beside a finished trial: a Simulation that never ran, and one
    # whose run() raised (the diverging step of
    # test_no_evaluation_thread_outlives_its_run, after the evaluation thread
    # started).
    algo = AlgoConfig("fedavg", cohort_size=4, **_SMALL_STEP)
    if diverging:
        algo = dataclasses.replace(algo, eta_l=1e307, eta_g=10.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulation(_config(algo, budget=40, eval_every=1), trial_seed=0)
        if diverging:
            assert _diverges(sim) and sim._evaluator is not None
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


# ---- one dataset per process ---- #


def test_trials_with_one_dataset_section_and_data_seed_share_one_dataset():
    fedavg = _config(AlgoConfig("fedavg", cohort_size=4, eta_l=0.05, batch_size=4))
    fedbuff = _config(
        AlgoConfig("fedbuff", buffer_size=3, max_concurrency=6, eta_l=0.05, batch_size=4)
    )
    shared = Simulation(fedavg, trial_seed=0).dataset
    assert Simulation(fedbuff, trial_seed=7).dataset is shared
    other = Simulation(dataclasses.replace(fedavg, data_seed=5), trial_seed=0).dataset
    assert other is not shared
    assert other.shards.sizes[0] != shared.shards.sizes[0]


def test_a_shared_dataset_cannot_be_written():
    dataset = _config(AlgoConfig("fedavg", cohort_size=4)).build_dataset()
    arrays = [
        dataset.features,
        dataset.labels,
        dataset.eval_total.features,
        dataset.eval_total.labels,
        dataset.eval_straggler_rows,
        *vars(dataset.shards).values(),
    ]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_process_keeps_at_most_datasets_kept_datasets():
    algo = AlgoConfig("fedavg", cohort_size=4)
    configs = [_config(algo, seed=100 + k) for k in range(DATASETS_KEPT + 1)]
    first = configs[0].build_dataset()
    for config in configs[1:]:
        config.build_dataset()
    rebuilt = configs[0].build_dataset()
    assert rebuilt is not first and rebuilt.shards.sizes[0] == first.shards.sizes[0]
    assert configs[-1].build_dataset() is configs[-1].build_dataset()


# ---- lockstep equivalence of buffered and synchronous aggregation ---- #


@pytest.mark.parametrize("k", [1, 4])
def test_buffered_lockstep_matches_synchronous_bitwise(k):
    # Identical latencies and shard sizes make every cohort finish
    # together, so buffered aggregation with concurrency == buffer == k
    # flushes exactly the dispatched cohort: the two drivers must consume
    # identical rng streams and produce identical trajectories. Flagging
    # every client as a straggler keeps the partition from trimming any
    # shard, which is what makes all durations equal.
    dataset = DatasetConfig(
        n_classes=4,
        d_in=4,
        m_clients=12,
        median_shard_size=8.0,
        size_sigma=0.0,
        straggler_classes=(0, 1),
        n_straggler_clients=12,
        eval_size=100,
    )
    sync_algo = AlgoConfig("fedavg", cohort_size=k, eta_l=0.05, batch_size=4)
    buff_algo = AlgoConfig(
        "fedbuff", buffer_size=k, max_concurrency=k, eta_l=0.05, batch_size=4, cohort_size=k
    )
    budget = 6 * k
    sync_sim, sync_res = _run(_config(sync_algo, dataset=dataset, scenario=DET_PE, budget=budget))
    buff_sim, buff_res = _run(_config(buff_algo, dataset=dataset, scenario=DET_PE, budget=budget))

    flushes = [e for e in buff_sim.events if e.kind == "aggregated_updates"]
    sync_w = [e.w_after for e in round_views(sync_sim.events)]
    buff_w = [e.w for e in flushes]
    assert len(sync_w) == len(buff_w) == 6
    for a, b in zip(sync_w, buff_w):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(sync_res.output_w, buff_res.output_w)
    assert sync_res.total_time_s == buff_res.total_time_s
    sync_members = [sorted(e.fast_ids) for e in round_views(sync_sim.events)]
    buff_members = [sorted(u.client_id for u in e.updates) for e in flushes]
    assert sync_members == buff_members
    # each flush holds one whole wave: all members share a model version
    for e in flushes:
        assert len({u.round_id for u in e.updates}) == 1


# ---- version training against per-client training ---- #

def _redrawn(group) -> bool:
    """Whether a stacked call trains two updates of one client with
    different step counts."""
    steps = {}
    for u in group:
        steps.setdefault(u.client_id, set()).add(u.steps_done)
    return any(len(s) > 1 for s in steps.values())


@pytest.mark.parametrize(
    ("config", "redrawn"),
    [
        (_acceptance("fedavg_full"), False),
        (_acceptance("fedavg_oversel"), False),
        (_acceptance("fare_dust"), False),
        (_acceptance("feast"), False),
        (_acceptance("fedavg_full", AlgoConfig("fedbuff", **_CROWD)), False),
        (_acceptance(
            "fedavg_full",
            AlgoConfig("fedbuff", ema_enabled=True, rho=0.2, nu=0.05, **_CROWD),
        ), False),
        # a buffer as large as the concurrency: a client completes, is drawn
        # again and completes again before the flush, so it trains twice in
        # one version group, with different step counts
        (_acceptance(
            "fedavg_full",
            AlgoConfig("fedbuff", time_limit_percentile=75.0, **{**_CROWD, "buffer_size": 100}),
        ), True),
        (_acceptance(
            "fedavg_full", AlgoConfig("fedbuff", time_limit_percentile=75.0, **_CROWD)
        ), False),
    ],
    ids=[
        "fedavg_full", "fedavg_oversel", "fare_dust", "feast",
        "fedbuff", "fedbuff_ema_rho_nu", "fedbuff_redrawn", "fedbuff_time_limit",
    ],
)
def test_cohort_training_matches_per_client_dispatch(monkeypatch, config, redrawn):
    dataset = build_dataset(config.dataset, config.effective_data_seed())
    train_group = Simulation._train_group
    sizes, redraws = [], []

    def record_sizes(sim, group):
        sizes.append(len(group))
        redraws.append(_redrawn(group))
        train_group(sim, group)

    monkeypatch.setattr(Simulation, "_train_group", record_sizes)
    stacked = Simulation(config, 0, dataset).run()
    assert max(sizes) > 1
    if redrawn:
        assert any(redraws)
    # the engine's group trainer, one member at a time
    monkeypatch.setattr(
        Simulation, "_train_group", lambda sim, group: [train_group(sim, [m]) for m in group]
    )
    each = Simulation(config, 0, dataset).run()
    assert stacked.counters == each.counters
    assert stacked.total_time_s == each.total_time_s
    assert stacked.server_steps == each.server_steps
    np.testing.assert_allclose(stacked.output_w, each.output_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        _acceptance("fedavg_full", AlgoConfig("fedbuff", **_CROWD)),
        _acceptance("fedavg_oversel"),
        _acceptance("fare_dust"),
    ],
    ids=["fedbuff", "fedavg_oversel", "fare_dust"],
)
def test_training_does_only_the_work_a_step_or_a_fold_reads(monkeypatch, config):
    # FedBuff's dispatches in flight at the budget and over-selection's
    # discarded late updates are never read, so they never train; fare_dust
    # trains the late updates it may fold at their round's step.
    read, trained = [], []
    apply, local_sgd = Simulation.apply_server_update, model.local_sgd

    def reading(sim, updates, late=()):
        read.extend(u.examples_processed for u in (*updates, *late))
        return apply(sim, updates, late)

    def training(*args, **kwargs):
        result = local_sgd(*args, **kwargs)
        trained.append(result[2])
        return result

    monkeypatch.setattr(Simulation, "apply_server_update", reading)
    monkeypatch.setattr(model, "local_sgd", training)
    sim, result = _run(config, trace=False)
    unread = sim.counters["dispatches"] - len(read)
    assert unread > 0 if config.algo.name != "fare_dust" else unread == 0
    assert sum(trained) == sum(read)


def _recording_dispatches(monkeypatch) -> list:
    """Every update Simulation.dispatch returns from here on, in dispatch order."""
    dispatched, dispatch = [], Simulation.dispatch

    def recording(sim, client_id, **kwargs):
        dispatched.append(dispatch(sim, client_id, **kwargs))
        return dispatched[-1]

    monkeypatch.setattr(Simulation, "dispatch", recording)
    return dispatched


@pytest.mark.parametrize("time_limit", [False, True], ids=["epochs", "time_limit"])
def test_a_discarded_update_draws_what_training_it_would(monkeypatch, time_limit):
    # A dispatch draws its batch plan at once, so each client's shuffle
    # stream draws in dispatch order whatever trains: training every update
    # nobody reads too, at the first server step after its dispatch, must
    # not move the outputs. A time limit cuts each plan to the steps that
    # fit the client's time.
    algo = AlgoConfig("fedavg", cohort_size=5, dispatch_size=10, eta_l=0.05, batch_size=4,
                      time_limit_percentile=75.0 if time_limit else None)
    scenario = LatencyScenario("pdpe", _profile(1.0, -3.0, 0.5, 0.8), _profile(2.5, -2.0, 1.0, 0.8))
    config = _config(algo, scenario=scenario, budget=400)
    dispatched = _recording_dispatches(monkeypatch)
    sim = Simulation(config, 0)
    skipping = sim.run()
    unread = [u for u in dispatched if u.delta is None]
    assert skipping.counters["discarded_updates"] > 0 and unread
    sizes = dict(zip(sim.dataset.shards.ids.tolist(), sim.dataset.shards.sizes.tolist()))
    assert any(u.steps_done % -(-sizes[u.client_id] // 4) for u in unread) == time_limit

    apply = Simulation.apply_server_update

    def training_all(sim, updates, late=()):
        return apply(sim, updates, [*late, *(u for u in dispatched if u.work is not None)])

    dispatched.clear()
    monkeypatch.setattr(Simulation, "apply_server_update", training_all)
    training = Simulation(config, 0).run()
    assert sum(u.delta is not None for u in dispatched) > len(dispatched) - len(unread)
    np.testing.assert_array_equal(skipping.output_w, training.output_w)
    assert skipping.records == training.records


def _unmoved(w0, *args, starts, **kwargs):
    """model.local_sgd as if no client moved off its start weights; the
    totals go unread."""
    return np.broadcast_to(w0, (len(starts), w0.shape[-1])).copy(), 0, 0


def _schedule(result, sim):
    """Everything about a run that must not depend on the trained weights."""
    events = [
        (e.kind, e.at, [(u.round_id, u.client_id, u.completed_at) for u in e.updates])
        for e in sim.events
    ]
    return events, result.counters, result.total_time_s, result.server_steps


@pytest.mark.parametrize(
    "config",
    [
        *(_acceptance(name) for name in ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")),
        _acceptance(
            "fedavg_oversel",
            dataclasses.replace(_acceptance("fedavg_oversel").algo, time_limit_percentile=75.0),
        ),
    ],
    ids=["fedavg_full", "fedavg_oversel", "fare_dust", "feast", "fedavg_oversel_time_limit"],
)
def test_the_schedule_never_reads_the_weights(monkeypatch, config):
    # Completion times and counts follow from the latency draws alone, so a
    # run whose clients never move off their start weights keeps every
    # event, time and count of the trained run.
    config = dataclasses.replace(config, budget=300)
    dataset = build_dataset(config.dataset, config.effective_data_seed())
    trained = Simulation(config, 0, dataset, trace=True)
    want = _schedule(trained.run(), trained)
    monkeypatch.setattr(model, "local_sgd", _unmoved)
    stubbed = Simulation(config, 0, dataset, trace=True)
    got = _schedule(stubbed.run(), stubbed)
    assert not np.array_equal(trained.state.w, stubbed.state.w)
    assert got == want


# ---- where straggler updates go, with training stubbed ---- #


def _stubbed_run(monkeypatch, name, seed):
    """A traced acceptance trial at budget 1000 whose clients never move
    off their start weights: its schedule and counters are the trained
    trial's (test_the_schedule_never_reads_the_weights)."""
    monkeypatch.setattr(model, "local_sgd", _unmoved)
    sim = Simulation(_acceptance(name), seed, trace=True)
    sim.run()
    return sim


def _tallied(sim, kind):
    """The updates the trace tallied under kind, in tally order."""
    return [u for e in sim.events if e.kind == kind for u in e.updates]


def _straggler_share(sim, kind):
    stragglers = set(sim.dataset.shards.ids[sim.dataset.shards.is_straggler].tolist())
    updates = _tallied(sim, kind)
    return sum(u.client_id in stragglers for u in updates) / len(updates)


@pytest.mark.parametrize("seed", range(5))
def test_over_selection_silences_stragglers_and_full_participation_does_not(
    monkeypatch, seed
):
    # Over-selection aggregates the B fastest of 1.2 B, so its stragglers are
    # 0.138-0.151 of its dispatches but 0.044-0.067 of its aggregated updates
    # (at most 0.44 of their dispatched share), measured at seeds 0-4. Full
    # participation aggregates every dispatch.
    oversel = _stubbed_run(monkeypatch, "fedavg_oversel", seed)
    dispatched = _straggler_share(oversel, "dispatches")
    aggregated = _straggler_share(oversel, "aggregated_updates")
    assert 0.12 <= dispatched <= 0.17
    assert aggregated <= 0.09 and aggregated <= 0.6 * dispatched
    full = _stubbed_run(monkeypatch, "fedavg_full", seed)
    assert 0.12 <= _straggler_share(full, "dispatches") <= 0.18
    assert sorted(map(id, _tallied(full, "aggregated_updates"))) == sorted(
        map(id, _tallied(full, "dispatches"))
    )


@pytest.mark.parametrize("seed", range(3))
def test_feast_and_fare_dust_fold_the_stragglers_over_selection_discards(monkeypatch, seed):
    # feast dispatches and aggregates exactly what fedavg_oversel does, and
    # folds every late update into its auxiliary model: 200, among them each
    # of the 186-187 that fedavg_oversel discards. fare_dust's teachers move
    # its schedule, but the late updates it folds are 0.56-0.69 stragglers
    # against 0.14-0.15 of its dispatches (seeds 0-2).
    def pairs(sim, kind):
        return {(u.round_id, u.client_id) for u in _tallied(sim, kind)}

    oversel = _stubbed_run(monkeypatch, "fedavg_oversel", seed)
    feast = _stubbed_run(monkeypatch, "feast", seed)
    for kind in ("dispatches", "aggregated_updates"):
        assert pairs(feast, kind) == pairs(oversel, kind)
    discarded, folded = pairs(oversel, "discarded_updates"), pairs(feast, "late_folded")
    assert len(discarded) >= 180 and discarded < folded
    assert len(folded) == 200 and not _tallied(feast, "dropped_after_deadline")
    fare_dust = _stubbed_run(monkeypatch, "fare_dust", seed)
    assert _straggler_share(fare_dust, "late_folded") >= 0.45
    assert _straggler_share(fare_dust, "dispatches") <= 0.17


@pytest.mark.parametrize("time_limit", [False, True], ids=["epochs", "time_limit"])
def test_dispatch_charges_the_work_training_does(monkeypatch, time_limit):
    # Dispatch computes steps and examples by arithmetic, before training.
    algo = AlgoConfig("fedbuff", buffer_size=2, max_concurrency=4, eta_l=0.05, batch_size=3,
                      epochs=2, time_limit_percentile=75.0 if time_limit else None)
    scenario = LatencyScenario("pdpe", _profile(1.0, -3.0, 0.5, 0.8), _profile(2.5, -2.0, 1.0, 0.8))
    sim = Simulation(_config(algo, scenario=scenario), trial_seed=0)
    trained = []
    local_sgd = model.local_sgd

    def spy(*args, **kwargs):
        # Each member's rows per step, laid out from the plans it was given.
        plan_args = [kwargs[k] for k in ("starts", "sizes", "batch_size", "steps", "plans")]
        order, _, lengths = model._cohort_plan(*plan_args)
        inverse = np.argsort(order)
        result = local_sgd(*args, **kwargs)
        trained.append((
            (lengths > 0).sum(axis=0)[inverse].tolist(), lengths.sum(axis=0)[inverse].tolist(),
            result[1:],
        ))
        return result

    monkeypatch.setattr(model, "local_sgd", spy)
    # a buffer of 40 completions before any flush: each completion's client
    # is idle at once, and its refill may draw it again
    in_flight = [sim.dispatch(cid) for cid in sim.sample_cohort(algo.max_concurrency)]
    updates = []
    while len(updates) < 40:
        done = min(in_flight, key=lambda u: u.completed_at)
        in_flight.remove(done)
        updates.append(done)
        sim.now = done.completed_at
        in_flight.append(sim.dispatch(sim.sample_cohort(1)[0]))
    # some client completed, was drawn again and completed again: the one
    # call that trains updates[:-2] trains it twice
    again = [(a, b) for a, b in itertools.combinations(updates[:-2], 2)
             if a.client_id == b.client_id]
    assert again and all(b.dispatched_at >= a.completed_at for a, b in again)
    # a step trains exactly the untrained updates it reads
    sim.apply_server_update(updates[-2:])
    assert [u.delta is None for u in updates] == [True] * 38 + [False] * 2
    sim.apply_server_update(updates)
    want = []
    for group in (updates[-2:], updates[:-2]):
        steps, examples = [u.steps_done for u in group], [u.examples_processed for u in group]
        want.append((steps, examples, (sum(steps), sum(examples))))
    assert trained == want
    if time_limit:  # the step budgets differ and some stop inside an epoch
        sizes = dict(zip(sim.dataset.shards.ids.tolist(), sim.dataset.shards.sizes.tolist()))
        per_epoch = [-(-sizes[u.client_id] // 3) for u in updates]
        assert len({u.steps_done for u in updates}) > 1
        assert any(u.steps_done % p for u, p in zip(updates, per_epoch))
        assert any(a.steps_done != b.steps_done for a, b in again)


def test_each_update_of_a_round_owns_its_delta():
    # A delta viewing a stacked call's weights would keep the whole block
    # alive for as long as one late update is in flight.
    for algo in (
        AlgoConfig("fedavg", cohort_size=5, dispatch_size=6, eta_l=0.05, batch_size=4),
        AlgoConfig("fedbuff", buffer_size=2, max_concurrency=6, eta_l=0.05, batch_size=4,
                   rho=0.2, nu=0.1),
    ):
        sim = Simulation(_config(algo), trial_seed=0)
        w = sim.state.w
        teacher = w if algo.rho > 0 else None
        updates = [sim.dispatch(cid, teacher_w=teacher) for cid in sim.sample_cohort(6)]
        assert all(u.delta is None for u in updates)
        # a server step trains the two it aggregates and the two named late
        sim.apply_server_update(updates[:2], late=updates[2:4])
        assert [u.delta is None for u in updates] == [False] * 4 + [True] * 2
        # a later version's dispatch trains with version 0's rest in one call
        # that stacks two start weights
        teacher = sim.state.w if algo.rho > 0 else None
        updates += [sim.dispatch(cid, teacher_w=teacher) for cid in sim.sample_cohort(1)]
        sim.apply_server_update(updates[4:])
        for u in updates:
            assert u.delta.base is None and u.delta.flags.owndata
            assert u.delta.shape == w.shape
            assert not np.shares_memory(u.delta, w)
        for a, b in itertools.combinations(updates, 2):
            assert not np.shares_memory(a.delta, b.delta)


def test_a_version_trains_with_one_teacher_use():
    # One stacked call distills for every member or for none.
    algo = AlgoConfig("fedbuff", buffer_size=2, max_concurrency=6, eta_l=0.05, batch_size=4,
                      rho=0.2)
    sim = Simulation(_config(algo), trial_seed=0)
    first, second, third = sim.sample_cohort(3)
    update = sim.dispatch(first, teacher_w=sim.state.w)
    plain = sim.dispatch(second)
    sim.apply_server_update([update])  # the dispatch without a teacher stays untrained
    assert plain.delta is None
    distilling = sim.dispatch(third, teacher_w=sim.state.w)
    # the call's members in read order: the first sets its teacher use
    with pytest.raises(RuntimeError, match=f"client {second} of round 0 does not share teacher"):
        sim.apply_server_update([distilling, plain])


def test_a_dispatch_is_bound_to_the_open_model_version():
    algo = AlgoConfig("fedbuff", buffer_size=2, max_concurrency=6, eta_l=0.05, batch_size=4)
    sim = Simulation(_config(algo), trial_seed=0)
    first = [sim.dispatch(cid) for cid in sim.sample_cohort(2)]
    sim.apply_server_update(first)
    (second,) = [sim.dispatch(cid) for cid in sim.sample_cohort(1)]
    assert [u.round_id for u in first] == [0, 0] and second.round_id == sim.state.t == 1


def test_a_run_may_end_with_dispatches_nobody_read(monkeypatch):
    # FedBuff's dispatches still in flight at the budget, and a dispatch
    # made after the last server step, are never read, so they never train.
    algo = AlgoConfig("fedavg", cohort_size=3, eta_l=0.05, batch_size=4)
    apply = Simulation.apply_server_update
    after_last = []

    def dispatch_after_the_last_step(sim, updates, late=()):
        summed = apply(sim, updates, late)
        if sim.budget_reached():
            after_last.append(sim.dispatch(sim.sample_cohort(1)[0]))
        return summed

    monkeypatch.setattr(Simulation, "apply_server_update", dispatch_after_the_last_step)
    Simulation(_config(algo, budget=6), trial_seed=0).run()
    assert len(after_last) == 1 and after_last[0].delta is None
    monkeypatch.undo()

    algo = AlgoConfig("fedbuff", buffer_size=2, max_concurrency=5, eta_l=0.05, batch_size=4)
    dispatched = _recording_dispatches(monkeypatch)
    sim, result = _run(_config(algo, budget=8))
    untrained = [u for u in dispatched if u.delta is None]
    assert len(untrained) == sim.counters["dispatches"] - result.aggregated_updates > 0
    assert all(u.work is not None for u in untrained)  # each keeps its plan, never trained


@pytest.mark.parametrize(
    "algo",
    [
        AlgoConfig(
            "fedbuff", buffer_size=3, max_concurrency=8, time_limit_percentile=75.0, **_SMALL_STEP
        ),
        AlgoConfig("fedavg", cohort_size=4, dispatch_size=8, **_SMALL_STEP),
        AlgoConfig("fare_dust", cohort_size=4, dispatch_size=8, rho=0.2, **_SMALL_STEP),
    ],
    ids=["fedbuff", "fedavg_oversel", "fare_dust"],
)
def test_only_the_updates_a_step_reads_train(monkeypatch, algo):
    # Each update trains at the step that reads it: the members local_sgd
    # trains over a run are the aggregated updates plus those named late, to
    # be folded, and no discarded or still in-flight update trains.
    scenario = LatencyScenario("pdpe", _profile(1.0, -3.0, 0.5, 0.8), _profile(2.5, -2.0, 1.0, 0.8))
    dispatched = _recording_dispatches(monkeypatch)
    named_late, members = [], []
    apply, local_sgd = Simulation.apply_server_update, model.local_sgd

    def reading(sim, updates, late=()):
        named_late.extend(late)
        return apply(sim, updates, late)

    def training(*args, **kwargs):
        members.append(len(kwargs["starts"]))
        return local_sgd(*args, **kwargs)

    monkeypatch.setattr(Simulation, "apply_server_update", reading)
    monkeypatch.setattr(model, "local_sgd", training)
    _, result = _run(_config(algo, scenario=scenario, budget=300), trace=False)
    assert sum(members) == result.aggregated_updates + len(named_late)
    assert sum(members) == sum(u.delta is not None for u in dispatched)
    counters = result.counters
    if algo.name == "fare_dust":  # it names every late update; the last round's never arrive
        assert len(named_late) >= counters["late_folded"] + counters["late_discarded"] > 0
    else:
        assert not named_late and sum(members) < counters["dispatches"]


def test_buffered_budget_overshoot_is_bounded():
    algo = AlgoConfig(
        "fedbuff", buffer_size=2, max_concurrency=3, eta_l=0.05, batch_size=4, cohort_size=2
    )
    config = _config(algo, budget=7)
    sim, result = _run(config)
    assert result.aggregated_updates == 8
    assert 7 <= result.aggregated_updates < 7 + 2


# ---- time-limited local work ---- #


def test_time_limit_threshold_matches_independent_oracle():
    algo = AlgoConfig(
        "fedavg", cohort_size=4, eta_l=0.05, batch_size=4, time_limit_percentile=75.0,
    )
    config = _config(algo, budget=8)
    sim = Simulation(config, trial_seed=5)

    gen = rng.stream(config.effective_data_seed(), rng.TIME_LIMIT)
    shards = sim.dataset.shards
    z_pe = gen.standard_normal((len(shards), 50))
    z_ov = gen.standard_normal((len(shards), 50))
    pool = []
    for i, (size, is_straggler) in enumerate(zip(shards.sizes, shards.is_straggler)):
        profile = DET_PDPE.profile_for(is_straggler)
        for d in range(50):
            pe = math.exp(profile.per_example.mu + profile.per_example.sigma * z_pe[i, d])
            ov = math.exp(profile.overhead.mu + profile.overhead.sigma * z_ov[i, d])
            pool.append(ov + pe * size)
    pool.sort()
    rank = math.ceil(0.75 * len(pool))
    assert sim.tau_limit == pool[rank - 1]

    # The threshold is keyed by the data seed: trials share it.
    assert Simulation(config, trial_seed=9).tau_limit == sim.tau_limit


def test_time_limit_step_budget_formula():
    algo = AlgoConfig(
        "fedavg", cohort_size=4, eta_l=0.05, batch_size=4, time_limit_s=3.0
    )
    config = _config(algo, budget=8)
    sim = Simulation(config, trial_seed=0, trace=True)
    assert sim.tau_limit == 3.0
    cid = sim.dataset.shards.ids[0].item()
    profile = DET_PDPE.profile_for(sim.dataset.shards.is_straggler[0])
    update = sim.dispatch(cid)
    pe = math.exp(profile.per_example.mu)
    ov = math.exp(profile.overhead.mu)
    assert update.steps_done == max(1, math.floor((3.0 - ov) / (pe * 4)))
    # duration charges the examples actually processed, not the full shard
    assert update.completed_at == math.exp(profile.comm.mu) + ov + pe * update.examples_processed


def test_time_limit_charges_at_least_one_step():
    # A threshold below the per-batch cost still runs one step.
    algo = AlgoConfig(
        "fedavg", cohort_size=2, eta_l=0.05, batch_size=4, time_limit_s=0.001
    )
    config = _config(algo, budget=4)
    sim = Simulation(config, trial_seed=0)
    update = sim.dispatch(sim.dataset.shards.ids[0].item())
    assert update.steps_done == 1
    assert update.examples_processed <= 4


# ---- teacher download cost ---- #


def test_teacher_download_scales_comm_factor_only():
    scenario = LatencyScenario(
        "pdpe",
        DET_PDPE.standard_profile,
        DET_PDPE.straggler_profile,
        teacher_download_factor=2.0,
    )
    algo = AlgoConfig("fedbuff", buffer_size=2, max_concurrency=3, eta_l=0.05, batch_size=4,
                      rho=0.2)
    base = Simulation(_config(algo, budget=4), trial_seed=0)
    cid = base.dataset.shards.ids[0].item()
    profile = DET_PDPE.profile_for(base.dataset.shards.is_straggler[0])
    plain = base.dispatch(cid)
    comm = math.exp(profile.comm.mu)
    # a fresh teacher array is an extra download, the open model itself is not
    for copied, extra in ((True, comm), (False, 0.0)):
        scaled = Simulation(_config(algo, scenario=scenario, budget=4), trial_seed=0)
        teacher = scaled.state.w.copy() if copied else scaled.state.w
        update = scaled.dispatch(cid, teacher_w=teacher)
        assert update.completed_at - plain.completed_at == pytest.approx(extra, abs=1e-12)
        assert update.examples_processed == plain.examples_processed


# ---- auxiliary-track scheduling ---- #


def test_strict_sequential_blocks_a_full_deadline_per_round():
    algo = AlgoConfig(
        "feast",
        cohort_size=3,
        dispatch_size=4,
        eta_l=0.05,
        batch_size=4,
        tau_max=512.0,
        strict_sequential=True,
        feast_beta=0.9,
    )
    config = _config(algo, budget=15)
    sim, result = _run(config)
    rounds = sim.counters["rounds_started"]
    assert rounds == 5  # ceil(15 / 3)
    assert result.total_time_s == rounds * 512.0
    assert sim.counters["aux_rounds"] == rounds
    assert result.which_model == "aux"


@pytest.mark.parametrize("name", ["fedavg", "fedadam", "fare_dust"])
def test_strict_sequential_changes_nothing_outside_feast(name):
    # The flag is FeAST's; the other synchronous drivers ignore it, like
    # every other FeAST-only knob set directly on an AlgoConfig.
    base = _acceptance("fare_dust" if name == "fare_dust" else "fedavg_full")
    algo = dataclasses.replace(base.algo, name=name)
    outcomes = []
    for strict in (False, True):
        config = dataclasses.replace(
            base, budget=300, algo=dataclasses.replace(algo, strict_sequential=strict)
        )
        result = Simulation(config, 0).run()
        assert result.aggregated_updates >= 300
        outcomes.append(result)
    off, on = outcomes
    assert on.counters == off.counters
    assert on.total_time_s == off.total_time_s
    assert on.records == off.records
    np.testing.assert_array_equal(on.output_w, off.output_w)


def test_overlapped_aux_rounds_apply_in_order_despite_readiness_inversions():
    # Two extreme stragglers make some rounds wait ~3000s for their last
    # report while straggler-free successors are ready within seconds; the
    # auxiliary track must hold those early-comers and drain in order.
    dataset = DatasetConfig(
        n_classes=4,
        d_in=4,
        m_clients=10,
        median_shard_size=8.0,
        straggler_classes=(0, 1),
        n_straggler_clients=2,
        eval_size=50,
    )
    scenario = LatencyScenario(
        "pdpe", _profile(0.0, -3.0, 0.5), _profile(8.0, -2.0, 1.0)
    )
    algo = AlgoConfig(
        "feast", cohort_size=2, dispatch_size=3,
        eta_l=0.05, batch_size=4, tau_max=4000.0, feast_beta=0.9,
    )
    config = _config(algo, dataset=dataset, scenario=scenario, budget=16)
    sim, result = _run(config)
    rounds = sim.counters["rounds_started"]
    assert sim.counters["aux_rounds"] == rounds
    assert sim.driver.next_aux_round == rounds
    assert sim.counters["late_folded"] > 0
    assert sim.counters["dropped_after_deadline"] == 0

    # reconstruct per-round readiness and confirm an inversion occurred
    ready = []
    for entry in round_views(sim.events):
        all_reported = max(entry.completed_at.values())
        ready.append(min(all_reported, entry.started_at + 4000.0))
    assert any(ready[t + 1] < ready[t] for t in range(len(ready) - 1))


def test_zero_tau_max_finalizes_at_advance_and_drops_stragglers():
    algo = AlgoConfig(
        "feast", cohort_size=3, dispatch_size=4,
        eta_l=0.05, batch_size=4, tau_max=0.0, feast_beta=0.9,
    )
    config = _config(algo, budget=12)
    sim, result = _run(config)
    assert sim.counters["aux_rounds"] == sim.counters["rounds_started"]
    assert sim.counters["dropped_after_deadline"] > 0
    assert sim.counters["late_folded"] == 0
