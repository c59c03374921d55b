"""Tests for server optimizers, delta history, and driver bookkeeping."""

import collections

import numpy as np
import pytest

from stragglersim import rng
from stragglersim.algorithms import (
    AlgoConfig,
    AuxTrackDriver,
    ClientUpdate,
    DeltaHistory,
    HistoryDistillationDriver,
    PendingAuxRound,
    ServerState,
    SyncRoundDriver,
    aux_step,
    canonical_delta_sum,
    server_apply,
    teacher_from_history,
)
from stragglersim.engine import Simulation
from stragglersim.model import ModelLayout, draw_batch_plan, local_sgd, loss_and_grad


def _update(client_id, delta, round_id=0, completed=1.0):
    return ClientUpdate(
        round_id=round_id,
        client_id=client_id,
        delta=np.asarray(delta, dtype=np.float64),
        dispatched_at=0.0,
        completed_at=completed,
        examples_processed=1,
        steps_done=1,
    )


class _StubSim:
    """Minimal stand-in for engine.Simulation's driver-facing names, for driver unit tests."""

    def __init__(self, w, eta_g=1.0, teacher_seed=0, algo=None):
        algo = algo or AlgoConfig("fedavg", eta_g=eta_g)
        self.state = ServerState(w=np.asarray(w, dtype=np.float64), algo=algo)
        self.counters = collections.defaultdict(int)
        self.trace = False
        self.events = []
        self.now = 0.0
        self.last_model_event = 0.0
        self.teacher_gen = rng.stream(teacher_seed, rng.TEACHER)

    # The engine's own auxiliary step and counting, run against this stub's state.
    apply_aux_update = Simulation.apply_aux_update
    tally = Simulation.tally


def _assert_teacher_stream_unmoved(sim, seed=0):
    np.testing.assert_equal(
        sim.teacher_gen.bit_generator.state, rng.stream(seed, rng.TEACHER).bit_generator.state
    )


# ---- server optimizers ---- #


def test_sgd_server_step_is_exact():
    state = ServerState(w=np.array([1.0, -2.0]), algo=AlgoConfig("fedavg", eta_g=0.5))
    server_apply(state, np.array([4.0, 8.0]), count=4)
    np.testing.assert_array_equal(state.w, [1.0 - 0.5 * 1.0, -2.0 - 0.5 * 2.0])
    assert state.t == 1


def test_adam_matches_scalar_reference():
    gen = rng.stream(0, rng.VERIFY, 3)
    state = ServerState(
        w=gen.standard_normal(3),
        algo=AlgoConfig("fedadam", eta_g=0.01, adam_beta1=0.9, adam_beta2=0.99, adam_eps=1e-4),
    )
    w = state.w.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    for step in range(5):
        summed = gen.standard_normal(3) * (step + 1)
        count = step + 1
        server_apply(state, summed.copy(), count)
        g = summed / count
        for i in range(3):
            m[i] = 0.9 * m[i] + 0.1 * g[i]
            v[i] = 0.99 * v[i] + 0.01 * g[i] * g[i]
            w[i] = w[i] - 0.01 * m[i] / (np.sqrt(v[i]) + 1e-4)
    assert np.abs(state.w - w).max() < 1e-12
    assert state.t == 5


def test_adam_first_step_closed_form_without_bias_correction():
    # beta2 = 0.999 so the uncorrected scale (1-b1)/sqrt(1-b2) is ~3.16,
    # far from the ~1.0 a bias-corrected step would produce.
    state = ServerState(w=np.zeros(1), algo=AlgoConfig("fedadam", eta_g=1.0, adam_beta2=0.999))
    g = 2.0
    server_apply(state, np.array([g]), count=1)
    expected = -1.0 * ((1.0 - 0.9) * g) / (np.sqrt((1.0 - 0.999) * g * g) + 1e-4)
    np.testing.assert_allclose(state.w, [expected], rtol=0, atol=1e-12)
    corrected = -1.0 * g / (np.sqrt(g * g) + 1e-4)
    assert abs(expected - corrected) > 1.0


def test_server_apply_validates_inputs():
    state = ServerState(w=np.zeros(2), algo=AlgoConfig("fedavg", eta_g=1.0))
    with pytest.raises(ValueError):
        server_apply(state, np.zeros(2), count=0)
    with pytest.raises(ValueError):
        server_apply(state, np.zeros(3), count=1)
    with pytest.raises(ValueError):
        AlgoConfig("fedavg", server_opt="momentum")


def test_ema_initializes_to_first_value_then_unrolls():
    state = ServerState(
        w=np.zeros(1), algo=AlgoConfig("fedbuff", ema_enabled=True, ema_beta=0.5)
    )
    assert state.served()[0] == "global"
    # eta_g = 1 and count = 1, so the delta w - w_next steps w to 4, 8, 0
    server_apply(state, np.array([-4.0]), count=1)
    np.testing.assert_array_equal(state.ema, [4.0])
    server_apply(state, np.array([-4.0]), count=1)
    np.testing.assert_array_equal(state.ema, [6.0])
    server_apply(state, np.array([8.0]), count=1)
    np.testing.assert_array_equal(state.w, [0.0])
    # weights after three updates: 0.25, 0.25, 0.5
    np.testing.assert_array_equal(state.ema, [0.25 * 4.0 + 0.25 * 8.0 + 0.5 * 0.0])


def test_server_apply_feeds_ema():
    state = ServerState(
        w=np.array([1.0]), algo=AlgoConfig("fedbuff", eta_g=1.0, ema_enabled=True, ema_beta=0.9)
    )
    server_apply(state, np.array([0.5]), count=1)
    np.testing.assert_array_equal(state.ema, state.w)
    w_first = state.w.copy()
    server_apply(state, np.array([0.5]), count=1)
    np.testing.assert_allclose(state.ema, 0.9 * w_first + 0.1 * state.w, atol=1e-15)


@pytest.mark.parametrize("ema", [False, True], ids=["no_ema", "ema"])
@pytest.mark.parametrize("server_opt", ["sgd", "adam"])
def test_a_server_step_writes_into_no_array_it_held(server_opt, ema):
    # The evaluation thread scores state.served() while the next version
    # trains, which is safe only while a step rebinds the state's vectors.
    gen = rng.stream(0, rng.VERIFY, 0)
    algo = AlgoConfig("fedbuff", server_opt=server_opt, ema_enabled=ema)
    state = ServerState(gen.standard_normal(5), algo)
    for _ in range(2):  # the EMA starts at the first step and moves from the second
        held = {k: getattr(state, k) for k in ("w", "ema", "adam_m", "adam_v")}
        held = {k: v for k, v in held.items() if v is not None}
        held["summed_delta"] = summed_delta = gen.standard_normal(5)
        before = {k: v.copy() for k, v in held.items()}
        server_apply(state, summed_delta, count=2)
        for k, v in held.items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)
            assert k == "summed_delta" or not np.shares_memory(getattr(state, k), v), k
    assert (state.ema is not None) == ema


def test_the_auxiliary_step_writes_into_none_of_its_inputs():
    gen = rng.stream(0, rng.VERIFY, 0)
    aux, w_snapshot, delta_plus = (gen.standard_normal(5) for _ in range(3))
    before = [v.copy() for v in (aux, w_snapshot, delta_plus)]
    out = aux_step(aux, w_snapshot, delta_plus, 4, AlgoConfig("feast"))
    for v, b in zip((aux, w_snapshot, delta_plus), before):
        np.testing.assert_array_equal(v, b)
        assert not np.shares_memory(out, v)


# ---- canonical aggregation ---- #


def test_canonical_sum_is_arrival_order_invariant():
    gen = rng.stream(1, rng.VERIFY, 0)
    updates = [
        _update(cid, gen.standard_normal(6) * 10.0**k, round_id=k % 2)
        for k, cid in enumerate([7, 3, 9, 1, 5])
    ]
    ref = canonical_delta_sum(updates)
    for perm_seed in range(5):
        order = np.random.Generator(np.random.Philox(perm_seed)).permutation(len(updates))
        got = canonical_delta_sum([updates[i] for i in order])
        np.testing.assert_array_equal(got, ref)


def test_canonical_sum_orders_by_version_then_id():
    # Floating-point addition is order sensitive, so pin the exact order:
    # round (model version) ascending, then client id.
    a = _update(5, [1e16], round_id=0)
    b = _update(2, [1.0], round_id=1)
    c = _update(9, [-1e16], round_id=0)
    expected = (a.delta.copy() + c.delta) + b.delta  # (5,0),(9,0) then (2,1)
    np.testing.assert_array_equal(canonical_delta_sum([b, c, a]), expected)
    with pytest.raises(ValueError):
        canonical_delta_sum([])


@pytest.mark.parametrize("n_params", [4, 10, 331, 4106])
def test_canonical_sum_equals_a_loop_in_that_order(n_params):
    # numpy adds the rows of a C-contiguous block in order, so one reduction
    # over the sorted, stacked deltas has the bits of a copy-and-+= loop;
    # magnitudes spread over 1e-8 to 1e8 would show any other order.
    gen = rng.stream(2, rng.VERIFY, n_params)
    for count in (1, 2, 3, 8, 50, 257):
        deltas = np.exp(gen.uniform(np.log(1e-8), np.log(1e8), (count, n_params)))
        deltas *= gen.choice([-1.0, 1.0], deltas.shape)
        ids, rounds = gen.permutation(count).tolist(), gen.integers(3, size=count).tolist()
        updates = [_update(c, d, round_id=r) for c, r, d in zip(ids, rounds, deltas)]
        ordered = sorted(updates, key=lambda u: (u.round_id, u.client_id))
        want = ordered[0].delta.copy()
        for u in ordered[1:]:
            want += u.delta
        got = canonical_delta_sum(updates)
        assert got.flags.owndata and not any(np.shares_memory(got, u.delta) for u in updates)
        np.testing.assert_array_equal(got, want)


def test_canonical_sum_does_not_mutate_inputs():
    u1 = _update(0, [1.0, 2.0])
    u2 = _update(1, [3.0, 4.0])
    canonical_delta_sum([u1, u2])
    np.testing.assert_array_equal(u1.delta, [1.0, 2.0])
    np.testing.assert_array_equal(u2.delta, [3.0, 4.0])


# ---- delta history ---- #


def test_history_evicts_oldest_beyond_k():
    hist = DeltaHistory(k=3)
    for r in range(5):
        hist.push(r, np.array([float(r)]), count=1)
    assert list(hist._entries) == [2, 3, 4]


def test_history_fold_semantics():
    hist = DeltaHistory(k=2)
    hist.push(0, np.array([1.0]), count=2)
    hist.push(1, np.array([5.0]), count=3)
    assert hist.fold(_update(7, [2.0], round_id=0))
    entry = {e: hist._entries[e] for e in hist._entries}[0]
    np.testing.assert_array_equal(entry.summed_delta, [3.0])
    assert entry.contributor_count == 3
    hist.push(2, np.array([0.0]), count=1)  # evicts round 0
    assert not hist.fold(_update(7, [9.0], round_id=0))
    with pytest.raises(ValueError):
        hist.push(2, np.array([0.0]), count=1)
    with pytest.raises(ValueError):
        DeltaHistory(k=0)


def test_history_push_rejects_a_round_not_newer_than_the_newest():
    hist = DeltaHistory(k=3)
    hist.push(3, np.array([1.0]), count=1)
    hist.push(5, np.array([2.0]), count=1)
    for stale in (5, 4, 0):
        with pytest.raises(ValueError, match="not newer"):
            hist.push(stale, np.array([9.0]), count=1)
    assert list(hist._entries) == [3, 5]


def test_history_sample_covers_all_entries_uniformly():
    hist = DeltaHistory(k=4)
    for r in range(4):
        hist.push(r, np.array([float(r)]), count=1)
    gen = rng.stream(0, rng.TEACHER)
    draws = [hist.sample(gen).origin_round for _ in range(4000)]
    counts = np.bincount(draws, minlength=4)
    assert (counts > 800).all()
    assert DeltaHistory(k=1).sample(gen) is None


def test_teacher_replays_averaged_delta():
    w = np.array([1.0, 1.0])
    hist = DeltaHistory(k=2)
    hist.push(0, np.array([2.0, 4.0]), count=2)
    entry = hist.sample(rng.stream(0, rng.TEACHER))
    np.testing.assert_array_equal(
        teacher_from_history(w, entry, eta_g=1.0), [0.0, -1.0]
    )
    np.testing.assert_array_equal(
        teacher_from_history(w, entry, eta_g=0.5), [0.5, 0.0]
    )


# ---- configuration resolution ---- #


def test_dispatch_size_defaults_to_cohort_size():
    assert AlgoConfig("fedavg", cohort_size=50).resolved_dispatch_size() == 50
    assert (
        AlgoConfig("fedavg", cohort_size=50, dispatch_size=55).resolved_dispatch_size() == 55
    )


def test_server_opt_defaults_per_algorithm():
    assert AlgoConfig("fedavg").resolved_server_opt() == "sgd"
    assert AlgoConfig("fedbuff").resolved_server_opt() == "sgd"
    assert AlgoConfig("feast").resolved_server_opt() == "sgd"
    assert AlgoConfig("fedadam").resolved_server_opt() == "adam"
    assert AlgoConfig("fare_dust").resolved_server_opt() == "adam"
    assert AlgoConfig("fare_dust", server_opt="sgd").resolved_server_opt() == "sgd"
    assert AlgoConfig("fedbuff", server_opt="adam").resolved_server_opt() == "adam"


def test_ema_resolution():
    assert AlgoConfig("fare_dust").resolved_ema_enabled() is True
    assert AlgoConfig("fedavg").resolved_ema_enabled() is False
    assert AlgoConfig("fedbuff", ema_enabled=True).resolved_ema_enabled() is True


def test_eta_a_is_kappa_times_eta_g():
    assert AlgoConfig("feast", eta_g=0.5, kappa=0.8).resolved_eta_a() == pytest.approx(0.4)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig("sgd")
    with pytest.raises(ValueError):
        AlgoConfig("fedavg", eta_g=0.0)
    with pytest.raises(ValueError):
        AlgoConfig("fedavg", cohort_size=10, dispatch_size=5)
    with pytest.raises(ValueError):
        AlgoConfig("fedbuff", buffer_size=50, max_concurrency=10)
    with pytest.raises(ValueError):
        AlgoConfig("feast", feast_beta=1.0)
    with pytest.raises(ValueError):
        AlgoConfig("fedavg", time_limit_percentile=0.0)


# ---- driver hooks via a stub context ---- #


def test_empty_history_teacher_is_current_model():
    sim = _StubSim(w=[1.0, 2.0])
    driver = HistoryDistillationDriver(AlgoConfig("fare_dust", rho=0.1))
    # the open model itself, which the engine does not charge as a download
    assert driver._teacher_for_dispatch(sim) is sim.state.w
    _assert_teacher_stream_unmoved(sim)  # an empty history draws nothing


def test_empty_history_can_skip_distillation():
    sim = _StubSim(w=[1.0])
    driver = HistoryDistillationDriver(
        AlgoConfig("fare_dust", rho=0.1, skip_distill_when_no_history=True)
    )
    assert driver._teacher_for_dispatch(sim) is None


def test_zero_rho_never_consumes_teacher_stream():
    sim = _StubSim(w=[1.0])
    driver = HistoryDistillationDriver(AlgoConfig("fare_dust", rho=0.0))
    # two entries, since a draw over one entry leaves the stream unmoved
    driver.history.push(0, np.array([1.0]), count=1)
    driver.history.push(1, np.array([2.0]), count=1)
    assert driver._teacher_for_dispatch(sim) is None
    _assert_teacher_stream_unmoved(sim)


def test_history_teacher_applies_sampled_delta():
    sim = _StubSim(w=[2.0], eta_g=0.5)
    driver = HistoryDistillationDriver(AlgoConfig("fare_dust", rho=0.1, eta_g=0.5))
    driver.history.push(4, np.array([4.0]), count=2)
    teacher = driver._teacher_for_dispatch(sim)
    np.testing.assert_array_equal(teacher, [2.0 - 0.5 * 2.0])
    assert teacher is not sim.state.w  # a fresh array: the engine charges its download


def test_dispatches_of_one_round_share_each_history_teacher(monkeypatch):
    # A round's dispatches that draw one entry share one teacher array; each
    # still draws its entry, in order. A fold between rounds leaves the teachers
    # already handed out as they were, and the next round builds new ones.
    monkeypatch.setattr(SyncRoundDriver, "_start_round", lambda self, sim: None)
    sim = _StubSim(w=[2.0], eta_g=0.5)
    driver = HistoryDistillationDriver(AlgoConfig("fare_dust", rho=0.1, eta_g=0.5))
    driver.history.push(3, np.array([6.0]), count=1)
    driver.history.push(4, np.array([4.0]), count=2)
    gen = rng.stream(0, rng.TEACHER)

    def one_round():
        driver._start_round(sim)
        teachers = [driver._teacher_for_dispatch(sim) for _ in range(8)]
        drawn = [3 + int(gen.integers(2)) for _ in teachers]
        assert set(drawn) == {3, 4}
        by_entry = {}
        for origin, teacher in zip(drawn, teachers):
            assert by_entry.setdefault(origin, teacher) is teacher
        return by_entry

    first = one_round()
    np.testing.assert_array_equal(first[3], [2.0 - 0.5 * 6.0])
    np.testing.assert_array_equal(first[4], [2.0 - 0.5 * 2.0])
    driver.on_client_completed(sim, _update(9, [5.0], round_id=4))
    second = one_round()
    assert all(second[origin] is not first[origin] for origin in (3, 4))
    np.testing.assert_array_equal(second[4], [2.0 - 0.5 * 3.0])
    np.testing.assert_array_equal(first[4], [2.0 - 0.5 * 2.0])


def test_reading_an_untrained_update_raises_naming_it():
    # The engine trains an update only when something reads it, so a read
    # of one it never trained is a driver error, raised where the delta is
    # read, never a silent None.
    def untrained(round_id):
        update = _update(7, [0.0], round_id=round_id)
        update.delta = None
        return update

    message = "client 7 from round 3 is read but was never trained"
    with pytest.raises(RuntimeError, match=message):
        canonical_delta_sum([_update(1, [1.0], round_id=3), untrained(3)])
    hist = DeltaHistory(k=2)
    hist.push(3, np.array([1.0]), count=1)
    with pytest.raises(RuntimeError, match=message):
        hist.fold(untrained(3))
    sim = _StubSim(w=[0.0], algo=AlgoConfig("feast"))
    driver = AuxTrackDriver(AlgoConfig("feast"))
    driver.pending[3] = PendingAuxRound(3, np.zeros(1), np.zeros(1), count_plus=1)
    with pytest.raises(RuntimeError, match=message):
        driver.on_client_completed(sim, untrained(3))
    assert sim.counters["late_folded"] == 0


def test_late_updates_fold_into_history_or_count_as_discarded():
    sim = _StubSim(w=[0.0])
    driver = HistoryDistillationDriver(AlgoConfig("fare_dust", history_k=1))
    driver.history.push(0, np.array([1.0]), count=1)
    driver.on_client_completed(sim, _update(9, [0.5], round_id=0))
    assert sim.counters["late_folded"] == 1
    driver.history.push(1, np.array([0.0]), count=1)  # evicts round 0
    driver.on_client_completed(sim, _update(9, [0.5], round_id=0))
    assert sim.counters["late_discarded"] == 1


def test_aux_update_matches_hand_computation():
    # beta = 0.5, eta_g = kappa = 1 (so eta_a = 1), two contributors:
    #   g = [1, 2], w_plus = [-0.5, 0]
    #   a1 = 0.5 * (a0 - g) + 0.5 * w_plus = [-0.25, -0.5]
    sim = _StubSim(w=[0.0, 0.0], algo=AlgoConfig("feast", feast_beta=0.5, kappa=1.0))
    np.testing.assert_array_equal(sim.state.aux, [0.0, 0.0])  # feast's aux starts at w
    sim.state.aux = np.array([1.0, 1.0])
    sim.now = 2.5
    sim.apply_aux_update(np.array([0.5, 2.0]), np.array([2.0, 4.0]), 2)
    np.testing.assert_allclose(sim.state.aux, [-0.25, -0.5], atol=1e-15)
    assert sim.counters["aux_rounds"] == 1
    assert sim.last_model_event == 2.5


def test_aux_updates_must_arrive_in_round_order():
    sim = _StubSim(w=[0.0], algo=AlgoConfig("feast"))
    driver = AuxTrackDriver(AlgoConfig("feast"))
    rec = PendingAuxRound(
        round_id=3,
        w_snapshot=np.zeros(1),
        delta_plus=np.zeros(1),
        count_plus=1,
    )
    with pytest.raises(RuntimeError, match="out of order"):
        driver._apply_aux(sim, rec)
    assert sim.counters["aux_rounds"] == 0
    rec.round_id = 0
    driver._apply_aux(sim, rec)  # the expected round steps the engine's aux model
    assert sim.counters["aux_rounds"] == 1


def test_round_delta_descends_when_applied():
    # End to end sign check: the server subtracts averaged deltas, so one
    # aggregated round of local SGD must reduce the training loss.
    gen = rng.stream(21, rng.VERIFY, 0)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=3)
    w0 = gen.standard_normal(layout.n_params) * 0.1
    x = gen.standard_normal((40, 4))
    y = gen.integers(3, size=40)
    w_final, _, _ = local_sgd(
        w0, layout, x, y, starts=[0], sizes=[40], eta_l=0.05, batch_size=40, steps=[1],
        plans=[draw_batch_plan(rng.stream(0, rng.SHUFFLE, 0), 40, 1, 40)],
    )
    w_local = w_final[0]
    delta = w0 - w_local
    state = ServerState(w=w0.copy(), algo=AlgoConfig("fedavg", eta_g=1.0))
    server_apply(state, delta, count=1)
    before, _ = loss_and_grad(w0, layout, x, y)
    after, _ = loss_and_grad(state.w, layout, x, y)
    assert after.total < before.total
    np.testing.assert_allclose(state.w, w_local, atol=1e-15)
