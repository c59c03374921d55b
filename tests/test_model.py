"""Tests for the flat-parameter model and local training loop."""

import copy

import numpy as np
import pytest

from stragglersim import model, rng
from stragglersim.model import (
    ModelLayout,
    TrainingDiverged,
    _batch_sum,
    _cohort_plan,
    _forward,
    _layers,
    _row_max,
    _sgd_grad,
    forward_logits,
    init_params,
    local_sgd,
    loss_and_grad,
    softmax,
)


def _random_problem(gen, layout, n, rho=0.0, nu=0.0, distill_loss="soft_ce", temp=1.0):
    """Random weights, batch, and optional teacher/anchor for a layout."""
    w = gen.standard_normal(layout.n_params) * 0.5
    x = gen.standard_normal((n, layout.d_in))
    y = gen.integers(layout.n_classes, size=n)
    kwargs = dict(rho=rho, nu=nu, distill_loss=distill_loss, distill_temperature=temp)
    if rho > 0:
        kwargs["teacher_logits"] = gen.standard_normal((n, layout.n_classes))
    if nu > 0:
        kwargs["anchor"] = gen.standard_normal(layout.n_params) * 0.5
    return w, x, y, kwargs


def _numeric_grad(w, layout, x, y, kwargs, h=1e-5):
    grad = np.empty_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _ = loss_and_grad(wp, layout, x, y, **kwargs)
        lm, _ = loss_and_grad(wm, layout, x, y, **kwargs)
        grad[i] = (lp.total - lm.total) / (2 * h)
    return grad


@pytest.mark.parametrize(
    "hidden,rho,nu,distill_loss",
    [
        (0, 0.0, 0.0, "soft_ce"),
        (0, 0.3, 0.0, "soft_ce"),
        (0, 0.3, 0.0, "logit_mse"),
        (0, 0.0, 0.7, "soft_ce"),
        (5, 0.0, 0.0, "soft_ce"),
        (5, 0.2, 0.5, "soft_ce"),
        (5, 0.2, 0.5, "logit_mse"),
    ],
)
def test_gradient_matches_central_differences(hidden, rho, nu, distill_loss):
    gen = rng.stream(17, rng.VERIFY, 0)
    layout = ModelLayout(d_in=4, hidden=hidden, n_classes=3)
    w, x, y, kwargs = _random_problem(
        gen, layout, n=6, rho=rho, nu=nu, distill_loss=distill_loss, temp=1.7
    )
    _, grad = loss_and_grad(w, layout, x, y, **kwargs)
    numeric = _numeric_grad(w, layout, x, y, kwargs)
    scale = max(1.0, float(np.abs(numeric).max()))
    assert np.abs(grad - numeric).max() / scale < 1e-6


def test_loss_composition_is_exact():
    gen = rng.stream(3, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=4, n_classes=3)
    w, x, y, kwargs = _random_problem(gen, layout, n=5, rho=0.4, nu=0.2)
    breakdown, _ = loss_and_grad(w, layout, x, y, **kwargs)
    assert breakdown.total == (
        breakdown.supervised + 0.4 * breakdown.distill + 0.2 * breakdown.proximal
    )


def test_distill_loss_is_at_least_teacher_entropy():
    # Cross entropy H(q, p) >= H(q), with equality only at p == q.
    gen = rng.stream(5, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=4)
    for _ in range(20):
        w, x, y, kwargs = _random_problem(gen, layout, n=8, rho=1.0)
        breakdown, _ = loss_and_grad(w, layout, x, y, **kwargs)
        q = softmax(kwargs["teacher_logits"])
        entropy = float(-(q * np.log(q)).sum(axis=1).mean())
        assert breakdown.distill >= entropy - 1e-12


def test_zero_proximal_at_anchor():
    gen = rng.stream(6, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=3)
    w, x, y, kwargs = _random_problem(gen, layout, n=4, nu=0.5)
    kwargs["anchor"] = w.copy()
    breakdown, _ = loss_and_grad(w, layout, x, y, **kwargs)
    assert breakdown.proximal == 0.0


def test_batch_order_invariance():
    gen = rng.stream(7, rng.VERIFY, 0)
    layout = ModelLayout(d_in=4, hidden=3, n_classes=3)
    w, x, y, kwargs = _random_problem(gen, layout, n=9, rho=0.2, nu=0.1)
    perm = gen.permutation(9)
    kwargs_perm = dict(kwargs)
    kwargs_perm["teacher_logits"] = kwargs["teacher_logits"][perm]
    a, ga = loss_and_grad(w, layout, x, y, **kwargs)
    b, gb = loss_and_grad(w, layout, x[perm], y[perm], **kwargs_perm)
    assert abs(a.total - b.total) < 1e-12
    assert np.abs(ga - gb).max() < 1e-12


def test_softmax_is_shift_invariant_and_overflow_safe():
    logits = np.array([[1000.0, 1001.0, 999.0], [0.0, 0.0, 0.0]])
    p = softmax(logits)
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-12)
    shifted = softmax(logits - 500.0)
    np.testing.assert_allclose(p, shifted, atol=1e-12)

    layout = ModelLayout(d_in=2, hidden=0, n_classes=3)
    w = np.zeros(layout.n_params)
    w[:6] = 1e3  # huge weights push logits to +-1e3
    x = np.array([[1.0, -1.0]])
    breakdown, grad = loss_and_grad(w, layout, x, np.array([0]))
    assert np.isfinite(breakdown.total)
    assert np.isfinite(grad).all()


def test_single_row_matches_batched_row():
    gen = rng.stream(8, rng.VERIFY, 0)
    layout = ModelLayout(d_in=5, hidden=4, n_classes=3)
    w = gen.standard_normal(layout.n_params)
    x = gen.standard_normal((6, 5))
    batched = forward_logits(w, layout, x)
    single = forward_logits(w, layout, x[2])
    np.testing.assert_array_equal(single, batched[2])


def test_predict_and_accuracy():
    layout = ModelLayout(d_in=2, hidden=0, n_classes=3)
    # Zero weights except biases: logits are the bias row for every input.
    w = np.zeros(layout.n_params)
    w[-3:] = [0.0, 1.0, 0.5]  # class 1 always wins
    x = np.zeros((4, 2))
    y = np.array([1, 1, 1, 0])
    predicted = forward_logits(w, layout, x).argmax(axis=1)
    np.testing.assert_array_equal(predicted, [1, 1, 1, 1])
    assert (predicted == y).mean() == 0.75


def _one_member(w0, layout, x, y, *, steps, gen, teacher_w=None, **kwargs):
    """A one-member local_sgd call training on all of x and y: (w, steps,
    examples)."""
    w_final, steps_done, examples = local_sgd(
        w0, layout, x, y, starts=[0], sizes=[len(y)], steps=[steps], gens=[gen],
        teacher_ws=None if teacher_w is None else [teacher_w], **kwargs,
    )
    return w_final[0], steps_done, examples


def test_local_sgd_matches_scalar_reference():
    # Re-derive two epochs of minibatch SGD with an index-by-index loop,
    # consuming the same shuffle stream.
    gen = rng.stream(9, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=3)
    w0 = gen.standard_normal(layout.n_params) * 0.1
    x = gen.standard_normal((7, 3))
    y = gen.integers(3, size=7)

    got, steps, examples = _one_member(
        w0, layout, x, y, eta_l=0.05, batch_size=3, steps=6, gen=rng.stream(1, rng.SHUFFLE, 0)
    )

    ref_gen = rng.stream(1, rng.SHUFFLE, 0)
    w = w0.copy()
    ref_steps = ref_examples = 0
    for _ in range(2):
        perm = ref_gen.permutation(7)
        for start in range(0, 7, 3):
            idx = perm[start : start + 3]
            _, grad = loss_and_grad(w, layout, x[idx], y[idx])
            w = w - 0.05 * grad
            ref_steps += 1
            ref_examples += len(idx)
    assert steps == ref_steps == 6
    assert examples == ref_examples == 14
    assert np.abs(got - w).max() < 1e-12


def test_local_sgd_steps_mode_counts_short_batches():
    gen = rng.stream(10, rng.VERIFY, 0)
    layout = ModelLayout(d_in=2, hidden=0, n_classes=2)
    w0 = np.zeros(layout.n_params)
    x = gen.standard_normal((7, 2))
    y = gen.integers(2, size=7)
    # batches per epoch: 3, 3, 1; four steps roll into a second epoch
    _, steps, examples = _one_member(
        w0, layout, x, y, eta_l=0.1, batch_size=3, steps=4, gen=rng.stream(0, rng.SHUFFLE, 0)
    )
    assert steps == 4
    assert examples == 10

    _, steps3, examples3 = _one_member(
        w0, layout, x, y, eta_l=0.1, batch_size=3, steps=3, gen=rng.stream(0, rng.SHUFFLE, 0)
    )
    assert steps3 == 3
    assert examples3 == 7


def test_local_sgd_zero_learning_rate_is_identity():
    gen = rng.stream(11, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=2, n_classes=3)
    w0 = gen.standard_normal(layout.n_params)
    x = gen.standard_normal((5, 3))
    y = gen.integers(3, size=5)
    w, steps, examples = _one_member(
        w0, layout, x, y, eta_l=0.0, batch_size=2, steps=3, gen=rng.stream(2, rng.SHUFFLE, 0)
    )
    assert steps == 3
    assert examples == 5
    np.testing.assert_array_equal(w, w0)
    assert w is not w0


def test_local_sgd_descends_on_full_batch():
    gen = rng.stream(12, rng.VERIFY, 0)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=3)
    w0 = gen.standard_normal(layout.n_params) * 0.1
    x = gen.standard_normal((30, 4))
    y = gen.integers(3, size=30)
    before, _ = loss_and_grad(w0, layout, x, y)
    w, _, _ = _one_member(
        w0, layout, x, y, eta_l=0.05, batch_size=30, steps=1, gen=rng.stream(3, rng.SHUFFLE, 0)
    )
    after, _ = loss_and_grad(w, layout, x, y)
    assert after.total < before.total


def test_local_sgd_distill_uses_fixed_teacher():
    gen = rng.stream(13, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=3)
    w0 = gen.standard_normal(layout.n_params) * 0.2
    teacher = gen.standard_normal(layout.n_params) * 0.2
    x = gen.standard_normal((6, 3))
    y = gen.integers(3, size=6)

    got, _, _ = _one_member(
        w0,
        layout,
        x,
        y,
        eta_l=0.1,
        batch_size=6,
        steps=1,
        gen=rng.stream(4, rng.SHUFFLE, 0),
        rho=0.5,
        teacher_w=teacher,
    )
    perm = rng.stream(4, rng.SHUFFLE, 0).permutation(6)
    t_logits = forward_logits(teacher, layout, x[perm])
    _, grad = loss_and_grad(
        w0, layout, x[perm], y[perm], rho=0.5, teacher_logits=t_logits
    )
    np.testing.assert_allclose(got, w0 - 0.1 * grad, atol=1e-15)


def _reference_sgd(
    w0, layout, x, y, gen, *, eta_l, batch_size, epochs=None, steps=None, rho, nu,
    teacher_w, anchor, distill_loss, distill_temperature,
):
    """Mini-batch SGD with one checked loss_and_grad call per batch."""
    w = w0.copy()
    steps_done = examples = epochs_done = 0
    while epochs_done != epochs and steps_done != steps:
        perm = gen.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = perm[start : start + batch_size]
            t_logits = forward_logits(teacher_w, layout, x[idx]) if rho > 0 else None
            _, grad = loss_and_grad(
                w, layout, x[idx], y[idx], rho=rho, nu=nu, teacher_logits=t_logits,
                anchor=anchor, distill_loss=distill_loss, distill_temperature=distill_temperature,
            )
            w = w - eta_l * grad
            steps_done += 1
            examples += len(idx)
            if steps_done == steps:
                break
        epochs_done += 1
    return w, steps_done, examples


# One-example, short-chunk, single-batch and multi-batch shards for batch_size 4.
_COHORT_SIZES = (1, 7, 4, 13, 6, 9)


def _rows(xs, ys):
    """The members' shards as local_sgd takes them: one features and
    one labels array, and each member's start row and size in them."""
    sizes = [len(y) for y in ys]
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    return np.concatenate(xs), np.concatenate(ys), {"starts": starts, "sizes": sizes}


@pytest.mark.parametrize("hidden", [0, 5], ids=["linear", "mlp"])
@pytest.mark.parametrize("bound", ["epochs", "steps"])
@pytest.mark.parametrize(
    "rho,nu,distill_loss",
    [(0.0, 0.0, "soft_ce"), (0.4, 0.0, "soft_ce"), (0.4, 0.0, "logit_mse"), (0.0, 0.3, "soft_ce")],
    ids=["plain", "soft_ce", "logit_mse", "proximal"],
)
def test_local_sgd_cohort_matches_per_client_local_sgd(hidden, bound, rho, nu, distill_loss):
    gen = rng.stream(14, rng.VERIFY, hidden)
    layout = ModelLayout(d_in=3, hidden=hidden, n_classes=4)
    w0 = gen.standard_normal(layout.n_params) * 0.3
    xs = [gen.standard_normal((n, 3)) for n in _COHORT_SIZES]
    ys = [gen.integers(4, size=n) for n in _COHORT_SIZES]
    teachers = w0 + 0.2 * gen.standard_normal((len(xs), layout.n_params))
    steps = [int(s) for s in gen.integers(1, 7, size=len(xs))]
    common = dict(
        eta_l=0.2, batch_size=4, rho=rho, nu=nu, anchor=w0.copy() if nu > 0 else None,
        distill_loss=distill_loss, distill_temperature=2.0,
    )

    def bounds(i):
        return {"epochs": 2} if bound == "epochs" else {"steps": steps[i]}

    gens = [rng.stream(5, rng.SHUFFLE, i) for i in range(len(xs))]
    two_epochs = [2 * -(-n // 4) for n in _COHORT_SIZES]
    x, y, rows = _rows(xs, ys)
    member_steps = two_epochs if bound == "epochs" else steps
    got, got_steps, got_examples = local_sgd(
        w0, layout, x, y, **rows, gens=gens, teacher_ws=teachers if rho > 0 else None,
        steps=member_steps, **common,
    )
    assert got.shape == (len(xs), layout.n_params)
    total_steps = total_examples = 0
    for i in range(len(xs)):
        teacher = teachers[i] if rho > 0 else None
        ref_gen = rng.stream(5, rng.SHUFFLE, i)
        want, want_steps, want_examples = _reference_sgd(
            w0, layout, xs[i], ys[i], ref_gen, teacher_w=teacher, **bounds(i), **common,
        )
        one, one_steps, one_examples = _one_member(
            w0, layout, xs[i], ys[i], steps=member_steps[i], gen=rng.stream(5, rng.SHUFFLE, i),
            teacher_w=teacher, **common,
        )
        assert (one_steps, one_examples) == (want_steps, want_examples)
        np.testing.assert_allclose(one, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[i], one, rtol=0, atol=1e-12)
        # the shuffle stream is left where the reference leaves it
        assert gens[i].random() == ref_gen.random()
        total_steps += want_steps
        total_examples += want_examples
    assert (got_steps, got_examples) == (total_steps, total_examples)


@pytest.mark.parametrize(
    "starts,sizes,batch_size,steps,shared",
    [
        ([4], [7], 1, [7], False),  # B = 1, one row per batch
        ([0, 7, 11, 20], [7, 4, 9, 1], 3, [4, 1, 5, 2], False),  # partial last epochs
        ([3, 0, 30], [5, 8, 3], 2, [9, 12, 6], False),  # three whole epochs each
        ([10, 10, 0], [7, 7, 4], 3, [2, 5, 2], True),  # member 1 is member 0's client again
    ],
    ids=["one_member_b1", "partial_epochs", "several_epochs", "client_listed_twice"],
)
def test_cohort_plan_matches_per_member_permutations(starts, sizes, batch_size, steps, shared):
    gens = [rng.stream(8, rng.SHUFFLE, i) for i in range(len(sizes))]
    if shared:
        gens[1] = gens[0]
    ref_gens = copy.deepcopy(gens)  # keeps the sharing
    order, index, lengths = _cohort_plan(starts, sizes, batch_size, steps, gens)

    assert order.tolist() == sorted(range(len(sizes)), key=lambda i: -steps[i])
    assert lengths.shape == (max(steps), len(sizes))
    assert index.shape == (max(steps), len(sizes), batch_size)
    for i, gen in enumerate(ref_gens):  # member order, as the plan draws
        batches = []
        while len(batches) < steps[i]:
            perm = gen.permutation(sizes[i])
            batches += [perm[a : a + batch_size] for a in range(0, sizes[i], batch_size)]
        p = order.tolist().index(i)
        for s in range(max(steps)):
            want = starts[i] + batches[s] if s < steps[i] else np.array([], dtype=int)
            assert lengths[s, p] == len(want)
            assert index[s, p, : len(want)].tolist() == want.tolist()
            assert not index[s, p, len(want) :].any()  # padding is row 0
    for gen, ref_gen in zip(gens, ref_gens):
        assert gen.random() == ref_gen.random()


def test_a_client_listed_twice_trains_as_two_sequential_calls():
    # A version group can hold one client twice (a buffered client that
    # completes and is sampled again before the flush). With a time limit
    # its two dispatches take different step counts; they must still draw
    # their batches from the client's one stream in dispatch order.
    gen = rng.stream(16, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=3)
    w0 = gen.standard_normal(layout.n_params) * 0.3
    x = gen.standard_normal((7, 3))
    y = gen.integers(3, size=7)
    shared = rng.stream(6, rng.SHUFFLE, 0)
    got, got_steps, got_examples = local_sgd(
        w0, layout, x, y, starts=[0, 0], sizes=[7, 7], eta_l=0.2, batch_size=3, steps=[2, 5],
        gens=[shared, shared],
    )
    ref_gen = rng.stream(6, rng.SHUFFLE, 0)
    total_steps = total_examples = 0
    for i, steps in enumerate((2, 5)):
        want, want_steps, want_examples = _one_member(
            w0, layout, x, y, eta_l=0.2, batch_size=3, steps=steps, gen=ref_gen
        )
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)
        total_steps += want_steps
        total_examples += want_examples
    assert (got_steps, got_examples) == (total_steps, total_examples) == (7, 6 + 13)
    assert shared.random() == ref_gen.random()


def test_divergence_names_the_cohort_member():
    # Huge features overflow one client's weights; the others stay finite.
    gen = rng.stream(15, rng.VERIFY, 0)
    layout = ModelLayout(d_in=3, hidden=0, n_classes=3)
    w0 = np.zeros(layout.n_params)
    xs = [gen.standard_normal((n, 3)) for n in (9, 12, 5, 3)]
    xs[2] = xs[2] * 1e200
    ys = [gen.integers(3, size=len(x)) for x in xs]
    kwargs = dict(eta_l=1.0, batch_size=2)
    steps = [2 * -(-len(x) // 2) for x in xs]  # two epochs
    x, y, rows = _rows(xs, ys)
    with pytest.raises(TrainingDiverged) as excinfo:
        local_sgd(
            w0, layout, x, y, **rows, steps=steps,
            gens=[rng.stream(0, rng.SHUFFLE, i) for i in range(4)], **kwargs
        )
    assert excinfo.value.member == 2
    with pytest.raises(FloatingPointError):
        _one_member(w0, layout, xs[2], ys[2], steps=steps[2], gen=rng.stream(0, rng.SHUFFLE, 2),
                    **kwargs)
    _one_member(w0, layout, xs[1], ys[1], steps=steps[1], gen=rng.stream(0, rng.SHUFFLE, 1),
                **kwargs)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


@pytest.mark.parametrize("hidden", [0, 5], ids=["linear", "mlp"])
def test_passes_never_write_into_their_inputs(hidden):
    # Forward and backward passes work in place on arrays they allocate;
    # any write into w, x, a teacher or the anchor raises here.
    gen = rng.stream(18, rng.VERIFY, hidden)
    layout = ModelLayout(d_in=3, hidden=hidden, n_classes=4)
    w, anchor = gen.standard_normal((2, layout.n_params)) * 0.3
    x = gen.standard_normal((9, 3))
    y = gen.integers(4, size=9)
    teachers = w + 0.2 * gen.standard_normal((3, layout.n_params))
    t_logits = forward_logits(teachers[0], layout, x)
    stacked_x, stacked_y = np.stack([x, x[::-1], x]), np.stack([y, y[::-1], y])
    _read_only(w, anchor, x, y, teachers, t_logits, stacked_x, stacked_y)

    forward_logits(w, layout, x)
    forward_logits(w, layout, x[4])
    _forward(w, layout, x, out=(np.empty((9, hidden)) if hidden else None, np.empty((9, 4))))
    _forward(teachers, layout, stacked_x)
    for distill_loss in ("soft_ce", "logit_mse"):
        loss_and_grad(w, layout, x, y, rho=0.3, nu=0.2, teacher_logits=t_logits, anchor=anchor,
                      distill_loss=distill_loss)
        local_sgd(
            w, layout, x, y, starts=[0, 0, 2], sizes=[9, 5, 7], eta_l=0.1, batch_size=4,
            steps=[6, 4, 4],  # two epochs
            gens=[rng.stream(7, rng.SHUFFLE, i) for i in range(3)], rho=0.3, nu=0.2,
            teacher_ws=list(teachers), anchor=anchor, distill_loss=distill_loss,
        )
        # the stacked kernel local_sgd runs on its own copies
        _sgd_grad(teachers, layout, stacked_x, stacked_y, 9, rho=0.3, nu=0.2, teacher_w=teachers,
                  anchor=anchor, distill_loss=distill_loss, distill_temperature=2.0)


def _out_of_place_logits(w, layout, x):
    *hidden_layers, (weight, bias) = _layers(w, layout)
    for w1, b1 in hidden_layers:
        x = np.tanh(x @ w1 + b1)
    return x @ weight + bias


@pytest.mark.parametrize("n", [1, 7, 3000, 16000])
@pytest.mark.parametrize("hidden", [0, 64], ids=["linear", "mlp64"])
def test_logits_equal_the_out_of_place_expressions(hidden, n):
    gen = rng.stream(19, rng.VERIFY, n)
    layout = ModelLayout(d_in=32, hidden=hidden, n_classes=10)
    w = gen.standard_normal((2, layout.n_params)) * 0.3
    x = gen.standard_normal((2, n, 32))
    single = forward_logits(w[0], layout, x[0])
    assert np.array_equal(single, _out_of_place_logits(w[0], layout, x[0]))
    assert np.array_equal(_forward(w, layout, x)[0], _out_of_place_logits(w, layout, x))
    # an evaluation's forward pass fills buffers it is given, to the same bits
    out = (np.empty((n, hidden)) if hidden else None, np.empty((n, 10)))
    logits, _ = _forward(w[0], layout, x[0], out)
    assert logits is out[1] and np.array_equal(logits, single)


def _spanning_values(gen, shape):
    """Signed values spanning e^-20 to e^20, with NaN, inf and -inf entries."""
    a = np.exp(gen.uniform(-20.0, 20.0, shape)) * gen.choice([-1.0, 1.0], shape)
    flat = a.reshape(-1)
    spots = gen.choice(flat.size, size=min(3, flat.size), replace=False)
    flat[spots] = [np.nan, np.inf, -np.inf][: len(spots)]
    return a


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf + -inf
@pytest.mark.parametrize("members", [None, 1, 2, 7, 56], ids=lambda b: f"B{b}")
def test_row_max_and_batch_sum_equal_the_plain_reductions(members):
    # The kernel's reductions over transposed copies give the bits of
    # numpy's own reductions, on stacked (B, n, k) and 2-D (n, k) arrays.
    gen = rng.stream(20, rng.VERIFY, members or 0)
    lead = () if members is None else (members,)
    for n in (1, 8, 9, 20, 129):
        for width in (1, 2, 10, 62, 64):
            a = _spanning_values(gen, lead + (n, width))
            got, want = _row_max(a), a.max(axis=-1, keepdims=True)
            assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            got, want = _batch_sum(a), np.sum(a, axis=-2, keepdims=True)
            assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            # a row that is all NaN or all inf
            a[..., 0, :] = np.nan
            a[..., -1, :] = np.inf
            assert np.array_equal(_row_max(a), a.max(axis=-1, keepdims=True), equal_nan=True)
            assert np.array_equal(_batch_sum(a), np.sum(a, axis=-2, keepdims=True), equal_nan=True)


@pytest.mark.parametrize("batch_size", [20, 129])
@pytest.mark.parametrize("per_member", [False, True], ids=["shared", "per_member"])
@pytest.mark.parametrize(
    "rho,nu,distill_loss",
    [(0.1, 0.0, "soft_ce"), (0.1, 0.2, "logit_mse"), (0.0, 0.3, "soft_ce")],
    ids=["soft_ce", "logit_mse_proximal", "proximal"],
)
@pytest.mark.parametrize("hidden", [0, 64], ids=["linear", "mlp64"])
def test_local_sgd_is_bitwise_equal_under_the_plain_reductions(
    monkeypatch, hidden, rho, nu, distill_loss, per_member, batch_size
):
    gen = rng.stream(21, rng.VERIFY, hidden + batch_size)
    layout = ModelLayout(d_in=32, hidden=hidden, n_classes=10)
    sizes = [1, 20, 21, 34, 150, 260, 7]
    x = gen.standard_normal((sum(sizes), 32))
    y = gen.integers(10, size=len(x))
    w0 = 0.3 * gen.standard_normal((len(sizes), layout.n_params) if per_member else layout.n_params)
    teachers = 0.3 * gen.standard_normal((len(sizes), layout.n_params))
    kwargs = dict(
        starts=np.cumsum([0, *sizes[:-1]]).tolist(), sizes=sizes, eta_l=0.05,
        batch_size=batch_size, steps=[1, 2, 3, 2, 4, 5, 3], rho=rho, nu=nu,
        teacher_ws=list(teachers) if rho > 0 else None, anchor=w0.copy() if nu > 0 else None,
        distill_loss=distill_loss, distill_temperature=2.0,
    )

    def train():
        gens = [rng.stream(8, rng.SHUFFLE, i) for i in range(len(sizes))]
        return local_sgd(w0, layout, x, y, gens=gens, **kwargs)

    w_new, *counts_new = train()
    calls = []

    def plain_row_max(a):
        calls.append("max")
        return a.max(axis=-1, keepdims=True)

    def plain_batch_sum(a):
        calls.append("sum")
        return np.sum(a, axis=-2, keepdims=True)

    monkeypatch.setattr(model, "_row_max", plain_row_max)
    monkeypatch.setattr(model, "_batch_sum", plain_batch_sum)
    w_plain, *counts_plain = train()
    assert {"max", "sum"} <= set(calls)
    assert counts_new == counts_plain
    assert np.array_equal(w_new, w_plain)


def test_layout_param_counts():
    assert ModelLayout(d_in=16, hidden=0, n_classes=10).n_params == 170
    assert ModelLayout(d_in=16, hidden=32, n_classes=10).n_params == 874
    assert ModelLayout(d_in=16, hidden=0, n_classes=10).dims == ((16, 10),)
    assert ModelLayout(d_in=16, hidden=32, n_classes=10).dims == ((16, 32), (32, 10))
    with pytest.raises(ValueError):
        ModelLayout(d_in=0, hidden=1, n_classes=2)
    with pytest.raises(ValueError):
        ModelLayout(d_in=2, hidden=1, n_classes=2, activation="relu")


@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
@pytest.mark.parametrize("hidden", [0, 5], ids=["linear", "mlp"])
def test_layers_tile_the_parameter_vector(hidden, lead):
    # Each layer's weight then bias, input to output, cover the vector once:
    # writing arange(P) through the views in order gives arange(P) back.
    layout = ModelLayout(d_in=4, hidden=hidden, n_classes=3)
    w = np.full(lead + (layout.n_params,), -1.0)
    views = [v for layer in _layers(w, layout) for v in layer]
    shapes = [v.shape[len(lead):] for v in views]
    assert shapes == [s for i, o in layout.dims for s in ((i, o), (1, o))]
    sizes = [int(np.prod(shape)) for shape in shapes]
    assert sum(sizes) == layout.n_params
    for v, shape, start in zip(views, shapes, np.cumsum([0] + sizes)):
        v[...] = np.arange(start, start + np.prod(shape)).reshape(shape)
    assert np.array_equal(w, np.broadcast_to(np.arange(layout.n_params), w.shape))


def test_init_params_shape_and_scale():
    layout = ModelLayout(d_in=4, hidden=3, n_classes=2)
    w = init_params(layout, rng.stream(0, rng.INIT), scale=0.1)
    assert w.shape == (layout.n_params,)
    assert w.dtype == np.float64
    assert np.abs(w).max() <= 0.1


def test_argument_contracts():
    layout = ModelLayout(d_in=2, hidden=0, n_classes=2)
    w = np.zeros(layout.n_params)
    x = np.zeros((2, 2))
    y = np.array([0, 1])
    gen = rng.stream(0, rng.SHUFFLE, 0)
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, x, y, rho=0.1)  # teacher missing
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, x, y, teacher_logits=np.zeros((2, 2)))  # rho == 0
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, x, y, nu=0.1)  # anchor missing
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, x, y, anchor=w)  # nu == 0
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, x, y, rho=0.1, teacher_logits=np.zeros((2, 2)), distill_loss="kl")
    with pytest.raises(ValueError):
        loss_and_grad(w, layout, np.zeros((0, 2)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        _one_member(w, layout, x, y, eta_l=0.1, batch_size=1, steps=0, gen=gen)
    with pytest.raises(ValueError):
        _one_member(w, layout, x, y, eta_l=-0.1, batch_size=1, steps=1, gen=gen)
    with pytest.raises(ValueError):
        _one_member(w, layout, x, y, eta_l=0.1, batch_size=1, steps=1, gen=gen, rho=0.5)
