"""Flat-parameter classifier with composite loss and local SGD.

Parameters live in a single float64 vector so server optimizers and delta
arithmetic stay plain array operations. The model is either a linear softmax
classifier or a one-hidden-layer tanh network. ModelLayout.dims lists its
layers, _layers reads them from a vector, and no pass forks on the model
kind. The training loss is

    total = supervised + rho * distill + nu * proximal

where supervised is mean softmax cross-entropy, distill compares student
logits against fixed teacher logits (soft cross-entropy by default, logit
mean-squared-error as an alternative), and proximal is half the squared
distance to an anchor vector. All gradients are exact analytic expressions
with one implementation, _grad, which loss_and_grad (the validated
reference) and training (local_sgd, the one training function) share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelLayout:
    """Architecture description; hidden=0 selects the linear model."""

    d_in: int
    hidden: int
    n_classes: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.d_in < 1:
            raise ValueError(f"d_in must be >= 1, got {self.d_in}")
        if self.hidden < 0:
            raise ValueError(f"hidden must be >= 0, got {self.hidden}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.activation != "tanh":
            raise ValueError(f"activation must be 'tanh', got {self.activation!r}")

    @functools.cached_property
    def dims(self) -> tuple[tuple[int, int], ...]:
        """Each layer's (fan_in, fan_out), input to output; w holds weight, then bias."""
        if self.hidden:
            return ((self.d_in, self.hidden), (self.hidden, self.n_classes))
        return ((self.d_in, self.n_classes),)

    @property
    def n_params(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.dims)


@dataclass(frozen=True)
class LossBreakdown:
    """Loss terms for one call; total folds in the rho/nu weights used."""

    supervised: float
    distill: float
    proximal: float
    total: float


def init_params(layout: ModelLayout, gen: np.random.Generator, scale: float = 0.05) -> np.ndarray:
    """Uniform [-scale, scale] initialization of the flat parameter vector."""
    return gen.uniform(-scale, scale, layout.n_params)


def _layers(w: np.ndarray, layout: ModelLayout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's views of w (P,) or of a stack (B, P), input to output:
    weight (..., fan_in, fan_out) and bias (..., 1, fan_out)."""
    lead = w.shape[:-1]
    views, i = [], 0
    for fan_in, fan_out in layout.dims:
        j = i + fan_in * fan_out
        weight = w[..., i:j].reshape(lead + (fan_in, fan_out))
        views.append((weight, w[..., j : j + fan_out].reshape(lead + (1, fan_out))))
        i = j + fan_out
    return views


def _forward(w: np.ndarray, layout: ModelLayout, x: np.ndarray, out=None):
    """Returns (logits, hidden_activations_or_None) for a batch x (n, d_in)
    under w (P,), or for stacked batches x (B, n, d_in) under w (B, P).

    Each step after a matmul works in place on the array that matmul made,
    never on w or x, so a pass holds one (n, hidden) and one (n, c) array.
    out, when given, is that pair, (n, hidden) or None for the linear model
    and (n, c): the matmuls write into it instead of allocating."""
    hidden_out, logits_out = (None, None) if out is None else out
    *hidden_layers, (weight, bias) = _layers(w, layout)
    hidden = None
    for w1, b1 in hidden_layers:  # the tanh layer, when there is one
        hidden = np.matmul(x, w1, out=hidden_out)
        hidden += b1
        np.tanh(hidden, out=hidden)
        x = hidden
    logits = np.matmul(x, weight, out=logits_out)
    logits += bias
    return logits, hidden


def forward_logits(w: np.ndarray, layout: ModelLayout, x: np.ndarray) -> np.ndarray:
    """Logits for a batch (n, d_in) -> (n, n_classes); 1-D input gives 1-D output."""
    if w.shape != (layout.n_params,):
        raise ValueError(f"expected parameter shape ({layout.n_params},), got {w.shape}")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != layout.d_in:
        raise ValueError(f"expected feature dim {layout.d_in}, got {batch.shape[1]}")
    logits, _ = _forward(w, layout, batch)
    return logits[0] if single else logits


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1, keepdims=True) over a class-major copy, whose inner loop
    spans every row at once where numpy would reduce one short row at a
    time; a maximum is exact in any order. Sums along the class axis stay
    plain: numpy adds a contiguous row pairwise, and a copy would reorder it."""
    c = a.shape[-1]
    return a.reshape(-1, c).T.copy().max(axis=0).reshape(a.shape[:-1] + (1,))


def _batch_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-2, keepdims=True) of a batch (n, k) or stacked
    batches (B, n, k) over a row-major copy (n, B, k); numpy adds the n rows
    in order in both layouts. It adds a width-1 array pairwise, as one
    contiguous run, so that one keeps the plain sum."""
    if a.shape[-1] == 1:
        return np.sum(a, axis=-2, keepdims=True)
    return a.swapaxes(0, -2).copy().sum(axis=0)[..., None, :]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - _row_max(logits)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - _row_max(logits)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _backward(
    w: np.ndarray, layout: ModelLayout, x: np.ndarray, hidden, dlogits: np.ndarray
) -> np.ndarray:
    """Gradient of a scalar loss wrt w given d(loss)/d(logits); the leading
    axes broadcast as in _forward. Writes only into arrays it allocates; each
    layer's products land straight in the gradient's views of that layer."""
    grad = np.empty_like(w)
    *hidden_grads, (grad_weight, grad_bias) = _layers(grad, layout)
    inputs = x
    for grad_w1, grad_b1 in hidden_grads:  # the tanh layer, when there is one
        dpre = hidden * hidden
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dlogits @ _layers(w, layout)[-1][0].swapaxes(-1, -2)
        np.matmul(x.swapaxes(-1, -2), dpre, out=grad_w1)
        grad_b1[...] = _batch_sum(dpre)
        inputs = hidden
    np.matmul(inputs.swapaxes(-1, -2), dlogits, out=grad_weight)
    grad_bias[...] = _batch_sum(dlogits)
    return grad


def loss_and_grad(
    w: np.ndarray,
    layout: ModelLayout,
    x: np.ndarray,
    y: np.ndarray,
    *,
    rho: float = 0.0,
    nu: float = 0.0,
    teacher_logits: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
    distill_loss: str = "soft_ce",
    distill_temperature: float = 1.0,
) -> tuple[LossBreakdown, np.ndarray]:
    """Composite loss and its exact gradient over one batch.

    teacher_logits must be given exactly when rho > 0, and anchor exactly
    when nu > 0. Raises FloatingPointError if the result is non-finite.
    """
    if len(y) == 0:
        raise ValueError("empty batch")
    _check_loss_terms(rho, nu, anchor, distill_loss)
    if (teacher_logits is not None) != (rho > 0):
        raise ValueError("teacher_logits must be passed exactly when rho > 0")

    n = len(y)
    logits, hidden = _forward(w, layout, x)
    log_p = _log_softmax(logits)
    supervised = float(-log_p[np.arange(n), y].mean())

    distill = 0.0
    if rho > 0:
        if teacher_logits.shape != logits.shape:
            raise ValueError(
                f"teacher_logits shape {teacher_logits.shape} != logits shape {logits.shape}"
            )
        if distill_loss == "soft_ce":
            q = softmax(teacher_logits / distill_temperature)
            distill = float(-(q * log_p).sum(axis=1).mean())
        else:
            diff = logits - teacher_logits
            distill = float(0.5 * (diff * diff).sum(axis=1).mean())

    proximal = 0.0
    if nu > 0:
        if anchor.shape != w.shape:
            raise ValueError(f"anchor shape {anchor.shape} != parameter shape {w.shape}")
        diff_w = w - anchor
        proximal = float(0.5 * diff_w @ diff_w)

    grad = _grad(
        w, layout, x, y, n, logits, hidden, teacher_logits, rho=rho, nu=nu, anchor=anchor,
        distill_loss=distill_loss, distill_temperature=distill_temperature,
    )
    total = supervised + rho * distill + nu * proximal
    if not np.isfinite(total) or not np.isfinite(grad).all():
        raise FloatingPointError(
            f"non-finite loss or gradient (supervised={supervised}, distill={distill}, "
            f"proximal={proximal})"
        )
    return LossBreakdown(supervised, distill, proximal, total), grad


class TrainingDiverged(FloatingPointError):
    """Local SGD left non-finite weights. member is the client's position in
    the stacked call."""

    def __init__(self, member: int) -> None:
        super().__init__(f"local SGD left non-finite weights (cohort member {member})")
        self.member = member


def _check_loss_terms(rho, nu, anchor, distill_loss) -> None:
    """The loss-term rules of loss_and_grad and local_sgd; each checks its own teacher."""
    if rho < 0 or nu < 0:
        raise ValueError(f"rho and nu must be >= 0, got rho={rho}, nu={nu}")
    if (anchor is not None) != (nu > 0):
        raise ValueError("anchor must be passed exactly when nu > 0")
    if distill_loss not in ("soft_ce", "logit_mse"):
        raise ValueError(f"unknown distill_loss: {distill_loss!r}")


def _check_training_args(
    n_min, eta_l, batch_size, steps_min, rho, nu, teacher, anchor, distill_loss
) -> None:
    if steps_min < 1:
        raise ValueError(f"steps must be >= 1, got {steps_min}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if eta_l < 0:
        raise ValueError(f"eta_l must be >= 0, got {eta_l}")
    if n_min == 0:
        raise ValueError("empty shard")
    _check_loss_terms(rho, nu, anchor, distill_loss)
    if rho > 0 and teacher is None:
        raise ValueError("teacher_ws required when rho > 0")


def _grad(
    w, layout, x, y, n, logits, hidden, t_logits, *, rho, nu, anchor, distill_loss,
    distill_temperature,
) -> np.ndarray:
    """The gradient loss_and_grad and training share, given the forward pass
    (logits, hidden) of x under w and, when rho > 0, the teacher's t_logits.

    x is one batch (n, d_in) under w (P,), or stacked batches (B, n, d_in)
    under w (B, P). n divides every example's term: the batch length, or an
    array broadcasting against (B, n, 1) that holds each batch's length on
    its real rows and inf on padding rows, which then add nothing.
    """
    probs = np.exp(_log_softmax(logits))
    if rho > 0:
        if distill_loss == "soft_ce":
            pull = rho * (probs - softmax(t_logits / distill_temperature)) / n
        else:
            pull = rho * (logits - t_logits) / n
    # probs minus the one-hot labels, in place
    rows = probs.reshape(-1, layout.n_classes)
    rows[np.arange(len(rows)), y.ravel()] -= 1.0
    dlogits = probs / n
    if rho > 0:
        dlogits += pull
    grad = _backward(w, layout, x, hidden, dlogits)
    if nu > 0:
        grad += nu * (w - anchor)
    return grad


def _sgd_grad(
    w, layout, x, y, n, *, rho, nu, teacher_w, anchor, distill_loss, distill_temperature
) -> np.ndarray:
    """Training's gradient: _grad after the forward passes of x under w and,
    when rho > 0, under teacher_w (shaped like w); no checks or loss values,
    so the finite-difference check of loss_and_grad covers its arithmetic."""
    logits, hidden = _forward(w, layout, x)
    t_logits = _forward(teacher_w, layout, x)[0] if rho > 0 else None
    return _grad(
        w, layout, x, y, n, logits, hidden, t_logits, rho=rho, nu=nu, anchor=anchor,
        distill_loss=distill_loss, distill_temperature=distill_temperature,
    )


def draw_batch_plan(gen, n: int, steps: int, batch_size: int) -> np.ndarray:
    """The batch plan of a member that takes steps batch_size-chunks of its n
    rows, and the one copy of its draw rule: one gen.permutation(n) per
    epoch it starts, the epochs following one another. Rows are the
    member's own, 0 to n - 1."""
    epochs = -(-steps // -(-n // batch_size))
    if epochs == 1:
        return gen.permutation(n)
    return np.concatenate([gen.permutation(n) for _ in range(epochs)])


def _cohort_plan(starts, sizes, batch_size: int, steps, plans):
    """Every member's batches, stacked by step.

    Member i takes steps[i] batches of its sizes[i] rows from starts[i] on,
    walking its plans[i] (draw_batch_plan) in batch_size chunks an epoch at
    a time, so its last epoch may stop early.
    Returns (order, index, lengths). order sorts the members by descending
    step count, so the members with an s-th batch are a prefix of it.
    index (n_steps, B, batch_size) holds rows of the array the starts point
    into; a short chunk is padded with row 0. lengths (n_steps, B) is the
    number of real rows, 0 once a member has finished.
    """
    order = np.argsort(-np.asarray(steps), kind="stable")
    starts, sizes, n_steps = (np.asarray(a)[order] for a in (starts, sizes, steps))
    per_epoch = -(-sizes // batch_size)
    # a plan holds one n-entry shuffle per epoch its member starts
    counts = sizes * -(-n_steps // per_epoch)
    plans = [plans[i] for i in order.tolist()]
    if [len(p) for p in plans] != counts.tolist():
        raise ValueError("a plan must hold one shuffle of its member's rows per epoch it starts")
    local = np.concatenate(plans)
    member = np.repeat(np.arange(len(sizes)), counts)
    block_start = np.cumsum(counts) - counts
    epoch, pos = np.divmod(np.arange(len(member)) - block_start[member], sizes[member])
    step = epoch * per_epoch[member] + pos // batch_size
    keep = step < n_steps[member]  # the last epoch may stop early
    if not keep.all():
        member, step, pos, local = member[keep], step[keep], pos[keep], local[keep]
    index = np.zeros((n_steps[0], len(sizes), batch_size), dtype=np.intp)
    index[step, member, pos % batch_size] = local + starts[member]
    lengths = np.bincount(step * len(sizes) + member, minlength=index.shape[0] * len(sizes))
    return order, index, lengths.reshape(index.shape[:2])


def local_sgd(
    w0: np.ndarray,
    layout: ModelLayout,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    starts: list[int],
    sizes: list[int],
    eta_l: float,
    batch_size: int,
    steps: list[int],
    plans: list[np.ndarray],
    rho: float = 0.0,
    nu: float = 0.0,
    teacher_ws: list[np.ndarray] | None = None,
    anchor: np.ndarray | None = None,
    distill_loss: str = "soft_ce",
    distill_temperature: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Mini-batch local SGD of B members as one stacked loop.

    w0 holds the start weights, shared (P,) or one row per member (B, P),
    and anchor (when nu > 0) the proximal anchors, shaped the same way.
    Member i trains on the sizes[i] rows of features and labels from row
    starts[i] on, for steps[i] steps, distilling against the fixed
    teacher_ws[i]; members may share rows, and no shard is copied. A lone
    client is a one-member call. Member i walks its batch plan plans[i]
    (draw_batch_plan: one shuffle of its rows per epoch) in contiguous
    chunks, the last of an epoch maybe short, and stops after steps[i]
    steps. The batches and steps are those of B one-member calls with the
    same plans, and the weights the same up to float summation order.
    Step s trains every member that has an s-th batch as one stacked batch;
    short chunks are padded to batch_size with rows that add nothing.
    Returns (w_final (B, P) in member order, steps, examples), the last two
    the call's totals over its members. The weights are checked once, at the
    end: TrainingDiverged names the first member whose weights are not finite.
    """
    _check_training_args(
        min(sizes), eta_l, batch_size, min(steps), rho, nu, teacher_ws, anchor, distill_loss
    )
    order, index, lengths = _cohort_plan(starts, sizes, batch_size, steps, plans)
    n_active = (lengths > 0).sum(axis=1)
    real = np.arange(batch_size) < lengths[..., None]
    divisor = np.where(real, lengths[..., None], np.inf)[..., None]
    teachers = np.stack([teacher_ws[i] for i in order]) if rho > 0 else None
    # each member's start weights and anchor, in step order
    w = w0[order] if w0.ndim == 2 else np.repeat(w0[None, :], len(sizes), axis=0)
    anchors = None if anchor is None else np.broadcast_to(anchor, w.shape)[order]
    with np.errstate(over="ignore", invalid="ignore"):
        for s, a in enumerate(n_active):
            idx = index[s, :a]
            g = _sgd_grad(
                w[:a],
                layout,
                features.take(idx, axis=0),
                labels.take(idx, axis=0),
                divisor[s, :a],
                rho=rho,
                nu=nu,
                teacher_w=None if teachers is None else teachers[:a],
                anchor=None if anchors is None else anchors[:a],
                distill_loss=distill_loss,
                distill_temperature=distill_temperature,
            )
            g *= eta_l
            w[:a] -= g
    inverse = np.argsort(order)
    w_final = w[inverse]
    if not np.isfinite(w_final).all():
        raise TrainingDiverged(int(np.argmin(np.isfinite(w_final).all(axis=1))))
    return w_final, int(n_active.sum()), int(lengths.sum())
