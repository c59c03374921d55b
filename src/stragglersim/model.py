"""Flat-parameter classifier with composite loss and local SGD.

Parameters live in a single float64 vector so server optimizers and delta
arithmetic stay plain array operations. The model is either a linear softmax
classifier or a one-hidden-layer tanh network. The training loss is

    total = supervised + rho * distill + nu * proximal

where supervised is mean softmax cross-entropy, distill compares student
logits against fixed teacher logits (soft cross-entropy by default, logit
mean-squared-error as an alternative), and proximal is half the squared
distance to an anchor vector. All gradients are exact analytic expressions.

The gradient has one implementation, _grad. loss_and_grad, the validated
reference, adds argument checks and the loss terms; training reaches _grad
through _sgd_grad, which adds neither. So the finite-difference check of
loss_and_grad covers the arithmetic training runs. Training has one
function, local_sgd: the clients of one model version start from the same
weights and train as one stacked computation, and a lone client is a
one-member call. Each client runs a given number of steps; E epochs of an
n-example shard are E * ceil(n / b) steps. A client's rows are a start row
and a size in one features/labels pair (the dataset's own, in a
simulation), so no shard is copied per call. The weights are checked for
finiteness once, at the end.
Forward and backward passes write only into arrays they allocate (or, for
an evaluation's forward pass, buffers its caller passes), in place after
each matmul, never into the weights, features or teachers passed in.
"""

from __future__ import annotations

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

    @property
    def n_params(self) -> int:
        if self.hidden == 0:
            return self.d_in * self.n_classes + self.n_classes
        return (
            self.d_in * self.hidden
            + self.hidden
            + self.hidden * self.n_classes
            + self.n_classes
        )


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


def _unpack_linear(w: np.ndarray, layout: ModelLayout):
    """Views of w (P,) or of a stack (B, P): weight (..., d, c), bias (..., 1, c)."""
    d, c = layout.d_in, layout.n_classes
    lead = w.shape[:-1]
    weight = w[..., : d * c].reshape(lead + (d, c))
    bias = w[..., d * c : d * c + c].reshape(lead + (1, c))
    return weight, bias


def _unpack_mlp(w: np.ndarray, layout: ModelLayout):
    d, h, c = layout.d_in, layout.hidden, layout.n_classes
    lead = w.shape[:-1]
    i = 0
    w1 = w[..., i : i + d * h].reshape(lead + (d, h))
    i += d * h
    b1 = w[..., i : i + h].reshape(lead + (1, h))
    i += h
    w2 = w[..., i : i + h * c].reshape(lead + (h, c))
    i += h * c
    b2 = w[..., i : i + c].reshape(lead + (1, c))
    return w1, b1, w2, b2


def _forward(w: np.ndarray, layout: ModelLayout, x: np.ndarray, out=None):
    """Returns (logits, hidden_activations_or_None) for a batch x (n, d_in)
    under w (P,), or for stacked batches x (B, n, d_in) under w (B, P).

    Each step after a matmul works in place on the array that matmul made,
    never on w or x, so a pass holds one (n, hidden) and one (n, c) array.
    out, when given, is that pair, (n, hidden) or None for the linear model
    and (n, c): the matmuls write into it instead of allocating."""
    hidden_out, logits_out = (None, None) if out is None else out
    if layout.hidden == 0:
        weight, bias = _unpack_linear(w, layout)
        logits = np.matmul(x, weight, out=logits_out)
        logits += bias
        return logits, None
    w1, b1, w2, b2 = _unpack_mlp(w, layout)
    hidden = np.matmul(x, w1, out=hidden_out)
    hidden += b1
    np.tanh(hidden, out=hidden)
    logits = np.matmul(hidden, w2, out=logits_out)
    logits += b2
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _backward(
    w: np.ndarray, layout: ModelLayout, x: np.ndarray, hidden, dlogits: np.ndarray
) -> np.ndarray:
    """Gradient of a scalar loss wrt w given d(loss)/d(logits); the leading
    axes broadcast as in _forward. Writes only into arrays it allocates."""
    grad = np.empty_like(w)
    lead = w.shape[:-1]
    x_t = x.swapaxes(-1, -2)
    if layout.hidden == 0:
        d, c = layout.d_in, layout.n_classes
        grad[..., : d * c] = (x_t @ dlogits).reshape(lead + (d * c,))
        grad[..., d * c :] = dlogits.sum(axis=-2)
        return grad
    w1, b1, w2, b2 = _unpack_mlp(w, layout)
    d, h, c = layout.d_in, layout.hidden, layout.n_classes
    dhidden = dlogits @ w2.swapaxes(-1, -2)
    dpre = hidden * hidden
    np.subtract(1.0, dpre, out=dpre)
    dpre *= dhidden
    i = 0
    grad[..., i : i + d * h] = (x_t @ dpre).reshape(lead + (d * h,))
    i += d * h
    grad[..., i : i + h] = dpre.sum(axis=-2)
    i += h
    grad[..., i : i + h * c] = (hidden.swapaxes(-1, -2) @ dlogits).reshape(lead + (h * c,))
    i += h * c
    grad[..., i : i + c] = dlogits.sum(axis=-2)
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
    if rho < 0 or nu < 0:
        raise ValueError(f"rho and nu must be >= 0, got rho={rho}, nu={nu}")
    if (teacher_logits is not None) != (rho > 0):
        raise ValueError("teacher_logits must be passed exactly when rho > 0")
    if (anchor is not None) != (nu > 0):
        raise ValueError("anchor must be passed exactly when nu > 0")
    if distill_loss not in ("soft_ce", "logit_mse"):
        raise ValueError(f"unknown distill_loss: {distill_loss!r}")

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
    if rho < 0 or nu < 0:
        raise ValueError(f"rho and nu must be >= 0, got rho={rho}, nu={nu}")
    if rho > 0 and teacher is None:
        raise ValueError("teacher_ws required when rho > 0")
    if (anchor is not None) != (nu > 0):
        raise ValueError("anchor must be passed exactly when nu > 0")
    if distill_loss not in ("soft_ce", "logit_mse"):
        raise ValueError(f"unknown distill_loss: {distill_loss!r}")


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
    when rho > 0, under teacher_w (shaped like w); no checks or loss values."""
    logits, hidden = _forward(w, layout, x)
    t_logits = _forward(teacher_w, layout, x)[0] if rho > 0 else None
    return _grad(
        w, layout, x, y, n, logits, hidden, t_logits, rho=rho, nu=nu, anchor=anchor,
        distill_loss=distill_loss, distill_temperature=distill_temperature,
    )


def _cohort_plan(starts, sizes, batch_size: int, steps, gens):
    """Every member's batches, stacked by step.

    Member i takes steps[i] batches of its sizes[i] rows from starts[i] on:
    per epoch it starts, its gen shuffles an arange(n) in place (the draws
    gen.permutation(n) makes), walked in batch_size chunks, so its last
    epoch may stop early. Members draw in member order, so a client listed
    twice (sharing one gen) draws its batches in the order it was listed.
    Returns (order, index, lengths). order sorts the members by descending
    step count, so the members with an s-th batch are a prefix of it.
    index (n_steps, B, batch_size) holds rows of the array the starts point
    into; a short chunk is padded with row 0. lengths (n_steps, B) is the
    number of real rows, 0 once a member has finished.
    """
    order = np.argsort(-np.asarray(steps), kind="stable")
    starts, sizes, n_steps = (np.asarray(a)[order] for a in (starts, sizes, steps))
    per_epoch = -(-sizes // batch_size)
    n_epochs = -(-n_steps // per_epoch)
    # Plan position, epoch and place in the epoch of every entry of a buffer
    # holding, in plan order, one arange(n) per epoch each member starts.
    counts = sizes * n_epochs
    member = np.repeat(np.arange(len(sizes)), counts)
    block_start = np.cumsum(counts) - counts
    epoch, pos = np.divmod(np.arange(len(member)) - block_start[member], sizes[member])
    local = pos.copy()
    blocks = list(zip(block_start.tolist(), counts.tolist(), sizes.tolist()))
    for gen, p in zip(gens, np.argsort(order).tolist()):  # member order
        first, count, n = blocks[p]
        for a in range(first, first + count, n):
            gen.shuffle(local[a : a + n])
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
    gens: list[np.random.Generator],
    rho: float = 0.0,
    nu: float = 0.0,
    teacher_ws: list[np.ndarray] | None = None,
    anchor: np.ndarray | None = None,
    distill_loss: str = "soft_ce",
    distill_temperature: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Mini-batch local SGD of B members from one w0, as one stacked loop.

    Member i trains on the sizes[i] rows of features and labels from row
    starts[i] on, for steps[i] steps, distilling against the fixed
    teacher_ws[i]; members may share rows. Each epoch reshuffles with
    gens[i] (the draws gen.permutation makes) and walks contiguous chunks,
    the last of which may be short; the last epoch stops after steps[i]
    steps. The batches and steps are those of B one-member calls made in
    member order, and the weights the same up to float summation order.
    Step s trains every member that has an s-th batch as one stacked batch;
    short chunks are padded to batch_size with rows that add nothing.
    Returns (w_final (B, P) in member order, steps, examples), the last two
    the call's totals over its members. Raises TrainingDiverged naming the
    first member whose weights are not finite.
    """
    _check_training_args(
        min(sizes), eta_l, batch_size, min(steps), rho, nu, teacher_ws, anchor, distill_loss
    )
    order, index, lengths = _cohort_plan(starts, sizes, batch_size, steps, gens)
    n_active = (lengths > 0).sum(axis=1)
    real = np.arange(batch_size) < lengths[..., None]
    divisor = np.where(real, lengths[..., None], np.inf)[..., None]
    teachers = np.stack([teacher_ws[i] for i in order]) if rho > 0 else None

    w = np.repeat(w0[None, :], len(sizes), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, a in enumerate(n_active):
            idx = index[s, :a]
            g = _sgd_grad(
                w[:a],
                layout,
                features[idx],
                labels[idx],
                divisor[s, :a],
                rho=rho,
                nu=nu,
                teacher_w=None if teachers is None else teachers[:a],
                anchor=anchor,
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
