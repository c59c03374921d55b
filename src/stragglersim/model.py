"""Flat-parameter classifier with composite loss and local SGD.

Parameters live in a single float64 vector so server optimizers and delta
arithmetic stay plain array operations. The model is either a linear softmax
classifier or a one-hidden-layer tanh network. The training loss is

    total = supervised + rho * distill + nu * proximal

where supervised is mean softmax cross-entropy, distill compares student
logits against fixed teacher logits (soft cross-entropy by default, logit
mean-squared-error as an alternative), and proximal is half the squared
distance to an anchor vector. All gradients are exact analytic expressions.

loss_and_grad is the validated reference that also returns the loss terms.
Training has one loop, local_sgd_cohort: the clients of one model version
start from the same weights and train as one stacked computation over a
private gradient kernel without checks or loss values; local_sgd is its
one-client form. The weights are checked for finiteness once, at the end.
Forward and backward passes write only into arrays they allocate, in place
after each matmul, never into the weights, features or teachers passed in.
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


def _forward(w: np.ndarray, layout: ModelLayout, x: np.ndarray):
    """Returns (logits, hidden_activations_or_None) for a batch x (n, d_in)
    under w (P,), or for stacked batches x (B, n, d_in) under w (B, P).

    Each step after a matmul works in place on the array that matmul made,
    never on w or x, so a pass holds one (n, hidden) and one (n, c) array."""
    if layout.hidden == 0:
        weight, bias = _unpack_linear(w, layout)
        logits = x @ weight
        logits += bias
        return logits, None
    w1, b1, w2, b2 = _unpack_mlp(w, layout)
    hidden = x @ w1
    hidden += b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ w2
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
    probs = np.exp(log_p)

    supervised = float(-log_p[np.arange(n), y].mean())
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    dlogits = (probs - onehot) / n

    distill = 0.0
    if rho > 0:
        if teacher_logits.shape != logits.shape:
            raise ValueError(
                f"teacher_logits shape {teacher_logits.shape} != logits shape {logits.shape}"
            )
        if distill_loss == "soft_ce":
            temp = distill_temperature
            q = softmax(teacher_logits / temp)
            distill = float(-(q * log_p).sum(axis=1).mean())
            dlogits = dlogits + rho * (probs - q) / n
        else:
            diff = logits - teacher_logits
            distill = float(0.5 * (diff * diff).sum(axis=1).mean())
            dlogits = dlogits + rho * diff / n

    grad = _backward(w, layout, x, hidden, dlogits)

    proximal = 0.0
    if nu > 0:
        if anchor.shape != w.shape:
            raise ValueError(f"anchor shape {anchor.shape} != parameter shape {w.shape}")
        diff_w = w - anchor
        proximal = float(0.5 * diff_w @ diff_w)
        grad += nu * diff_w

    total = supervised + rho * distill + nu * proximal
    if not np.isfinite(total) or not np.isfinite(grad).all():
        raise FloatingPointError(
            f"non-finite loss or gradient (supervised={supervised}, distill={distill}, "
            f"proximal={proximal})"
        )
    return LossBreakdown(supervised, distill, proximal, total), grad


class TrainingDiverged(FloatingPointError):
    """Local SGD left non-finite weights. member is the client's position in
    the stacked call (0 for local_sgd)."""

    def __init__(self, member: int) -> None:
        super().__init__(f"local SGD left non-finite weights (cohort member {member})")
        self.member = member


def _check_training_args(
    n_min, eta_l, batch_size, epochs, steps_min, rho, nu, teacher, anchor, distill_loss
) -> None:
    if (epochs is None) == (steps_min is None):
        raise ValueError("pass exactly one of epochs or steps")
    if epochs is not None and epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if steps_min is not None and steps_min < 1:
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
        raise ValueError("teacher_w required when rho > 0")
    if (anchor is not None) != (nu > 0):
        raise ValueError("anchor must be passed exactly when nu > 0")
    if distill_loss not in ("soft_ce", "logit_mse"):
        raise ValueError(f"unknown distill_loss: {distill_loss!r}")


def _check_finite(w_final: np.ndarray) -> None:
    """Raise TrainingDiverged for the first non-finite row of w_final (B, P),
    or for w_final (P,) itself."""
    if not np.isfinite(w_final).all():
        raise TrainingDiverged(int(np.argmin(np.isfinite(w_final).all(axis=-1))))


def _sgd_grad(
    w, layout, x, y, n, *, rho, nu, teacher_w, anchor, distill_loss, distill_temperature
) -> np.ndarray:
    """loss_and_grad's gradient without its checks and loss values.

    Takes one batch x (n, d_in) under w (P,), or stacked batches x (B, n,
    d_in) under w (B, P) and teacher_w (B, P). n divides every example's
    term: the batch length, or an array broadcasting against (B, n, 1) that
    holds each batch's length on its real rows and inf on padding rows,
    which then add nothing.
    """
    logits, hidden = _forward(w, layout, x)
    probs = np.exp(_log_softmax(logits))
    if rho > 0:
        t_logits, _ = _forward(teacher_w, layout, x)
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


def local_sgd(
    w0: np.ndarray,
    layout: ModelLayout,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    eta_l: float,
    batch_size: int,
    epochs: int | None = None,
    steps: int | None = None,
    gen: np.random.Generator,
    rho: float = 0.0,
    nu: float = 0.0,
    teacher_w: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
    distill_loss: str = "soft_ce",
    distill_temperature: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Mini-batch SGD over one shard: local_sgd_cohort with one member.

    Exactly one of epochs/steps bounds it. Each epoch reshuffles with
    gen.permutation and walks contiguous chunks (last chunk may be short).
    In steps mode, epochs are consumed lazily until the step budget runs
    out. Teacher logits come from the fixed teacher_w. Returns (w_final,
    steps_done, examples_processed). Raises TrainingDiverged, a
    FloatingPointError, if w_final is not finite.
    """
    w_final, steps_done, examples = local_sgd_cohort(
        w0,
        layout,
        [features],
        [labels],
        eta_l=eta_l,
        batch_size=batch_size,
        epochs=epochs,
        steps=None if steps is None else [steps],
        gens=[gen],
        rho=rho,
        nu=nu,
        teacher_ws=None if teacher_w is None else [teacher_w],
        anchor=anchor,
        distill_loss=distill_loss,
        distill_temperature=distill_temperature,
    )
    return w_final[0], steps_done[0], examples[0]


def _cohort_plan(sizes, batch_size: int, epochs: int | None, steps, gens):
    """Every member's batches, stacked by step.

    Each member draws one permutation per epoch from its gen and walks it
    in batch_size chunks. Members draw in member order, so a client listed
    twice (sharing one gen) draws its batches in the order it was listed.
    Returns (order, index, lengths). order sorts the members by descending
    step count, so the members with an s-th batch are a prefix of it.
    index (n_steps, B, batch_size) holds rows of the shards concatenated in
    that order; a short chunk is padded with row 0. lengths (n_steps, B) is
    the number of real rows, 0 once a member has finished.
    """
    sizes = np.asarray(sizes)
    per_epoch = -(-sizes // batch_size)
    if steps is None:
        n_steps = epochs * per_epoch
        n_epochs = np.full(len(sizes), epochs)
    else:
        n_steps = np.asarray(steps)
        n_epochs = -(-n_steps // per_epoch)
    perms = [[gen.permutation(n) for _ in range(e)] for gen, n, e in zip(gens, sizes, n_epochs)]
    order = np.argsort(-n_steps, kind="stable")
    sizes, per_epoch, n_epochs, n_steps = (a[order] for a in (sizes, per_epoch, n_epochs, n_steps))
    local = np.concatenate([p for i in order for p in perms[i]])
    # Client, epoch and position of every drawn index.
    counts = sizes * n_epochs
    client = np.repeat(np.arange(len(sizes)), counts)
    run_start = np.repeat(np.cumsum(counts) - counts, counts)
    epoch, pos = np.divmod(np.arange(len(local)) - run_start, sizes[client])
    step = epoch * per_epoch[client] + pos // batch_size
    keep = step < n_steps[client]  # steps mode may stop inside an epoch
    client, step, col = client[keep], step[keep], pos[keep] % batch_size
    shard_start = np.cumsum(sizes) - sizes
    index = np.zeros((n_steps[0], len(sizes), batch_size), dtype=np.intp)
    index[step, client, col] = local[keep] + shard_start[client]
    lengths = np.zeros((n_steps[0], len(sizes)), dtype=np.intp)
    np.add.at(lengths, (step, client), 1)
    return order, index, lengths


def local_sgd_cohort(
    w0: np.ndarray,
    layout: ModelLayout,
    features: list[np.ndarray],
    labels: list[np.ndarray],
    *,
    eta_l: float,
    batch_size: int,
    epochs: int | None = None,
    steps: list[int] | None = None,
    gens: list[np.random.Generator],
    rho: float = 0.0,
    nu: float = 0.0,
    teacher_ws: list[np.ndarray] | None = None,
    anchor: np.ndarray | None = None,
    distill_loss: str = "soft_ce",
    distill_temperature: float = 1.0,
) -> tuple[np.ndarray, list[int], list[int]]:
    """Local SGD of B members from one w0, trained as one stacked loop.

    Member i trains on features[i] and labels[i], shuffled by gens[i], for
    epochs or for steps[i] steps, distilling against teacher_ws[i]. It
    draws the same batches and takes the same steps as B one-member calls
    made in member order, and ends at the same weights up to float
    summation order. Step s trains every member that has an s-th batch as
    one stacked batch; short chunks are padded to batch_size with rows that
    add nothing. Returns (w_final (B, P), steps_done, examples_processed),
    in member order. Raises TrainingDiverged naming the first member whose
    weights are not finite.
    """
    sizes = [len(y) for y in labels]
    steps_min = None if steps is None else min(steps)
    _check_training_args(
        min(sizes), eta_l, batch_size, epochs, steps_min, rho, nu, teacher_ws, anchor, distill_loss
    )
    order, index, lengths = _cohort_plan(sizes, batch_size, epochs, steps, gens)
    x_all = np.concatenate([features[i] for i in order])
    y_all = np.concatenate([labels[i] for i in order])
    n_active = (lengths > 0).sum(axis=1)
    real = np.arange(batch_size) < lengths[..., None]
    divisor = np.where(real, lengths[..., None], np.inf)[..., None]
    teachers = np.stack([teacher_ws[i] for i in order]) if rho > 0 else None

    w = np.repeat(w0[None, :], len(sizes), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for s, a in enumerate(n_active):
            idx = index[s, :a]
            w[:a] -= eta_l * _sgd_grad(
                w[:a],
                layout,
                x_all[idx],
                y_all[idx],
                divisor[s, :a],
                rho=rho,
                nu=nu,
                teacher_w=None if teachers is None else teachers[:a],
                anchor=anchor,
                distill_loss=distill_loss,
                distill_temperature=distill_temperature,
            )
    inverse = np.argsort(order)
    w_final = w[inverse]
    _check_finite(w_final)
    steps_done = (lengths > 0).sum(axis=0)[inverse]
    return w_final, steps_done.tolist(), lengths.sum(axis=0)[inverse].tolist()


def predict(w: np.ndarray, layout: ModelLayout, x: np.ndarray) -> np.ndarray:
    """Predicted class indices; argmax ties resolve to the lowest index."""
    logits = forward_logits(w, layout, x)
    return np.argmax(logits, axis=1)


def accuracy(w: np.ndarray, layout: ModelLayout, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of correct argmax predictions; raises on an empty split."""
    if len(y) == 0:
        raise ValueError("cannot score an empty split")
    return float((predict(w, layout, x) == y).mean())
