"""Flat-parameter classifier with composite loss and local SGD.

Parameters live in a single float64 vector so server optimizers and delta
arithmetic stay plain array operations. The model is either a linear softmax
classifier or a one-hidden-layer tanh network. The training loss is

    total = supervised + rho * distill + nu * proximal

where supervised is mean softmax cross-entropy, distill compares student
logits against fixed teacher logits (soft cross-entropy by default, logit
mean-squared-error as an alternative), and proximal is half the squared
distance to an anchor vector. All gradients are exact analytic expressions.
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
    d, c = layout.d_in, layout.n_classes
    weight = w[: d * c].reshape(d, c)
    bias = w[d * c : d * c + c]
    return weight, bias


def _unpack_mlp(w: np.ndarray, layout: ModelLayout):
    d, h, c = layout.d_in, layout.hidden, layout.n_classes
    i = 0
    w1 = w[i : i + d * h].reshape(d, h)
    i += d * h
    b1 = w[i : i + h]
    i += h
    w2 = w[i : i + h * c].reshape(h, c)
    i += h * c
    b2 = w[i : i + c]
    return w1, b1, w2, b2


def _forward(w: np.ndarray, layout: ModelLayout, x: np.ndarray):
    """Returns (logits, hidden_activations_or_None) for a 2-D batch."""
    if layout.hidden == 0:
        weight, bias = _unpack_linear(w, layout)
        return x @ weight + bias, None
    w1, b1, w2, b2 = _unpack_mlp(w, layout)
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


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
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _backward(
    w: np.ndarray, layout: ModelLayout, x: np.ndarray, hidden, dlogits: np.ndarray
) -> np.ndarray:
    """Gradient of a scalar loss wrt w given d(loss)/d(logits)."""
    grad = np.empty_like(w)
    if layout.hidden == 0:
        d, c = layout.d_in, layout.n_classes
        grad[: d * c] = (x.T @ dlogits).ravel()
        grad[d * c :] = dlogits.sum(axis=0)
        return grad
    w1, b1, w2, b2 = _unpack_mlp(w, layout)
    d, h, c = layout.d_in, layout.hidden, layout.n_classes
    dhidden = dlogits @ w2.T
    dpre = dhidden * (1.0 - hidden * hidden)
    i = 0
    grad[i : i + d * h] = (x.T @ dpre).ravel()
    i += d * h
    grad[i : i + h] = dpre.sum(axis=0)
    i += h
    grad[i : i + h * c] = (hidden.T @ dlogits).ravel()
    i += h * c
    grad[i : i + c] = dlogits.sum(axis=0)
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
    """Mini-batch SGD over a shard; exactly one of epochs/steps bounds it.

    Each epoch reshuffles with gen.permutation and walks contiguous chunks
    (last chunk may be short). In steps mode, epochs are consumed lazily
    until the step budget runs out. Teacher logits are computed per batch
    from the fixed teacher_w. Returns (w_final, steps_done, examples_processed).
    """
    if (epochs is None) == (steps is None):
        raise ValueError("pass exactly one of epochs or steps")
    if epochs is not None and epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if eta_l < 0:
        raise ValueError(f"eta_l must be >= 0, got {eta_l}")
    n = len(labels)
    if n == 0:
        raise ValueError("empty shard")
    if rho > 0 and teacher_w is None:
        raise ValueError("teacher_w required when rho > 0")

    w = w0.copy()
    steps_done = examples = epochs_done = 0
    while epochs_done != epochs:
        perm = gen.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            batch_x = features[idx]
            t_logits = forward_logits(teacher_w, layout, batch_x) if rho > 0 else None
            _, grad = loss_and_grad(
                w,
                layout,
                batch_x,
                labels[idx],
                rho=rho,
                nu=nu,
                teacher_logits=t_logits,
                anchor=anchor,
                distill_loss=distill_loss,
                distill_temperature=distill_temperature,
            )
            w -= eta_l * grad
            steps_done += 1
            examples += len(idx)
            if steps_done == steps:
                return w, steps_done, examples
        epochs_done += 1
    return w, steps_done, examples


def predict(w: np.ndarray, layout: ModelLayout, x: np.ndarray) -> np.ndarray:
    """Predicted class indices; argmax ties resolve to the lowest index."""
    logits = forward_logits(w, layout, x)
    return np.argmax(logits, axis=1)


def accuracy(w: np.ndarray, layout: ModelLayout, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of correct argmax predictions; raises on an empty split."""
    if len(y) == 0:
        raise ValueError("cannot score an empty split")
    return float((predict(w, layout, x) == y).mean())
