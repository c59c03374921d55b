"""Synthetic federated classification data with straggler partitioning.

Each class is an isotropic Gaussian cluster in feature space. Clients get
lognormal-sized shards with Dirichlet-skewed class mixtures, which makes the
population non-IID in a controllable way. A straggler partition
(_partition) then leaves the designated straggler classes on straggler
clients alone. build_dataset is the one way to make a dataset.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng

logger = logging.getLogger(__name__)

# Rows per block when class centers are added to noise in place.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DatasetConfig:
    """Generation parameters for a synthetic federated dataset."""

    n_classes: int = 10
    d_in: int = 16
    m_clients: int = 400
    median_shard_size: float = 30.0
    size_sigma: float = 0.5
    concentration: float = 10.0
    cluster_spread: float = 1.0
    center_scale: float = 1.0
    class_mixture: tuple[float, ...] | None = None
    eval_size: int = 4000
    straggler_classes: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_straggler_clients: int = 94

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.d_in < 1:
            raise ValueError(f"d_in must be >= 1, got {self.d_in}")
        if self.m_clients < 1:
            raise ValueError(f"m_clients must be >= 1, got {self.m_clients}")
        if self.median_shard_size <= 0:
            raise ValueError(f"median_shard_size must be > 0, got {self.median_shard_size}")
        if self.size_sigma < 0:
            raise ValueError(f"size_sigma must be >= 0, got {self.size_sigma}")
        if self.concentration <= 0:
            raise ValueError(f"concentration must be > 0, got {self.concentration}")
        if self.cluster_spread < 0:
            raise ValueError(f"cluster_spread must be >= 0, got {self.cluster_spread}")
        if self.eval_size < 1:
            raise ValueError(f"eval_size must be >= 1, got {self.eval_size}")
        if not self.straggler_classes:
            raise ValueError("straggler_classes must be nonempty")
        bad = [c for c in self.straggler_classes if not 0 <= c < self.n_classes]
        if bad:
            raise ValueError(f"straggler_classes out of range: {bad}")
        if not 0 <= self.n_straggler_clients <= self.m_clients:
            raise ValueError(
                f"n_straggler_clients must be in [0, m_clients], got {self.n_straggler_clients}"
            )
        if self.class_mixture is not None:
            if len(self.class_mixture) != self.n_classes:
                raise ValueError("class_mixture length must equal n_classes")
            if any(p < 0 for p in self.class_mixture) or sum(self.class_mixture) <= 0:
                raise ValueError("class_mixture must be nonnegative and sum to > 0")

    def mixture(self) -> np.ndarray:
        if self.class_mixture is None:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        p = np.asarray(self.class_mixture, dtype=np.float64)
        return p / p.sum()


@dataclass(frozen=True, eq=False)
class Shards:
    """The kept clients as four read-only columns, in ascending id order:
    client i's id, its start row and size in the dataset's kept arrays, and
    whether it is a straggler. The shards tile the kept arrays in this order."""

    ids: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    is_straggler: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class EvalSplit:
    """Held-out examples used for accuracy measurement."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class FederatedDataset:
    """Client shards, the kept rows they index, the eval split and its straggler rows."""

    shards: Shards
    features: np.ndarray
    labels: np.ndarray
    eval_total: EvalSplit
    eval_straggler_rows: np.ndarray
    dropped_clients: tuple[int, ...] = ()

    @property
    def n_clients(self) -> int:
        return len(self.shards)


def class_centers(config: DatasetConfig, seed: int) -> np.ndarray:
    """Per-class cluster centers, shared by training and eval generation."""
    gen = rng.stream(seed, rng.DATA, 0)
    return gen.standard_normal((config.n_classes, config.d_in)) * config.center_scale


def _generate(
    config: DatasetConfig, seed: int, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw population as (features, labels, sizes): rows client by client.

    Shard sizes are lognormal around the configured median (rounded, min 1);
    a client's class mixture is Dirichlet(concentration * global mixture).
    """
    mixture = config.mixture()

    size_gen = rng.stream(seed, rng.DATA, 1)
    z = size_gen.standard_normal(config.m_clients)
    sizes = np.exp(np.log(config.median_shard_size) + config.size_sigma * z)
    sizes = np.maximum(1, np.rint(sizes).astype(int))

    mix_gen = rng.stream(seed, rng.DATA, 2)
    alphas = config.concentration * mixture
    client_mixtures = mix_gen.dirichlet(alphas, size=config.m_clients)

    keys = rng.stream_keys(seed, rng.DATA, 3, ids=np.arange(config.m_clients))
    ends = np.cumsum(sizes).tolist()
    uniform = np.empty(ends[-1])
    features = np.empty((ends[-1], config.d_in))
    labels = np.zeros(ends[-1], dtype=np.int64)
    gen = rng.stream_from_key(keys[0])
    for key, a, b in zip(keys, [0, *ends], ends):
        rng.rekey(gen, key)
        _draw(gen, uniform[a:b], features[a:b])
    rng.recycle([gen])
    _label(client_mixtures, sizes, uniform, features, centers, config.cluster_spread, labels)
    return features, labels, sizes


def _draw(gen: np.random.Generator, uniform: np.ndarray, features: np.ndarray) -> None:
    """A block's draws from its stream, into arrays the caller made: uniform
    for its labels, then standard normals for its features."""
    gen.random(out=uniform)
    gen.standard_normal(out=features)


def _label(mixtures, sizes, uniform, features, centers, spread: float, labels) -> None:
    """Label drawn rows into labels, an int64 zero array the caller made,
    sizes[i] of them from mixtures[i] in turn, and make their noise the
    features centers[labels] + spread * noise, in place.

    A row's label is what gen.choice(n_classes, p=its mixture) draws from
    its uniform: the count of its cdf's entries (cumsum over its last entry)
    <= the uniform, choice's side "right" search since a cdf never
    decreases. The last entry, exactly 1.0, never counts; a column at a time
    keeps each temporary one row long.
    """
    cdf = np.cumsum(mixtures, axis=1)
    cdf /= cdf[:, -1:]
    for column in cdf[:, :-1].T:
        labels += np.repeat(column, sizes) <= uniform
    features *= spread
    _add_centers(features, centers, labels)


def _add_centers(features: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> None:
    """features += centers[labels], a block of rows at a time, so that the
    gathered centers never take a second array the size of features."""
    for start in range(0, len(labels), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        features[block] += centers[labels[block]]


def _class_table(straggler_classes, n_classes: int) -> np.ndarray:
    """bool[n_classes]: True at the straggler classes."""
    table = np.zeros(n_classes, dtype=bool)
    table[list(straggler_classes)] = True
    return table


def _partition(
    features: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    table: np.ndarray,
    n_straggler_clients: int,
) -> tuple[np.ndarray, np.ndarray, Shards, tuple[int, ...]]:
    """Flag the top-n straggler-class holders and purge those classes elsewhere.

    Takes a population stored client by client, sizes[i] rows for client i;
    table is True at the straggler classes. Clients rank by straggler-class
    example count, ties by ascending id; the top n keep all their examples
    and are flagged straggler. The others lose their straggler-class
    examples, through one boolean mask and one gather; a shard left empty
    is dropped, with one warning giving the count and a debug line giving
    the ids. Returns (the kept features and labels, read-only and client by
    client, their Shards, and the dropped ids).
    """
    owner = np.repeat(np.arange(len(sizes)), sizes)
    in_class = table[labels]
    counts = np.bincount(owner[in_class], minlength=len(sizes))
    flagged = np.zeros(len(sizes), dtype=bool)
    flagged[np.argsort(-counts, kind="stable")[:n_straggler_clients]] = True

    keep = flagged[owner]
    keep |= ~in_class
    kept = np.bincount(owner[keep], minlength=len(sizes))
    listed = flagged | (kept > 0)
    dropped = np.flatnonzero(~listed).tolist()
    features, labels = features[keep], labels[keep]
    ids, sizes = np.flatnonzero(listed), kept[listed]
    starts, is_straggler = np.cumsum(sizes) - sizes, flagged[listed]
    _read_only(features, labels, ids, starts, sizes, is_straggler)
    if dropped:
        logger.warning(
            "dropped %d standard shard(s) emptied by straggler-class removal", len(dropped)
        )
        logger.debug("dropped shard ids: %s", dropped)
    return features, labels, Shards(ids, starts, sizes, is_straggler), tuple(dropped)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def build_dataset(config: DatasetConfig, seed: int) -> FederatedDataset:
    """Generate, partition, and attach the eval split; validates invariants.

    Each step runs as array operations over the whole population, and every
    array of the result is read-only, so one dataset can serve many trials.
    One rule draws and labels every example, a client's and the eval
    split's: its stream draws a block's uniforms, then its standard normals
    (_draw), and _label turns the block into rows of the class clusters,
    each client's block from its own mixture, the eval split's from
    config.mixture() and its own stream (rng.EVAL). eval_straggler_rows are
    the ascending indices of the eval split's straggler-class rows.

    Two lanes build a dataset. A worker thread builds the whole eval split
    (its _draw, its _label and its straggler rows) while this thread
    generates and partitions the population; numpy releases the GIL while
    it fills an array, so the two overlap when a second core is free. The
    result is the serial one, bit for bit: the EVAL stream shares no state
    with the training streams. Rule: the worker builds the eval split from a
    generator and arrays that this thread made (its uniforms, features and
    labels: an array the worker allocated would outlive the build in the
    worker's malloc arena and raise the process's peak RSS), and it calls
    nothing the benchmark tracer patches (rng.stream and this function
    among them), so the tracer sees every call it counts on one thread. The
    worker is joined before this returns or raises; the checks and the
    read-only flags follow the join.
    """
    table = _class_table(config.straggler_classes, config.n_classes)
    centers = class_centers(config, seed)
    eval_gen = rng.stream(seed, rng.EVAL)
    uniform = np.empty(config.eval_size)
    eval_features = np.empty((config.eval_size, config.d_in))
    eval_labels = np.zeros(config.eval_size, dtype=np.int64)

    def eval_split() -> np.ndarray:
        _draw(eval_gen, uniform, eval_features)
        mixture, spread = config.mixture()[None], config.cluster_spread
        _label(mixture, [config.eval_size], uniform, eval_features, centers, spread, eval_labels)
        return np.flatnonzero(table[eval_labels])

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="eval-split") as worker:
        split = worker.submit(eval_split)
        features, labels, shards, dropped = _partition(
            *_generate(config, seed, centers), table, config.n_straggler_clients
        )
        eval_straggler_rows = split.result()
    _read_only(eval_features, eval_labels, eval_straggler_rows)

    if not shards:
        raise ValueError(
            "removing the straggler classes leaves no client shard; "
            "add straggler clients or keep some classes out of straggler_classes"
        )
    if config.n_straggler_clients > 0:
        rows = np.repeat(shards.is_straggler, shards.sizes)
        held = np.bincount(labels[rows], minlength=config.n_classes)
        missing = np.flatnonzero(table & (held == 0)).tolist()
        if missing:
            raise ValueError(
                f"straggler classes {missing} appear in no straggler shard; "
                "increase shard sizes or straggler client count"
            )
    if len(eval_straggler_rows) == 0:
        raise ValueError(
            f"the {config.eval_size}-example eval split holds no straggler-class example; "
            "increase eval_size"
        )

    return FederatedDataset(
        shards=shards,
        features=features,
        labels=labels,
        eval_total=EvalSplit(features=eval_features, labels=eval_labels),
        eval_straggler_rows=eval_straggler_rows,
        dropped_clients=dropped,
    )


def total_examples(shards: Shards) -> int:
    return int(shards.sizes.sum())


# ---- Report helpers ---- #


def shard_report_rows(dataset: FederatedDataset) -> list[dict]:
    """One row per client, in id order: id, group, and size."""
    shards = dataset.shards
    return [
        {"client_id": i, "group": "straggler" if s else "standard", "n_examples": n}
        for i, s, n in zip(*(a.tolist() for a in (shards.ids, shards.is_straggler, shards.sizes)))
    ]


def class_report_rows(dataset: FederatedDataset, n_classes: int) -> list[dict]:
    """One row per (group, class): total example count."""
    shards = dataset.shards
    group_rows = np.repeat(shards.is_straggler, shards.sizes) * n_classes
    counts = np.bincount(group_rows + dataset.labels, minlength=2 * n_classes).tolist()
    return [
        {"group": group, "class": cls, "n_examples": counts[g * n_classes + cls]}
        for g, group in enumerate(("standard", "straggler"))
        for cls in range(n_classes)
    ]
