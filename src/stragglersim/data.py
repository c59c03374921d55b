"""Synthetic federated classification data with straggler partitioning.

Each class is an isotropic Gaussian cluster in feature space. Clients get
lognormal-sized shards with Dirichlet-skewed class mixtures, which makes the
population non-IID in a controllable way. A straggler partition
(_partition) then leaves the designated straggler classes on straggler
clients alone. build_dataset is the one way to make a dataset.
"""

from __future__ import annotations

import logging
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


@dataclass
class ClientShard:
    """One client's local examples: the n_examples rows of the dataset's
    kept arrays from start on."""

    client_id: int
    start: int
    n_examples: int
    is_straggler: bool


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

    shards: list[ClientShard]
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


def _generate(config: DatasetConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw population as (features, labels, sizes): rows client by client.

    Shard sizes are lognormal around the configured median (rounded, min 1);
    a client's class mixture is Dirichlet(concentration * global mixture).
    """
    centers = class_centers(config, seed)
    mixture = config.mixture()

    size_gen = rng.stream(seed, rng.DATA, 1)
    z = size_gen.standard_normal(config.m_clients)
    sizes = np.exp(np.log(config.median_shard_size) + config.size_sigma * z)
    sizes = np.maximum(1, np.rint(sizes).astype(int))

    mix_gen = rng.stream(seed, rng.DATA, 2)
    alphas = config.concentration * mixture
    client_mixtures = mix_gen.dirichlet(alphas, size=config.m_clients)
    # A client's labels are what ex_gen.choice(n_classes, size, p=its mixture)
    # draws: choice searches cdf = p.cumsum() / its last entry for
    # random(size), side "right". Here the cdf is built for all clients at once.
    cdf = np.cumsum(client_mixtures, axis=1)
    cdf /= cdf[:, -1:]

    keys = rng.stream_keys(seed, rng.DATA, 3, ids=range(config.m_clients))
    ends = np.cumsum(sizes).tolist()
    labels = np.empty(ends[-1], dtype=np.int64)
    features = np.empty((ends[-1], config.d_in))
    for client_id, (a, b) in enumerate(zip([0, *ends], ends)):
        ex_gen = rng.stream_from_key(keys[client_id])
        labels[a:b] = cdf[client_id].searchsorted(ex_gen.random(b - a), side="right")
        ex_gen.standard_normal(out=features[a:b])
    # centers[labels] + cluster_spread * noise, bit for bit, computed in place
    features *= config.cluster_spread
    _add_centers(features, centers, labels)
    return features, labels, sizes


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
) -> tuple[np.ndarray, np.ndarray, list[ClientShard], tuple[int, ...]]:
    """Flag the top-n straggler-class holders and purge those classes elsewhere.

    Takes a population stored client by client, sizes[i] rows for client i;
    table is True at the straggler classes. Clients rank by straggler-class
    example count, ties by ascending id; the top n keep all their examples
    and are flagged straggler. The others lose their straggler-class
    examples, through one boolean mask and one gather; a shard left empty
    is dropped, with one warning giving the count and a debug line giving
    the ids. Returns (the kept features and labels, read-only and client by
    client, the shards in id order, each its start row and size in them,
    and the dropped ids).
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
    _read_only(features, labels)
    if dropped:
        logger.warning(
            "dropped %d standard shard(s) emptied by straggler-class removal", len(dropped)
        )
        logger.debug("dropped shard ids: %s", dropped)
    ends = np.cumsum(kept[listed]).tolist()
    ids = np.flatnonzero(listed).tolist()
    shards = [
        ClientShard(client_id, a, b - a, is_straggler)
        for client_id, a, b, is_straggler in zip(ids, [0, *ends], ends, flagged[listed].tolist())
    ]
    return features, labels, shards, tuple(dropped)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def make_eval_splits(config: DatasetConfig, seed: int) -> tuple[EvalSplit, np.ndarray]:
    """The held-out split, drawn from the same class clusters as training,
    and the ascending indices of its rows whose labels are straggler classes.
    All three arrays are read-only.

    Uses an rng stream disjoint from shard generation.
    """
    centers = class_centers(config, seed)
    gen = rng.stream(seed, rng.EVAL)
    labels = gen.choice(config.n_classes, size=config.eval_size, p=config.mixture())
    features = gen.standard_normal((config.eval_size, config.d_in))
    features *= config.cluster_spread
    _add_centers(features, centers, labels)
    table = _class_table(config.straggler_classes, config.n_classes)
    straggler_rows = np.flatnonzero(table[labels])
    _read_only(features, labels, straggler_rows)
    return EvalSplit(features=features, labels=labels), straggler_rows


def build_dataset(config: DatasetConfig, seed: int) -> FederatedDataset:
    """Generate, partition, and attach eval splits; validates invariants.

    Each step runs as array operations over the whole population, and every
    array of the result is read-only, so one dataset can serve many trials.
    """
    table = _class_table(config.straggler_classes, config.n_classes)
    features, labels, shards, dropped = _partition(
        *_generate(config, seed), table, config.n_straggler_clients
    )
    eval_total, eval_straggler_rows = make_eval_splits(config, seed)

    if not shards:
        raise ValueError(
            "removing the straggler classes leaves no client shard; "
            "add straggler clients or keep some classes out of straggler_classes"
        )
    if config.n_straggler_clients > 0:
        rows = [labels[s.start : s.start + s.n_examples] for s in shards if s.is_straggler]
        held = np.bincount(np.concatenate(rows), minlength=config.n_classes)
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
        eval_total=eval_total,
        eval_straggler_rows=eval_straggler_rows,
        dropped_clients=dropped,
    )


def total_examples(shards: list[ClientShard]) -> int:
    return sum(s.n_examples for s in shards)


# ---- Report helpers ---- #


def shard_report_rows(dataset: FederatedDataset) -> list[dict]:
    """One row per client: id, group, and size."""
    return [
        {
            "client_id": s.client_id,
            "group": "straggler" if s.is_straggler else "standard",
            "n_examples": s.n_examples,
        }
        for s in dataset.shards
    ]


def class_report_rows(dataset: FederatedDataset, n_classes: int) -> list[dict]:
    """One row per (group, class): total example count."""
    counts = {"standard": np.zeros(n_classes, dtype=int), "straggler": np.zeros(n_classes, dtype=int)}
    for s in dataset.shards:
        group = "straggler" if s.is_straggler else "standard"
        counts[group] += np.bincount(
            dataset.labels[s.start : s.start + s.n_examples], minlength=n_classes
        )
    rows = []
    for group in ("standard", "straggler"):
        for cls in range(n_classes):
            rows.append({"group": group, "class": cls, "n_examples": int(counts[group][cls])})
    return rows
