"""Synthetic federated classification data with straggler partitioning.

Each class is an isotropic Gaussian cluster in feature space. Clients get
lognormal-sized shards with Dirichlet-skewed class mixtures, which makes the
population non-IID in a controllable way. A straggler partition then ranks
clients by how many examples they hold from the designated straggler classes,
flags the top n as straggler clients, and removes all straggler-class
examples from everyone else, so those classes live exclusively on straggler
clients. The held-out evaluation split comes from the same class clusters
via a disjoint stream. The straggler split is not a second copy: the dataset
stores the indices of the total split's straggler-class rows, computed once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng

logger = logging.getLogger(__name__)


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
    """One client's local examples."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    is_straggler: bool = False

    @property
    def n_examples(self) -> int:
        return len(self.labels)


@dataclass
class EvalSplit:
    """Held-out examples used for accuracy measurement."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class FederatedDataset:
    """Partitioned client shards, the eval split and its straggler-class row indices."""

    shards: list[ClientShard]
    eval_total: EvalSplit
    eval_straggler_rows: np.ndarray
    dropped_clients: tuple[int, ...] = ()
    _by_id: dict[int, ClientShard] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {s.client_id: s for s in self.shards}

    def shard(self, client_id: int) -> ClientShard:
        return self._by_id[client_id]

    @property
    def n_clients(self) -> int:
        return len(self.shards)

    @property
    def straggler_client_ids(self) -> list[int]:
        return [s.client_id for s in self.shards if s.is_straggler]


def class_centers(config: DatasetConfig, seed: int) -> np.ndarray:
    """Per-class cluster centers, shared by training and eval generation."""
    gen = rng.stream(seed, rng.DATA, 0)
    return gen.standard_normal((config.n_classes, config.d_in)) * config.center_scale


def generate_synthetic(config: DatasetConfig, seed: int) -> list[ClientShard]:
    """Generate raw (unpartitioned) client shards, deterministic in seed.

    Shard sizes are lognormal around the configured median (rounded, min 1);
    each client's class mixture is Dirichlet(concentration * global mixture),
    so larger concentrations approach the global mixture.
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

    keys = rng.stream_keys(seed, rng.DATA, 3, ids=range(config.m_clients))
    shards = []
    for client_id in range(config.m_clients):
        ex_gen = rng.stream_from_key(keys[client_id])
        labels = ex_gen.choice(config.n_classes, size=sizes[client_id], p=client_mixtures[client_id])
        noise = ex_gen.standard_normal((sizes[client_id], config.d_in))
        features = centers[labels] + config.cluster_spread * noise
        shards.append(ClientShard(client_id=client_id, features=features, labels=labels))
    return shards


def apply_straggler_partition(
    shards: list[ClientShard],
    straggler_classes: frozenset[int] | set[int],
    n_straggler_clients: int,
) -> tuple[list[ClientShard], tuple[int, ...]]:
    """Flag the top-n straggler-class holders and purge those classes elsewhere.

    Clients are ranked by straggler-class example count (ties broken by
    ascending client_id); the top n keep all their examples and are flagged
    straggler. Straggler-class examples are removed from the remaining
    standard clients; shards emptied by the removal are dropped with a
    warning.

    Returns:
        (partitioned shards in client_id order, ids of dropped shards)
    """
    if not straggler_classes:
        raise ValueError("straggler_classes must be nonempty")
    if n_straggler_clients > len(shards):
        raise ValueError(
            f"n_straggler_clients={n_straggler_clients} exceeds client count {len(shards)}"
        )

    class_list = sorted(straggler_classes)
    counts = {s.client_id: int(np.isin(s.labels, class_list).sum()) for s in shards}
    ranked = sorted(shards, key=lambda s: (-counts[s.client_id], s.client_id))
    straggler_ids = {s.client_id for s in ranked[:n_straggler_clients]}

    out: list[ClientShard] = []
    dropped: list[int] = []
    for shard in sorted(shards, key=lambda s: s.client_id):
        if shard.client_id in straggler_ids:
            out.append(
                ClientShard(shard.client_id, shard.features, shard.labels, is_straggler=True)
            )
            continue
        keep = ~np.isin(shard.labels, class_list)
        if not keep.any():
            dropped.append(shard.client_id)
            continue
        out.append(
            ClientShard(
                shard.client_id, shard.features[keep], shard.labels[keep], is_straggler=False
            )
        )
    if dropped:
        logger.warning(
            "dropped %d standard shard(s) emptied by straggler-class removal", len(dropped)
        )
        logger.debug("dropped shard ids: %s", dropped)
    return out, tuple(dropped)


def make_eval_splits(config: DatasetConfig, seed: int) -> tuple[EvalSplit, np.ndarray]:
    """The held-out split, drawn from the same class clusters as training,
    and the ascending indices of its rows whose labels are straggler classes.

    Uses an rng stream disjoint from shard generation.
    """
    centers = class_centers(config, seed)
    gen = rng.stream(seed, rng.EVAL)
    labels = gen.choice(config.n_classes, size=config.eval_size, p=config.mixture())
    features = centers[labels] + config.cluster_spread * gen.standard_normal(
        (config.eval_size, config.d_in)
    )
    straggler_rows = np.flatnonzero(np.isin(labels, sorted(config.straggler_classes)))
    return EvalSplit(features=features, labels=labels), straggler_rows


def build_dataset(config: DatasetConfig, seed: int) -> FederatedDataset:
    """Generate, partition, and attach eval splits; validates invariants."""
    raw = generate_synthetic(config, seed)
    shards, dropped = apply_straggler_partition(
        raw, frozenset(config.straggler_classes), config.n_straggler_clients
    )
    eval_total, eval_straggler_rows = make_eval_splits(config, seed)

    if not shards:
        raise ValueError(
            "removing the straggler classes leaves no client shard; "
            "add straggler clients or keep some classes out of straggler_classes"
        )
    present: set[int] = set()
    for shard in shards:
        if shard.is_straggler:
            present.update(np.unique(shard.labels).tolist())
    missing = set(config.straggler_classes) - present
    if config.n_straggler_clients > 0 and missing:
        raise ValueError(
            f"straggler classes {sorted(missing)} appear in no straggler shard; "
            "increase shard sizes or straggler client count"
        )
    if len(eval_straggler_rows) == 0:
        raise ValueError(
            f"the {config.eval_size}-example eval split holds no straggler-class example; "
            "increase eval_size"
        )

    return FederatedDataset(
        shards=shards,
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
        counts[group] += np.bincount(s.labels, minlength=n_classes)
    rows = []
    for group in ("standard", "straggler"):
        for cls in range(n_classes):
            rows.append({"group": group, "class": cls, "n_examples": int(counts[group][cls])})
    return rows
