"""Monte Carlo client latency model.

A client's round time decomposes into three independently sampled factors:

    total = comm + overhead + per_example * n_examples

where comm is the combined download/upload communication time, overhead is
a fixed system constant per participation, and per_example scales with the
number of examples the client actually processes. Each factor is lognormal
with group-level (mu, sigma): all clients of a group share the same
parameters and resample fresh values every time they participate.

Two scenario modes are supported: "pe", where stragglers differ from
standard clients only through their data volume, and "pdpe", where
straggler clients additionally draw from slower distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .data import FederatedDataset

PE_MODE = "pe"
PDPE_MODE = "pdpe"


@dataclass(frozen=True)
class LognormalParams:
    """Log-scale location and spread of one latency factor."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class LatencyProfile:
    """Per-group lognormal parameters for the three latency factors."""

    comm: LognormalParams
    per_example: LognormalParams
    overhead: LognormalParams


@dataclass(frozen=True)
class LatencyScenario:
    """Latency profiles for standard and straggler clients.

    In "pe" mode the two groups are indistinguishable and must share one
    profile; in "pdpe" mode stragglers get their own (slower) profile.
    teacher_download_factor scales the comm factor of a dispatch that ships
    an extra teacher model alongside the global one.
    """

    mode: str
    standard_profile: LatencyProfile
    straggler_profile: LatencyProfile
    teacher_download_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in (PE_MODE, PDPE_MODE):
            raise ValueError(f"mode must be '{PE_MODE}' or '{PDPE_MODE}', got {self.mode!r}")
        if self.mode == PE_MODE and self.straggler_profile != self.standard_profile:
            raise ValueError("pe mode requires identical standard and straggler profiles")
        if self.teacher_download_factor < 1.0:
            raise ValueError(
                f"teacher_download_factor must be >= 1, got {self.teacher_download_factor}"
            )

    def profile_for(self, is_straggler: bool) -> LatencyProfile:
        return self.straggler_profile if is_straggler else self.standard_profile


class LatencySample(NamedTuple):
    """One participation's sampled latency factors, in seconds; a tuple, so
    a draw pays no dataclass construction."""

    comm_s: float
    per_example_s: float
    overhead_s: float

    def total_s(self, n_examples: int, comm_scale: float = 1.0) -> float:
        """comm * comm_scale + overhead + per_example * n_examples."""
        if n_examples < 0:
            raise ValueError(f"n_examples must be >= 0, got {n_examples}")
        return self.comm_s * comm_scale + self.overhead_s + self.per_example_s * n_examples


# Group-level parameterizations for an EMNIST-scale population: one shared
# profile in the per-example scenario, separate standard/straggler profiles in
# the per-domain-per-example scenario.
PE_PROFILE = LatencyProfile(
    comm=LognormalParams(mu=2.7, sigma=1.0),
    per_example=LognormalParams(mu=-1.6, sigma=0.5),
    overhead=LognormalParams(mu=3.0, sigma=0.3),
)
PDPE_STANDARD_PROFILE = LatencyProfile(
    comm=LognormalParams(mu=2.7, sigma=1.0),
    per_example=LognormalParams(mu=-2.0, sigma=0.2),
    overhead=LognormalParams(mu=3.0, sigma=0.3),
)
PDPE_STRAGGLER_PROFILE = LatencyProfile(
    comm=LognormalParams(mu=3.7, sigma=1.0),
    per_example=LognormalParams(mu=-1.0, sigma=0.5),
    overhead=LognormalParams(mu=3.5, sigma=0.3),
)

PDPE_SCENARIO = LatencyScenario(PDPE_MODE, PDPE_STANDARD_PROFILE, PDPE_STRAGGLER_PROFILE)


def sample_lognormal(params: LognormalParams, rng: np.random.Generator) -> float:
    """Draw exp(mu + sigma * Z) with Z standard normal.

    Exactly one normal draw is consumed even when sigma == 0, so stream
    positions never depend on sigma and the degenerate case returns
    exp(mu) exactly.
    """
    z = rng.standard_normal()
    return math.exp(params.mu + params.sigma * z)


def sample_lognormal_batch(params: LognormalParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized counterpart of sample_lognormal for n iid draws."""
    z = rng.standard_normal(n)
    return np.exp(params.mu + params.sigma * z)


def sample_client_latency(profile: LatencyProfile, rng: np.random.Generator) -> LatencySample:
    """Sample one participation's latency factors from a group profile.

    Factors are drawn in the fixed order comm, per_example, overhead; the
    order is part of the stream contract.
    """
    comm = sample_lognormal(profile.comm, rng)
    per_example = sample_lognormal(profile.per_example, rng)
    overhead = sample_lognormal(profile.overhead, rng)
    return LatencySample(comm_s=comm, per_example_s=per_example, overhead_s=overhead)


def nearest_rank_percentile(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct * N / 100)-th smallest value."""
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    ordered = np.sort(np.asarray(values))
    rank = math.ceil(pct * len(ordered) / 100.0)  # exact for an integer pct
    return float(ordered[rank - 1])


def latency_percentiles(
    scenario: LatencyScenario,
    population: "FederatedDataset",
    rng: np.random.Generator,
    epochs: int,
    percentiles: tuple[float, ...] = (50.0, 95.0, 99.0),
) -> dict[str, dict[float, float]]:
    """Simulate per-client one-epoch totals and summarize them by group.

    Each draw epoch samples one total latency per client (processing its
    full shard once); percentiles are nearest-rank over all clients and
    epochs of a group.

    Returns:
        {"standard": {pct: seconds}, "straggler": {...}} with empty groups
        omitted.
    """
    if not population.shards:
        raise ValueError("population has no client shards")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    sizes = {
        "standard": np.array([s.n_examples for s in population.shards if not s.is_straggler]),
        "straggler": np.array([s.n_examples for s in population.shards if s.is_straggler]),
    }
    table: dict[str, dict[float, float]] = {}
    for group, n_examples in sizes.items():
        if len(n_examples) == 0:
            continue
        profile = scenario.profile_for(group == "straggler")
        totals = np.empty(epochs * len(n_examples))
        for epoch in range(epochs):
            comm = sample_lognormal_batch(profile.comm, rng, len(n_examples))
            per_example = sample_lognormal_batch(profile.per_example, rng, len(n_examples))
            overhead = sample_lognormal_batch(profile.overhead, rng, len(n_examples))
            totals[epoch * len(n_examples) : (epoch + 1) * len(n_examples)] = (
                comm + overhead + per_example * n_examples
            )
        table[group] = {pct: nearest_rank_percentile(totals, pct) for pct in percentiles}
    return table
