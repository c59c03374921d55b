"""Experiment configuration: typed schema, strict JSON loading, hashing.

Unknown keys and wrong-typed values are rejected with a path-qualified
message, so a typo like "algo.eta_gl" or a budget of true fails loudly
instead of silently running something else. One builder, _build_dataclass,
checks every input file this way: experiment configs, sweep files
(SweepConfig) and the record lines of trial logs (metrics.MetricsRecord).
The config hash is the sha256 of the canonical JSON form of the fully
resolved config and is stamped into every output so reports can refuse to
mix runs of different configurations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import data
from .algorithms import AlgoConfig
from .data import DatasetConfig
from .latency import (
    PDPE_SCENARIO,
    PDPE_STANDARD_PROFILE,
    PDPE_STRAGGLER_PROFILE,
    PE_PROFILE,
    LatencyProfile,
    LatencyScenario,
    LognormalParams,
)
from .model import ModelLayout


class ConfigError(ValueError):
    """Invalid configuration content; message carries the offending path."""


@dataclass(frozen=True)
class ModelConfig:
    """Classifier architecture and loss options shared by all clients."""

    hidden: int = 32
    distill_temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.distill_temperature <= 0:
            raise ValueError(f"distill_temperature must be > 0, got {self.distill_temperature}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated experiment needs, minus the trial seed."""

    algo: AlgoConfig
    dataset: DatasetConfig = DatasetConfig()
    latency: LatencyScenario = PDPE_SCENARIO
    model: ModelConfig = ModelConfig()
    budget: int = 5000
    eval_every: int = 10
    eval_cap: int = 2048
    trials: int = 10
    base_seed: int = 0
    data_seed: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.eval_cap < 1:
            raise ValueError(f"eval_cap must be >= 1, got {self.eval_cap}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("base_seed", "data_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        try:
            self.layout()
        except ValueError as exc:
            # DatasetConfig already checked d_in and n_classes: a model field is at fault
            raise ValueError(f"model.{exc}") from exc

    def layout(self) -> ModelLayout:
        """The model shape; the only place it is validated."""
        return ModelLayout(
            d_in=self.dataset.d_in,
            hidden=self.model.hidden,
            n_classes=self.dataset.n_classes,
        )

    def effective_data_seed(self) -> int:
        return self.base_seed if self.data_seed is None else self.data_seed

    def build_dataset(self) -> data.FederatedDataset:
        """The trials' dataset; a section the generator cannot satisfy is a ConfigError.

        A process builds each (dataset section, data seed) once and hands every
        later caller the same read-only dataset; it keeps the last
        DATASETS_KEPT of them.
        """
        try:
            return _shared_dataset(self.dataset, self.effective_data_seed())
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from None


# The trials of a simulate run, and all four acceptance configs, share one
# dataset, and a sweep runs its points in order, so two kept datasets serve
# them while a process holds at most two.
DATASETS_KEPT = 2


@functools.lru_cache(maxsize=DATASETS_KEPT)
def _shared_dataset(dataset: DatasetConfig, seed: int) -> data.FederatedDataset:
    return data.build_dataset(dataset, seed)


# ---- dict <-> config ---- #


def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON form of a config (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(config)))


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_SCALARS = {
    "int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict, "None": type(None)
}


def _check_number(value: Any, annotation: str, path: str) -> None:
    """Reject a value of the wrong type for a scalar field (a bool for a number,
    a float for an int, a string for a number, a non-string for a string, a
    non-object for a dict) and non-finite floats; annotation is the field's
    annotation string."""
    kinds = [part.strip() for part in annotation.split("|")]
    if not all(kind in _SCALARS for kind in kinds):
        return
    accepted = tuple(_SCALARS[kind] for kind in kinds)
    if not isinstance(value, accepted) or (isinstance(value, bool) and "bool" not in kinds):
        raise ConfigError(f"{path}: expected {annotation}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")


def _check_keys(payload: Any, known, path: str) -> None:
    """Reject a payload that is not a JSON object or has a key outside known."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; known keys: {sorted(known)}")


def _build_dataclass(cls: type, payload: Any, path: str, sections: dict | None = None):
    """Build cls from a JSON object; sections maps a key to the parser of its
    nested value, every other value is checked against its field annotation."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(payload, fields, path)
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in payload:
            raise ConfigError(f"{path}.{name}: required key is missing")
    kwargs = {}
    for key, value in payload.items():
        if sections and key in sections:
            value = sections[key](value, f"{path}.{key}")
        else:
            _check_number(value, fields[key].type, f"{path}.{key}")
            if fields[key].type.startswith("tuple") and isinstance(value, list):
                item_kind = fields[key].type[len("tuple[") :].split(",")[0]
                for i, item in enumerate(value):
                    _check_number(item, item_kind, f"{path}.{key}[{i}]")
                value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_lognormal(payload: Any, path: str) -> LognormalParams:
    if not (isinstance(payload, (list, tuple)) and len(payload) == 2):
        raise ConfigError(f"{path}: expected [mu, sigma], got {payload!r}")
    for key, value in zip(("mu", "sigma"), payload):
        _check_number(value, "float", f"{path}.{key}")
    mu, sigma = map(float, payload)
    return _build_dataclass(LognormalParams, {"mu": mu, "sigma": sigma}, path)


def _parse_profile(payload: Any, path: str, default: LatencyProfile) -> LatencyProfile:
    _check_keys(payload, ("comm", "per_example", "overhead"), path)
    return dataclasses.replace(
        default, **{key: _parse_lognormal(value, f"{path}.{key}") for key, value in payload.items()}
    )


# the keys of the latency section, which names its profiles without "_profile"
LATENCY_KEYS = ("mode", "standard", "straggler", "teacher_download_factor")


def _parse_latency(payload: Any, path: str) -> LatencyScenario:
    _check_keys(payload, LATENCY_KEYS, path)
    mode = payload.get("mode")
    if mode not in ("pe", "pdpe"):
        raise ConfigError(f"{path}.mode: must be 'pe' or 'pdpe', got {mode!r}")
    default = PE_PROFILE if mode == "pe" else PDPE_STANDARD_PROFILE
    standard = _parse_profile(payload.get("standard", {}), f"{path}.standard", default)
    straggler = standard if mode == "pe" else _parse_profile(
        payload.get("straggler", {}), f"{path}.straggler", PDPE_STRAGGLER_PROFILE
    )
    factor = payload.get("teacher_download_factor", 1.0)
    _check_number(factor, "float", f"{path}.teacher_download_factor")
    try:
        return LatencyScenario(
            mode=mode,
            standard_profile=standard,
            straggler_profile=straggler,
            teacher_download_factor=float(factor),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _only(*names: str, distills: bool = False):
    """The setting "the algorithm is one of names" (with distills, "and rho >
    0", so that it sends a teacher), as a test of the whole config and as words."""
    words = "algo.name is " + " or ".join(map(repr, names))
    words += " and algo.rho > 0" if distills else ""
    return (lambda c: c.algo.name in names and (c.algo.rho > 0 or not distills)), words


# Knobs that act only under some setting: given without it they would change
# the config hash and nothing else. Each dotted path maps to that setting, as a
# test of the whole config and as words. The base synchronous driver sends no
# teacher, so rho and the distillation temperature act only in fare_dust and
# fedbuff, and at rho > 0; fedbuff's teacher is the model its client downloads
# anyway, so only fare_dust pays the teacher download; fedbuff sizes no rounds;
# fare_dust always keeps an EMA, and feast serves its auxiliary model, never
# the EMA; a time limit, not epochs, fixes a client's steps; pe mode draws
# both groups from one profile.
_SYNC = _only("fedavg", "fedadam", "fare_dust", "feast")
_ADAM = (lambda c: c.algo.resolved_server_opt() == "adam", "algo.server_opt resolves to 'adam'")
_DISTILLS = _only("fare_dust", "fedbuff", distills=True)
_KNOB_SETTINGS = {
    "algo.epochs": (
        lambda c: c.algo.time_limit_s is None and c.algo.time_limit_percentile is None,
        "neither algo.time_limit_s nor algo.time_limit_percentile is set",
    ),
    "algo.ema_beta": (
        lambda c: c.algo.resolved_ema_enabled() and c.algo.name != "feast",
        "algo.ema_enabled is true or algo.name is 'fare_dust', and algo.name is not 'feast'",
    ),
    "algo.buffer_size": _only("fedbuff"),
    "algo.max_concurrency": _only("fedbuff"),
    "algo.history_k": _only("fare_dust"),
    "algo.skip_distill_when_no_history": _only("fare_dust", distills=True),
    "algo.feast_beta": _only("feast"),
    "algo.kappa": _only("feast"),
    "algo.tau_max": _only("feast"),
    "algo.strict_sequential": _only("feast"),
    "algo.rho": _only("fare_dust", "fedbuff"),
    "algo.cohort_size": _SYNC,
    "algo.dispatch_size": _SYNC,
    "algo.ema_enabled": _only("fedavg", "fedadam", "fedbuff"),
    "algo.adam_beta1": _ADAM,
    "algo.adam_beta2": _ADAM,
    "algo.adam_eps": _ADAM,
    "model.distill_temperature": _DISTILLS,
    "latency.teacher_download_factor": _only("fare_dust", distills=True),
    "latency.straggler": (lambda c: c.latency.mode == "pdpe", "latency.mode is 'pdpe'"),
}

_SECTIONS = {
    "algo": functools.partial(_build_dataclass, AlgoConfig),
    "dataset": functools.partial(_build_dataclass, DatasetConfig),
    "model": functools.partial(_build_dataclass, ModelConfig),
    "latency": _parse_latency,
}


def config_from_dict(payload: dict, path: str = "config") -> ExperimentConfig:
    """Build a config and reject a knob the run would ignore
    (_KNOB_SETTINGS), by key presence, so the hashes of configs without one
    do not change."""
    config = _build_dataclass(ExperimentConfig, payload, path, _SECTIONS)
    for dotted, (acts, setting) in _KNOB_SETTINGS.items():
        section, key = dotted.split(".")
        if key in payload.get(section, {}) and not acts(config):
            raise ConfigError(f"{path}.{dotted}: has no effect unless {setting}")
    return config


def _read_json(path: str | Path) -> Any:
    """Parse a JSON file; a syntax error is a ConfigError naming file:line:col."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config from a JSON file."""
    return config_from_dict(_read_json(path), path=str(path))


# ---- sweeps ---- #


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep: a base experiment payload plus per-parameter value lists."""

    base: dict
    parameters: dict
    objective: str = "straggler_acc"
    max_points: int = 64

    def __post_init__(self) -> None:
        if self.objective not in ("straggler_acc", "total_acc"):
            raise ValueError(f"objective must be straggler_acc or total_acc, got {self.objective!r}")
        if self.max_points < 1:
            raise ValueError("max_points must be >= 1")
        if not self.parameters:
            raise ValueError("sweep needs at least one parameter list")


def _set_path(payload: dict, dotted: str, value: Any, path: str) -> None:
    parts = dotted.split(".")
    node = payload
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: {dotted} does not address an object field")
    node[parts[-1]] = value


def sweep_points(
    sweep: SweepConfig, path: str | Path
) -> list[tuple[dict[str, Any], ExperimentConfig]]:
    """Expand the grid (outer product, capped) into concrete configs.

    Returns (assignment, config) pairs in deterministic order: parameter
    names sorted, values in listed order, rightmost parameter fastest. An
    error names the sweep file at path and, for a bad point, its assignment.
    """
    names = sorted(sweep.parameters)
    combos: list[dict[str, Any]] = [{}]
    for name in names:
        values = sweep.parameters[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.parameters.{name}: expected a nonempty list")
        combos = [{**combo, name: v} for combo in combos for v in values]
    if len(combos) > sweep.max_points:
        raise ConfigError(
            f"{path}: sweep grid has {len(combos)} points, above max_points={sweep.max_points}"
        )
    out = []
    for idx, combo in enumerate(combos):
        point = f"{path}: point {idx} {combo}"
        payload = json.loads(json.dumps(sweep.base))
        for dotted, value in combo.items():
            _set_path(payload, dotted, value, point)
        out.append((combo, config_from_dict(payload, path=f"{point}: base")))
    return out


def load_sweep(path: str | Path) -> SweepConfig:
    """Load a sweep file: {"base": {...}, "parameters": {...}, ...}; the base
    must itself be a valid experiment config."""
    sweep = _build_dataclass(SweepConfig, _read_json(path), str(path))
    config_from_dict(sweep.base, path=f"{path}.base")
    return sweep
