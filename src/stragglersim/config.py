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
    init_scale: float = 0.05
    distill_loss: str = "soft_ce"
    distill_temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        if self.distill_loss not in ("soft_ce", "logit_mse"):
            raise ValueError(f"distill_loss must be soft_ce or logit_mse, got {self.distill_loss!r}")
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
    if isinstance(payload, (list, tuple)) and len(payload) == 2:
        for key, value in zip(("mu", "sigma"), payload):
            _check_number(value, "float", f"{path}.{key}")
        payload = {"mu": float(payload[0]), "sigma": float(payload[1])}
    if isinstance(payload, dict):
        return _build_dataclass(LognormalParams, payload, path)
    raise ConfigError(f"{path}: expected [mu, sigma] or an object with mu/sigma")


def _parse_profile(payload: Any, path: str, default: LatencyProfile) -> LatencyProfile:
    _check_keys(payload, ("comm", "per_example", "overhead"), path)
    return dataclasses.replace(
        default, **{key: _parse_lognormal(value, f"{path}.{key}") for key, value in payload.items()}
    )


def _parse_latency(payload: Any, path: str) -> LatencyScenario:
    _check_keys(payload, ("mode", "standard", "straggler", "teacher_download_factor"), path)
    mode = payload.get("mode")
    if mode not in ("pe", "pdpe"):
        raise ConfigError(f"{path}.mode: must be 'pe' or 'pdpe', got {mode!r}")
    if mode == "pe":
        standard = _parse_profile(payload.get("standard", {}), f"{path}.standard", PE_PROFILE)
        if "straggler" in payload:
            raise ConfigError(f"{path}.straggler: pe mode uses a single shared profile")
        straggler = standard
    else:
        standard = _parse_profile(
            payload.get("standard", {}), f"{path}.standard", PDPE_STANDARD_PROFILE
        )
        straggler = _parse_profile(
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


def _only(*names: str):
    """The setting "the algorithm is one of names", as a test and as words."""
    return (lambda algo: algo.name in names), "name is " + " or ".join(map(repr, names))


# Knobs that act only under some setting: given without it they would change
# the config hash and nothing else. Each maps to that setting, as a test and
# as words. The base synchronous driver sends no teacher, so rho acts only in
# fare_dust and fedbuff; fedbuff sizes no rounds; fare_dust always keeps an
# EMA.
_SYNC = _only("fedavg", "fedadam", "fare_dust", "feast")
_ADAM = (lambda algo: algo.resolved_server_opt() == "adam", "server_opt resolves to 'adam'")
_KNOB_SETTINGS = {
    "time_limit_s": (lambda algo: algo.time_limit, "time_limit is true"),
    "time_limit_percentile": (lambda algo: algo.time_limit, "time_limit is true"),
    "over_selection_factor": (
        lambda algo: algo.over_selection and algo.dispatch_size is None,
        "over_selection is true and dispatch_size is not given",
    ),
    "ema_beta": (
        lambda algo: algo.resolved_ema_enabled(),
        "ema_enabled is true or name is 'fare_dust'",
    ),
    "buffer_size": _only("fedbuff"),
    "max_concurrency": _only("fedbuff"),
    "history_k": _only("fare_dust"),
    "skip_distill_when_no_history": _only("fare_dust"),
    "feast_beta": _only("feast"),
    "kappa": _only("feast"),
    "eta_a": _only("feast"),
    "tau_max": _only("feast"),
    "strict_sequential": _only("feast"),
    "rho": _only("fare_dust", "fedbuff"),
    "cohort_size": _SYNC,
    "over_selection": _SYNC,
    "dispatch_size": _SYNC,
    "ema_enabled": (lambda algo: algo.name != "fare_dust", "name is not 'fare_dust'"),
    "adam_beta1": _ADAM,
    "adam_beta2": _ADAM,
    "adam_eps": _ADAM,
}


def _parse_algo(payload: Any, path: str) -> AlgoConfig:
    """Build the algo section and reject a knob the run would ignore, by key
    presence, so the hashes of configs without one do not change."""
    algo = _build_dataclass(AlgoConfig, payload, path)
    for knob, (acts, setting) in _KNOB_SETTINGS.items():
        if knob in payload and not acts(algo):
            raise ConfigError(f"{path}.{knob}: has no effect unless {path}.{setting}")
    return algo


_SECTIONS = {
    "algo": _parse_algo,
    "dataset": functools.partial(_build_dataclass, DatasetConfig),
    "model": functools.partial(_build_dataclass, ModelConfig),
    "latency": _parse_latency,
}


def config_from_dict(payload: dict, path: str = "config") -> ExperimentConfig:
    return _build_dataclass(ExperimentConfig, payload, path, _SECTIONS)


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
