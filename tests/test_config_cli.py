"""Tests for config parsing, hashing, sweeps, and the command line."""

import csv
import ctypes
import dataclasses
import json
import os
import re
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from stragglersim import cli, metrics, model, verify
from stragglersim.algorithms import AlgoConfig
from stragglersim.config import (
    _KNOB_SETTINGS,
    LATENCY_KEYS,
    ConfigError,
    ExperimentConfig,
    ModelConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    load_sweep,
    sweep_points,
)
from stragglersim.data import DatasetConfig, build_dataset
from stragglersim.engine import Simulation
from stragglersim.verify import CheckReport

FEDAVG_FULL = Path(__file__).resolve().parent.parent / "configs" / "acceptance" / "fedavg_full.json"
BASE_PAYLOAD = {
    "algo": {"name": "fedavg", "cohort_size": 2, "eta_l": 0.05, "batch_size": 4},
    "dataset": {
        "n_classes": 4,
        "d_in": 4,
        "m_clients": 12,
        "median_shard_size": 8.0,
        "straggler_classes": [0, 1],
        "n_straggler_clients": 3,
        "eval_size": 100,
    },
    "latency": {"mode": "pdpe"},
    "model": {"hidden": 0},
    "budget": 8,
    "eval_every": 2,
    "eval_cap": 64,
    "trials": 2,
    "base_seed": 0,
    "name": "unit",
}


def _payload(**overrides):
    out = json.loads(json.dumps(BASE_PAYLOAD))
    out.update(overrides)
    return out


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def _forbid(monkeypatch, owner, name: str) -> None:
    """Make owner.name raise AssertionError when it is called."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(owner, name, forbidden)


# ---- parsing and validation ---- #


def test_round_trip_of_base_payload():
    config = config_from_dict(_payload())
    assert config.algo.name == "fedavg"
    assert config.dataset.straggler_classes == (0, 1)
    assert config.latency.mode == "pdpe"
    assert config.budget == 8
    assert config.name == "unit"


def test_unknown_top_level_key_is_path_qualified():
    with pytest.raises(ConfigError, match=r"config: unknown key\(s\) \['budgett'\]"):
        config_from_dict(_payload(budgett=9))


@pytest.mark.parametrize(
    "section, key, value",
    # a typo, and keys of earlier versions
    [
        ("algo", "eta_gl", 1.0),
        ("algo", "allow_busy_reuse", True),
        ("model", "activation", "tanh"),
        ("algo", "over_selection", True),
        ("algo", "over_selection_factor", 1.2),
        ("algo", "eta_a", 0.5),
        ("algo", "time_limit", True),
        ("model", "distill_loss", "soft_ce"),
        ("model", "init_scale", 0.05),
        ("dataset", "class_mixture", [0.25, 0.25, 0.25, 0.25]),
    ],
)
def test_unknown_section_key_is_path_qualified(tmp_path, capsys, section, key, value):
    payload = _payload()
    payload[section][key] = value
    message = f".{section}: unknown key(s) ['{key}']"
    with pytest.raises(ConfigError, match=re.escape(f"config{message}")):
        config_from_dict(payload)
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"error: {config_path}{message}" in capsys.readouterr().err


def test_unknown_dataset_key_lists_known_keys():
    payload = _payload()
    payload["dataset"]["m_client"] = 10
    with pytest.raises(ConfigError, match=r"config\.dataset.*m_client.*known keys"):
        config_from_dict(payload)


def test_unknown_latency_key_rejected():
    payload = _payload()
    payload["latency"]["fast"] = True
    with pytest.raises(ConfigError, match=r"config\.latency: unknown key\(s\) \['fast'\]"):
        config_from_dict(payload)


def test_missing_algo_section_rejected():
    payload = _payload()
    del payload["algo"]
    with pytest.raises(ConfigError, match=r"config\.algo: required"):
        config_from_dict(payload)


def test_bad_algo_value_is_path_qualified():
    payload = _payload()
    payload["algo"]["eta_g"] = -1.0
    with pytest.raises(ConfigError, match=r"config\.algo: .*eta_g"):
        config_from_dict(payload)


@pytest.mark.parametrize(
    "path, literal",
    [
        ("algo.cohort_size", "true"),
        ("algo.batch_size", "true"),
        ("algo.cohort_size", "50.5"),
        ("algo.ema_enabled", "null"),
        ("algo.eta_g", "NaN"),
        ("algo.eta_l", "Infinity"),
        ("budget", "100.5"),
        ("budget", "true"),
        ("base_seed", "1.5"),
        ("eval_every", '"10"'),
        ("name", "5"),
        ("latency.teacher_download_factor", '"3"'),
        ("latency.teacher_download_factor", "true"),
        ("latency.standard.comm", '["2.7", true]'),
        ("model.hidden", "-1"),
        ("dataset.straggler_classes", "[0, 1.5]"),
        ("dataset.straggler_classes", "[true, 1]"),
    ],
    # algo fields are named without their section prefix in test ids
    ids=lambda value: value.removeprefix("algo."),
)
def test_number_fields_reject_bools_fractions_and_non_finite(tmp_path, path, literal):
    payload = _payload()
    *sections, key = path.split(".")
    node = payload
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = json.loads(literal)
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write_config(tmp_path, payload))
    assert str(excinfo.value).count(path) == 1, str(excinfo.value)


def test_time_limit_s_and_time_limit_percentile_together_exit_2(tmp_path, capsys):
    limits = {"time_limit_s": 0.5, "time_limit_percentile": 50.0}
    config_path = _write_config(tmp_path, _payload(algo={**BASE_PAYLOAD["algo"], **limits}))
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "algo: set time_limit_s or time_limit_percentile, not both" in err
    # either one alone loads and limits the run's time
    for knob, value in limits.items():
        config = config_from_dict(_payload(algo={**BASE_PAYLOAD["algo"], knob: value}))
        assert getattr(config.algo, knob) == value
        assert Simulation(config, 0).tau_limit is not None


_FEDBUFF = {"name": "fedbuff", "buffer_size": 2, "max_concurrency": 4}


@pytest.mark.parametrize(
    "algo, knob, honoured_by",
    [
        ({"name": "fedavg", "buffer_size": 2}, "buffer_size", _FEDBUFF),
        ({"name": "fedavg", "max_concurrency": 4}, "max_concurrency", _FEDBUFF),
        ({"name": "fedavg", "history_k": 5}, "history_k", {"name": "fare_dust", "history_k": 5}),
        (
            {**_FEDBUFF, "skip_distill_when_no_history": True},
            "skip_distill_when_no_history",
            {"name": "fare_dust", "rho": 0.1, "skip_distill_when_no_history": True},
        ),
        # rho 0 sends no teacher, so no history is ever asked for
        (
            {"name": "fare_dust", "skip_distill_when_no_history": True},
            "skip_distill_when_no_history",
            {"name": "fare_dust", "rho": 0.1, "skip_distill_when_no_history": True},
        ),
        (
            {"name": "fare_dust", "feast_beta": 0.9},
            "feast_beta",
            {"name": "feast", "feast_beta": 0.9},
        ),
        ({"name": "fedavg", "kappa": 0.5}, "kappa", {"name": "feast", "kappa": 0.5}),
        ({"name": "fedavg", "tau_max": 5.0}, "tau_max", {"name": "feast", "tau_max": 5.0}),
        (
            {"name": "fare_dust", "strict_sequential": True},
            "strict_sequential",
            {"name": "feast", "strict_sequential": True},
        ),
        ({"name": "fedavg", "rho": 0.1}, "rho", {**_FEDBUFF, "rho": 0.1}),
        ({"name": "feast", "rho": 0.1}, "rho", {"name": "fare_dust", "rho": 0.1}),
        (
            {"name": "fedavg", "ema_beta": 0.9},
            "ema_beta",
            {"name": "fedavg", "ema_enabled": True, "ema_beta": 0.9},
        ),
        (
            {**_FEDBUFF, "ema_enabled": False, "ema_beta": 0.9},
            "ema_beta",
            {"name": "fare_dust", "ema_beta": 0.9},
        ),
        ({**_FEDBUFF, "cohort_size": 7}, "cohort_size", {"name": "fedavg", "cohort_size": 7}),
        (
            {**_FEDBUFF, "dispatch_size": 60},
            "dispatch_size",
            {"name": "fare_dust", "cohort_size": 2, "dispatch_size": 3},
        ),
        (
            {"name": "fare_dust", "ema_enabled": False},
            "ema_enabled",
            {**_FEDBUFF, "ema_enabled": True},
        ),
        # feast serves its auxiliary model, never the EMA
        (
            {"name": "feast", "ema_enabled": True},
            "ema_enabled",
            {"name": "fedadam", "ema_enabled": True},
        ),
        (
            {"name": "feast", "ema_enabled": True, "ema_beta": 0.5},
            "ema_beta",
            {"name": "fedavg", "ema_enabled": True, "ema_beta": 0.5},
        ),
        # a time limit, not epochs, fixes each client's steps
        (
            {"name": "fedavg", "time_limit_percentile": 50.0, "epochs": 2},
            "epochs",
            {"name": "fedavg", "epochs": 2},
        ),
        (
            {"name": "fedbuff", "time_limit_s": 0.5, "epochs": 2},
            "epochs",
            {**_FEDBUFF, "epochs": 2},
        ),
        ({"name": "fedavg", "adam_beta1": 0.5}, "adam_beta1", {"name": "fedadam", "adam_beta1": 0.5}),
        (
            {**_FEDBUFF, "adam_beta2": 0.9},
            "adam_beta2",
            {**_FEDBUFF, "server_opt": "adam", "adam_beta2": 0.9},
        ),
        (
            {"name": "fare_dust", "server_opt": "sgd", "adam_eps": 0.1},
            "adam_eps",
            {"name": "fare_dust", "adam_eps": 0.1},
        ),
    ],
    ids=lambda value: value if isinstance(value, str) else value["name"],
)
def test_knobs_the_algorithm_never_reads_exit_2(tmp_path, capsys, algo, knob, honoured_by):
    base = {"eta_l": 0.05, "batch_size": 4}
    config_path = _write_config(tmp_path, _payload(algo={**base, **algo}))
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert f"algo.{knob}: has no effect" in capsys.readouterr().err
    # where the algorithm reads it, the knob loads and is kept
    config = config_from_dict(_payload(algo={**base, **honoured_by}))
    assert getattr(config.algo, knob) == honoured_by[knob]


_FARE_RHO = {"name": "fare_dust", "cohort_size": 2, "rho": 0.1}


@pytest.mark.parametrize(
    "overrides, knob, honoured_by",
    [
        ({"model": {"hidden": 0, "distill_temperature": 2.0}}, "model.distill_temperature",
         {"algo": {**_FEDBUFF, "rho": 0.1}, "model": {"hidden": 0, "distill_temperature": 2.0}}),
        # rho 0 sends no teacher
        ({"algo": {**_FARE_RHO, "rho": 0.0}, "model": {"hidden": 0, "distill_temperature": 2.0}},
         "model.distill_temperature",
         {"algo": _FARE_RHO, "model": {"hidden": 0, "distill_temperature": 2.0}}),
        ({"latency": {"mode": "pdpe", "teacher_download_factor": 2.0}},
         "latency.teacher_download_factor",
         {"algo": _FARE_RHO, "latency": {"mode": "pdpe", "teacher_download_factor": 2.0}}),
        # fedbuff's teacher is the model its client downloads anyway
        ({"algo": {**_FEDBUFF, "rho": 0.1},
          "latency": {"mode": "pdpe", "teacher_download_factor": 2.0}},
         "latency.teacher_download_factor",
         {"algo": _FARE_RHO, "latency": {"mode": "pdpe", "teacher_download_factor": 2.0}}),
    ],
    ids=[
        "fedavg-distill_temperature", "fare_dust_rho_0-distill_temperature",
        "fedavg-teacher_download_factor", "fedbuff-teacher_download_factor",
    ],
)
def test_knobs_outside_the_algo_section_exit_2_where_they_have_no_effect(
    tmp_path, capsys, overrides, knob, honoured_by
):
    config_path = _write_config(tmp_path, _payload(**overrides))
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert f"config.json.{knob}: has no effect unless" in capsys.readouterr().err
    # where the run reads it, the knob loads and changes the config
    section, key = knob.split(".")
    without = json.loads(json.dumps(_payload(**honoured_by)))
    del without[section][key]
    assert config_from_dict(_payload(**honoured_by)) != config_from_dict(without)


def test_every_knob_rule_names_a_key_its_section_accepts():
    accepted = {
        "algo": [f.name for f in dataclasses.fields(AlgoConfig)],
        "dataset": [f.name for f in dataclasses.fields(DatasetConfig)],
        "model": [f.name for f in dataclasses.fields(ModelConfig)],
        "latency": LATENCY_KEYS,
    }
    for dotted in _KNOB_SETTINGS:
        section, key = dotted.split(".")
        assert key in accepted[section], dotted


def test_cohorts_larger_than_the_dataset_exit_2_before_the_first_event(tmp_path, capsys):
    config = config_from_dict(_payload())
    n = build_dataset(config.dataset, config.effective_data_seed()).n_clients
    cases = [
        ({"name": "fedavg", "cohort_size": n + 1}, "cohort_size"),
        ({"name": "fedavg", "cohort_size": 2, "dispatch_size": n + 1}, "dispatch_size"),
        ({"name": "fedbuff", "buffer_size": 2, "max_concurrency": n + 1}, "max_concurrency"),
    ]
    for algo, field in cases:
        config_path = _write_config(tmp_path, _payload(algo=algo))
        out = tmp_path / field
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"algo.{field}: {n + 1} clients" in err
        assert f"only {n} clients" in err
        assert not list(out.glob("*.jsonl"))


@pytest.mark.parametrize(
    "dataset, message",
    [
        ({"eval_size": 1}, "eval split holds no straggler-class example"),
        ({"n_straggler_clients": 1, "median_shard_size": 2, "size_sigma": 0},
         "appear in no straggler shard"),
    ],
    ids=["no_straggler_eval_rows", "straggler_classes_missing"],
)
def test_datasets_the_generator_cannot_satisfy_exit_2_before_the_first_event(
    tmp_path, capsys, dataset, message
):
    payload = json.loads(FEDAVG_FULL.read_text())
    payload.update(budget=50, trials=1)
    payload["dataset"].update(dataset)
    config_path = _write_config(tmp_path, payload)
    load_config(config_path)  # the config itself is valid
    out = tmp_path / "run"
    commands = [
        ["simulate", "--out", str(out)],
        ["data-report", "--out", str(tmp_path / "data")],
        ["latency-report", "--out", str(tmp_path / "latency.csv"), "--draws", "1000"],
    ]
    for command in commands:
        assert cli.main([*command, "--config", str(config_path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: ") and message in err, err
    assert not list(out.glob("*.jsonl"))
    assert not (tmp_path / "latency.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "latency-report", "data-report"])
def test_a_dataset_that_keeps_no_shard_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # with every class a straggler class and no straggler client, removal empties all shards
    payload = json.loads(FEDAVG_FULL.read_text())
    payload.update(budget=50, trials=1)
    payload["dataset"].update(straggler_classes=list(range(10)), n_straggler_clients=0)
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: ") and "leaves no client shard" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_run_failing_before_its_first_event_leaves_no_out_directory(
    tmp_path, capsys, command
):
    payload = json.loads(FEDAVG_FULL.read_text())
    payload.update(budget=50, trials=1)
    payload["dataset"]["eval_size"] = 1
    if command == "sweep":
        payload = {"base": payload, "parameters": {"algo.eta_l": [0.05, 0.1]}}
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: dataset: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["fedavg_oversel", "feast"])
def test_a_round_whose_cohort_is_still_busy_waits_for_it(tmp_path, capsys, name):
    # 68 kept clients and a 60-client cohort: late clients of one round leave
    # too few idle ones for the next, which starts once enough have completed
    payload = json.loads((FEDAVG_FULL.parent / f"{name}.json").read_text())
    payload.update(budget=300, trials=1)
    payload["dataset"].update(m_clients=70, n_straggler_clients=20)
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    _, _, summary = metrics.read_run_jsonl(out / "trial_000.jsonl")
    assert summary["aggregated_updates"] >= 300


def test_pe_mode_rejects_straggler_profile():
    payload = _payload(latency={"mode": "pe", "straggler": {"comm": [1.0, 0.5]}})
    with pytest.raises(ConfigError, match=r"config\.latency\.straggler: has no effect unless"):
        config_from_dict(payload)


def test_latency_mode_is_required_and_checked():
    with pytest.raises(ConfigError, match=r"config\.latency\.mode"):
        config_from_dict(_payload(latency={}))
    with pytest.raises(ConfigError, match=r"config\.latency\.mode"):
        config_from_dict(_payload(latency={"mode": "warp"}))


def test_latency_profile_overrides_and_defaults():
    payload = _payload(
        algo=_FARE_RHO,  # the one driver that pays a teacher download
        latency={
            "mode": "pdpe",
            "standard": {"comm": [1.5, 0.25]},
            "straggler": {"per_example": [-0.5, 0.1]},
            "teacher_download_factor": 1.5,
        }
    )
    config = config_from_dict(payload)
    lat = config.latency
    assert lat.standard_profile.comm.mu == 1.5
    assert lat.standard_profile.comm.sigma == 0.25
    # untouched factors keep the builtin pdpe values
    assert lat.standard_profile.per_example.mu == -2.0
    assert lat.straggler_profile.per_example.mu == -0.5
    assert lat.straggler_profile.comm.mu == 3.7
    assert lat.teacher_download_factor == 1.5


@pytest.mark.parametrize("comm", [[1.0], {"mu": 1.0, "sigma": 0.1}], ids=["one_number", "object"])
def test_lognormal_payload_shape_checked(tmp_path, capsys, comm):
    payload = _payload(latency={"mode": "pe", "standard": {"comm": comm}})
    message = ".latency.standard.comm: expected [mu, sigma], got "
    with pytest.raises(ConfigError, match=re.escape(f"config{message}")):
        config_from_dict(payload)
    config_path = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}{message}") and err.count("\n") == 1, err


def test_an_integer_latency_factor_loads_and_hashes_as_floats():
    ints, floats = (
        config_from_dict(_payload(latency={"mode": "pe", "standard": {"comm": pair}}))
        for pair in ([2, 1], [2.0, 1.0])
    )
    comm = ints.latency.standard_profile.comm
    assert (type(comm.mu), type(comm.sigma)) == (float, float)
    assert config_hash(ints) == config_hash(floats)


def test_top_level_value_validation():
    with pytest.raises(ConfigError, match="config: "):
        config_from_dict(_payload(budget=0))
    with pytest.raises(ConfigError):
        config_from_dict(_payload(trials=0))
    with pytest.raises(ConfigError):
        config_from_dict(_payload(eval_every=0))


def test_data_seed_defaults_to_base_seed():
    config = config_from_dict(_payload())
    assert config.effective_data_seed() == 0
    pinned = config_from_dict(_payload(data_seed=7))
    assert pinned.effective_data_seed() == 7
    reseeded = config_from_dict(_payload(base_seed=3))
    assert reseeded.effective_data_seed() == 3


def test_config_hash_ignores_key_order_but_not_values():
    a = config_from_dict(_payload())
    shuffled = dict(reversed(list(_payload().items())))
    b = config_from_dict(shuffled)
    assert config_hash(a) == config_hash(b)
    c = config_from_dict(_payload(budget=9))
    assert config_hash(a) != config_hash(c)


def test_config_to_dict_survives_json_round_trip():
    config = config_from_dict(_payload())
    clone = json.loads(json.dumps(config_to_dict(config)))
    assert clone["algo"]["name"] == "fedavg"
    assert clone["dataset"]["straggler_classes"] == [0, 1]


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"algo": {"name": "fedavg",}}')
    with pytest.raises(ConfigError, match=r"broken\.json:1:\d+"):
        load_config(path)


# ---- sweeps ---- #


def _sweep_payload(**kwargs):
    return {
        "base": _payload(),
        "parameters": {"algo.eta_l": [0.05, 0.1], "algo.cohort_size": [2, 3]},
        "objective": "straggler_acc",
        "max_points": 16,
        **kwargs,
    }


def test_sweep_points_outer_product_order(tmp_path):
    path = _write_config(tmp_path, _sweep_payload(), "sweep.json")
    sweep = load_sweep(path)
    points = sweep_points(sweep, path)
    assert len(points) == 4
    # names sorted: algo.cohort_size varies slowest, algo.eta_l fastest
    assignments = [a for a, _ in points]
    assert assignments == [
        {"algo.cohort_size": 2, "algo.eta_l": 0.05},
        {"algo.cohort_size": 2, "algo.eta_l": 0.1},
        {"algo.cohort_size": 3, "algo.eta_l": 0.05},
        {"algo.cohort_size": 3, "algo.eta_l": 0.1},
    ]
    for assignment, config in points:
        assert config.algo.eta_l == assignment["algo.eta_l"]
        assert config.algo.cohort_size == assignment["algo.cohort_size"]
    # the base payload itself is never mutated
    assert sweep.base["algo"]["eta_l"] == 0.05


def test_sweep_cap_and_validation(tmp_path, capsys):
    path = _write_config(tmp_path, _sweep_payload(max_points=3), "a.json")
    with pytest.raises(ConfigError, match="max_points"):
        sweep_points(load_sweep(path), path)
    with pytest.raises(ConfigError, match="objective"):
        load_sweep(_write_config(tmp_path, _sweep_payload(objective="loss"), "b.json"))
    bad = _sweep_payload()
    bad["parameters"] = {"algo.eta_l": []}
    path = _write_config(tmp_path, bad, "c.json")
    with pytest.raises(ConfigError, match=r"algo\.eta_l"):
        sweep_points(load_sweep(path), path)
    nobase = _sweep_payload()
    del nobase["base"]
    with pytest.raises(ConfigError, match="base"):
        load_sweep(_write_config(tmp_path, nobase, "d.json"))
    # a wrong-typed key exits 2 with one line naming file and key, and writes nothing
    for name, key, value, kind in [
        ("e.json", "max_points", "5", "int"),
        ("f.json", "max_points", True, "int"),
        ("g.json", "max_points", 2.5, "int"),
        ("h.json", "parameters", "ab", "dict"),
        ("i.json", "base", [1], "dict"),
    ]:
        path = _write_config(tmp_path, _sweep_payload(**{key: value}), name)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert err == f"error: {path}.{key}: expected {kind}, got {value!r}\n", err
        assert not out.exists()


@pytest.mark.parametrize(
    "parameters, message",
    [
        (
            {"algo.eta_lx": [0.1]},
            "point 0 {'algo.eta_lx': 0.1}: base.algo: unknown key(s) ['eta_lx']",
        ),
        (
            {"algo.eta_l": [0.1, "x"]},
            "point 1 {'algo.eta_l': 'x'}: base.algo.eta_l: expected float, got 'x'",
        ),
    ],
    ids=["unknown-key", "wrong-type"],
)
def test_a_bad_sweep_point_names_the_file_and_the_point_before_any_trial(
    tmp_path, capsys, monkeypatch, parameters, message
):
    _forbid(monkeypatch, cli, "_run_trial_to_file")
    path = _write_config(tmp_path, _sweep_payload(parameters=parameters), "sweep.json")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
    assert not out.exists()


# ---- command line ---- #


def test_simulate_writes_trials_and_manifest(tmp_path, capsys):
    config_path = _write_config(tmp_path, _payload())
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["manifest.json", "trial_000.jsonl", "trial_001.jsonl"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"] == 2
    assert manifest["base_seed"] == 0
    assert manifest["files"] == ["trial_000.jsonl", "trial_001.jsonl"]
    assert manifest["config_hash"] == config_hash(load_config(config_path))
    lines = capsys.readouterr().out.strip().splitlines()
    assert re.fullmatch(
        r"unit: n=2 total_acc=[\d.]+ \[[\d.]+, [\d.]+\] "
        r"straggler_acc=[\d.]+ \[[\d.]+, [\d.]+\] time_s=[\d.]+",
        lines[0],
    ), lines


def test_simulate_is_byte_identical_across_reruns_and_jobs(tmp_path):
    config_path = _write_config(tmp_path, _payload())
    dirs = [tmp_path / f"run{i}" for i in range(3)]
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(dirs[0])]) == 0
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(dirs[1])]) == 0
    assert (
        cli.main(
            ["simulate", "--config", str(config_path), "--out", str(dirs[2]), "--jobs", "2"]
        )
        == 0
    )
    names = ["manifest.json", "trial_000.jsonl", "trial_001.jsonl"]
    for name in names:
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref, f"rerun changed {name}"
        assert (dirs[2] / name).read_bytes() == ref, f"--jobs changed {name}"


def test_simulate_seed_and_trial_overrides(tmp_path):
    config_path = _write_config(tmp_path, _payload())
    out = tmp_path / "run"
    rc = cli.main(
        ["simulate", "--config", str(config_path), "--out", str(out), "--trials", "1",
         "--seed", "5"]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"] == 1
    assert manifest["base_seed"] == 5
    header, records, summary = __import__(
        "stragglersim.metrics", fromlist=["read_run_jsonl"]
    ).read_run_jsonl(out / "trial_000.jsonl")
    assert header["seed"] == 5
    assert summary["seed"] == 5
    assert records, "run log should contain at least the final record"


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "o")]) == 2
    assert "file not found" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    payload = _payload()
    payload["algo"]["namee"] = "x"
    config_path = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "o")]) == 2
    assert "namee" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("base_seed", -1), ("data_seed", -3)])
def test_negative_seeds_in_a_config_exit_2(tmp_path, capsys, field, value):
    config_path = _write_config(tmp_path, _payload(**{field: value}))
    assert cli.main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "o")]) == 2
    assert f"config.json: {field} must be >= 0, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--seed", "-1"),
        ("simulate", "--trials", "0"),
        ("simulate", "--jobs", "0"),
        ("simulate", "--jobs", "-3"),
        ("sweep", "--jobs", "0"),
        ("verify", "--seed", "-1"),
        ("latency-report", "--seed", "-1"),
        ("latency-report", "--draws", "0"),
    ],
)
def test_negative_seed_and_non_positive_count_flags_exit_2(
    tmp_path, capsys, command, flag, value
):
    argv = [command, flag, value]
    if command != "verify":
        config_path = _write_config(tmp_path, _payload())
        argv += ["--config", str(config_path), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_reads_no_worker_count_from_the_environment(tmp_path, monkeypatch):
    # --jobs is the one way to set the worker count, so a stale variable of
    # an older version changes nothing.
    monkeypatch.setenv("STRAGGLERSIM_JOBS", "0")
    config_path = _write_config(tmp_path, _payload(trials=2))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "trial_000.jsonl", "trial_001.jsonl"
    ]


def test_verify_single_check_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--suite", "gap_recursion", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["gap_recursion"]
    stdout = capsys.readouterr().out
    assert "PASS gap_recursion" in stdout
    assert "suite passed" in stdout


@pytest.mark.parametrize("out_kind", ["dir", "missing-parent"])
@pytest.mark.parametrize("command", ["verify", "report", "latency-report"])
def test_verify_checks_out_before_the_first_check(
    tmp_path, capsys, monkeypatch, command, out_kind
):
    # A file --out that is a directory, or whose directory is missing, fails
    # before the suite runs, a log is read or a dataset is built.
    _forbid(monkeypatch, cli, "run_suite")
    _forbid(monkeypatch, metrics, "read_run_jsonl")
    _forbid(monkeypatch, ExperimentConfig, "build_dataset")
    log = tmp_path / "run" / "trial_000.jsonl"
    log.parent.mkdir()
    log.write_text("")
    out = tmp_path / "taken" if out_kind == "dir" else tmp_path / "missing" / "out.json"
    if out_kind == "dir":
        out.mkdir()
    argv = {
        "verify": ["--suite", "gap_recursion"],
        "report": ["--in", str(log.parent)],
        "latency-report": ["--config", str(_write_config(tmp_path, _payload()))],
    }[command]
    assert cli.main([command, *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1, err


@pytest.mark.parametrize("out_kind", ["file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "data-report"])
def test_simulate_and_sweep_check_out_before_the_first_trial(
    tmp_path, capsys, monkeypatch, command, out_kind
):
    # A directory --out that is a file, or lies under one, fails before any
    # trial runs or dataset is built, and no directory is made on the way.
    _forbid(monkeypatch, cli, "_run_trial_to_file")
    _forbid(monkeypatch, ExperimentConfig, "build_dataset")
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken if out_kind == "file" else taken / "sub" / "dir"
    payload = _sweep_payload() if command == "sweep" else _payload(trials=4)
    config_path = _write_config(tmp_path, payload, f"{command}.json")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == "keep\n" and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, out_kind",
    [("data-report", "file"), ("latency-report", "dir"), ("verify", "dir"), ("report", "dir"),
     ("simulate", "file")],
)
def test_an_unwritable_out_exits_2_and_names_it(tmp_path, capsys, command, out_kind):
    out = tmp_path / "taken"
    if out_kind == "file":
        out.write_text("keep\n")
    else:
        out.mkdir()
    config_path = _write_config(tmp_path, _payload(trials=1))
    argv = {
        "data-report": ["--config", str(config_path)],
        "latency-report": ["--config", str(config_path), "--draws", "100"],
        "verify": ["--suite", "gap_recursion"],
        "report": ["--in", str(tmp_path / "run")],
        "simulate": ["--config", str(config_path)],
    }[command]
    if command == "report":
        assert cli.main(["simulate", "--config", str(config_path), "--out", argv[1]]) == 0
    capsys.readouterr()
    assert cli.main([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1, err
    if out_kind == "file":
        assert out.read_text() == "keep\n"
    else:
        assert not any(out.iterdir())


def test_verify_unknown_suite_exits_2(tmp_path, monkeypatch, capsys):
    # The name is checked before --out (here in a missing directory) and before any check.
    ran = []
    for name in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, name, lambda *, base_seed=0: ran.append(base_seed))
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["verify", "--suite", "nope", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: unknown suite 'nope'; options: all, gap_recursion, gap_zero_mean, "
        "local_grad_norm, gap_norm_bound, stationarity_schedule, engine_gap_recursion\n"
    )
    assert ran == []


def test_verify_failure_exits_1(monkeypatch, capsys):
    def busted(*, base_seed=0):
        return CheckReport(
            name="gap_recursion", passed=False, measured={"worst": 1.0},
            bound={"tol": 0.5}, detail="forced failure", elapsed_s=0.0,
        )

    monkeypatch.setitem(verify.CHECKS, "gap_recursion", busted)
    assert cli.main(["verify", "--suite", "gap_recursion"]) == 1
    stdout = capsys.readouterr().out
    assert "FAIL gap_recursion" in stdout
    assert "suite FAILED" in stdout


@pytest.mark.parametrize("error", [RuntimeError, FloatingPointError])
def test_runtime_failure_exits_3(tmp_path, monkeypatch, capsys, error):
    def diverge(self):
        raise error("non-finite loss or gradient")

    monkeypatch.setattr(Simulation, "run", diverge)
    config_path = _write_config(tmp_path, _payload())
    assert cli.main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: non-finite loss or gradient\n"


@pytest.mark.parametrize(
    "algo, trainer",
    [
        ({"name": "fedavg", "cohort_size": 2}, "local_sgd"),
        ({"name": "fedbuff", "buffer_size": 2, "max_concurrency": 3}, "local_sgd"),
    ],
    ids=["fedavg", "fedbuff"],
)
def test_diverging_training_names_client_round_and_time_and_exits_3(
    tmp_path, monkeypatch, capsys, algo, trainer
):
    # Softmax gradients are bounded, so only a step near the float maximum
    # overflows the weights.
    payload = _payload(algo={**algo, "eta_l": 1e308, "batch_size": 4})
    calls = []
    original = getattr(model, trainer)

    def spy(*args, **kwargs):
        calls.append(trainer)
        return original(*args, **kwargs)

    monkeypatch.setattr(model, trainer, spy)
    with pytest.raises(FloatingPointError, match=r"^client \d+ diverged in round 0 at t=0\.000: "):
        Simulation(config_from_dict(payload), 0).run()
    assert calls == [trainer]
    config_path = _write_config(tmp_path, payload)
    assert cli.main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: client ") and err.count("\n") == 1, err


def test_report_aggregates_single_config(tmp_path, capsys):
    config_path = _write_config(tmp_path, _payload())
    run_dir = tmp_path / "run"
    cli.main(["simulate", "--config", str(config_path), "--out", str(run_dir)])
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["report", "--in", str(run_dir), "--out", str(out_csv)]) == 0
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["n_trials"] == "2"
    assert rows[0]["experiment"] == "unit"
    assert 0.0 <= float(rows[0]["total_acc_median"]) <= 1.0


def test_simulate_and_report_print_the_same_summary_line(tmp_path, capsys):
    config_path = _write_config(tmp_path, _payload())
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(run_dir)]) == 0
    simulated = capsys.readouterr().out.splitlines()
    assert cli.main(["report", "--in", str(run_dir), "--out", str(tmp_path / "s.csv")]) == 0
    reported = capsys.readouterr().out.splitlines()
    assert simulated[0].startswith("unit: n=2 total_acc=")
    assert reported[0] == simulated[0]


def test_report_refuses_mixed_configs_without_flag(tmp_path, capsys):
    a_path = _write_config(tmp_path, _payload(), "a.json")
    b_path = _write_config(tmp_path, _payload(budget=10, name="other"), "b.json")
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", str(a_path), "--out", str(dir_a)])
    cli.main(["simulate", "--config", str(b_path), "--out", str(dir_b)])
    out_csv = tmp_path / "mixed.csv"
    rc = cli.main(["report", "--in", str(dir_a), str(dir_b), "--out", str(out_csv)])
    assert rc == 2
    assert "force-mixed" in capsys.readouterr().err
    rc = cli.main(
        ["report", "--in", str(dir_a), str(dir_b), "--out", str(out_csv), "--force-mixed"]
    )
    assert rc == 0
    with out_csv.open() as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_a_mixed_report_labels_each_group_with_its_config_hash(tmp_path, capsys):
    dirs = []
    for budget in (8, 10):  # one name, two hashes
        config_path = _write_config(tmp_path, _payload(budget=budget), f"b{budget}.json")
        dirs.append(str(tmp_path / f"b{budget}"))
        assert cli.main(["simulate", "--config", str(config_path), "--out", dirs[-1]]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "mixed.csv"
    assert cli.main(["report", "--in", *dirs, "--out", str(out_csv), "--force-mixed"]) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:2]]
    with out_csv.open() as fh:
        hashes = [row["config_hash"] for row in csv.DictReader(fh)]
    assert len(set(hashes)) == 2
    assert labels == [f"unit {h}" for h in hashes]


def _broken_logs(tmp_path):
    """Copies of one good trial log, each with the defect its key names;
    two_logs is two one-record logs in one file."""
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(_write_config(tmp_path, _payload(trials=1))),
                     "--out", str(run_dir)]) == 0
    header, *records, summary = (run_dir / "trial_000.jsonl").read_text().splitlines()
    assert records
    record = json.loads(records[0])
    return {
        "not_json": [header, records[0][:-1], *records[1:], summary],
        "no_records": [header, summary],
        "no_header": [*records, summary],
        "list_line": [header, "[1, 2]", *records, summary],
        "no_total_acc": [header, json.dumps({k: v for k, v in record.items() if k != "total_acc"}),
                         *records[1:], summary],
        "str_total_acc": [header, json.dumps({**record, "total_acc": "x"}), *records[1:], summary],
        "two_logs": [header, records[0], summary] * 2,
    }


_DEFECT_WHERE = {
    "not_json": ":2: not JSON",
    "no_records": ": no records",
    "no_header": ": missing header",
    "list_line": ":2: expected an object, got list",
    "no_total_acc": ":2.total_acc: required key is missing",
    "str_total_acc": ":2.total_acc: expected float, got 'x'",
    "two_logs": ":4: a second header line",
}


@pytest.mark.parametrize("defect", list(_DEFECT_WHERE))
def test_report_on_a_malformed_log_exits_2_and_names_it(tmp_path, capsys, defect):
    log = tmp_path / "broken.jsonl"
    log.write_text("\n".join(_broken_logs(tmp_path)[defect]) + "\n")
    capsys.readouterr()
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["report", "--in", str(log), "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}{_DEFECT_WHERE[defect]}") and err.count("\n") == 1, err
    assert not out_csv.exists()


def test_sweep_command_orders_points_by_objective(tmp_path):
    sweep_path = _write_config(tmp_path, _sweep_payload(), "sweep.json")
    out = tmp_path / "sweep_out"
    assert cli.main(["sweep", "--config", str(sweep_path), "--out", str(out)]) == 0
    for idx in range(4):
        point_dir = out / f"point_{idx:03d}"
        assert (point_dir / "manifest.json").exists()
        assert (point_dir / "trial_000.jsonl").exists()
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    medians = [float(r["objective_median"]) for r in rows]
    assert medians == sorted(medians, reverse=True)
    assert [r["best"] for r in rows] == ["1", "0", "0", "0"]
    assert set(rows[0]) == {
        "point", "algo.cohort_size", "algo.eta_l", "objective_lo", "objective_median",
        "objective_hi", "total_acc_median", "straggler_acc_median", "time_s_median", "best",
    }


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_sweep_runs_all_its_trials_in_one_pool_with_byte_identical_output(
    tmp_path, monkeypatch
):
    sweep_path = _write_config(tmp_path, _sweep_payload(), "sweep.json")
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert cli.main(["sweep", "--config", str(sweep_path), "--out", str(serial)]) == 0
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    assert cli.main(
        ["sweep", "--config", str(sweep_path), "--out", str(pooled), "--jobs", "2"]
    ) == 0
    assert len(pools) == 1
    tree = _tree(serial)
    assert len(tree) == 1 + 4 * 3  # sweep.csv, and per point a manifest and two logs
    assert "point_003/trial_001.jsonl" in tree
    assert _tree(pooled) == tree


def test_the_trial_pool_has_no_more_workers_than_trials_or_usable_cpus(tmp_path, monkeypatch):
    config_path = _write_config(tmp_path, _payload())  # two trials
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    # (usable CPUs, --jobs): still a pool whenever jobs > 1, even of one worker
    for cpus, jobs in [(1, 2), (1, 4), (8, 4), (3, 2), (8, 1)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        out = tmp_path / f"cpus{cpus}_jobs{jobs}"
        argv = ["simulate", "--config", str(config_path), "--out", str(out), "--jobs", str(jobs)]
        assert cli.main(argv) == 0
        assert (out / "trial_001.jsonl").exists()
    assert sizes == [1, 1, 2, 2]


def test_jobs_run_where_the_platform_keeps_no_cpu_affinity(tmp_path, monkeypatch):
    # macOS has no os.sched_getaffinity: the pool is sized by os.cpu_count.
    config_path = _write_config(tmp_path, _payload())  # two trials
    monkeypatch.delattr(os, "sched_getaffinity")
    for jobs in ("1", "2"):
        argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / jobs),
                "--jobs", jobs]
        assert cli.main(argv) == 0
    assert _tree(tmp_path / "2") == _tree(tmp_path / "1")
    assert "trial_001.jsonl" in _tree(tmp_path / "1")


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded; None if it is not
    the library numpy bundles."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                get_num_threads = getattr(lib, name)
                get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                return get_num_threads()
    return None


_TRIAL_TO_FILE = cli._run_trial_to_file


def _trial_noting_blas_threads(config, seed, out_path):
    """A pool worker's trial that also writes its OpenBLAS thread count."""
    _TRIAL_TO_FILE(config, seed, out_path)
    out_path.with_suffix(".threads").write_text(str(_openblas_threads()))


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy's bundled OpenBLAS not found")
def test_a_trial_worker_has_one_blas_thread_unless_the_user_sets_a_count(tmp_path, monkeypatch):
    # The spawned worker pickles this module's function by name and imports
    # this module afresh, so it runs the probe, not the parent's patch.
    config_path = _write_config(tmp_path, _payload())  # two trials
    monkeypatch.setattr(cli, "_run_trial_to_file", _trial_noting_blas_threads)
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cases = [("unset", None, "1")]
    if cli._usable_cpus() >= 2:  # OpenBLAS takes no more threads than cores
        cases.append(("user", "2", "2"))
    for name, user_value, want in cases:
        if user_value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_value)
        out = tmp_path / name
        argv = ["simulate", "--config", str(config_path), "--out", str(out), "--jobs", "2"]
        assert cli.main(argv) == 0
        assert [p.read_text() for p in sorted(out.glob("*.threads"))] == [want, want]
        # the parent's environment is as the user left it
        assert [os.environ.get(var) for var in cli._BLAS_THREAD_VARS] == [user_value, None, None]


def test_a_failing_sweep_point_cancels_the_trials_not_started(tmp_path, capsys):
    # Point 0's step size overflows its weights in the first round; the
    # other points' trials run to a larger budget.
    payload = _sweep_payload(parameters={"algo.eta_l": [1e308, 0.05, 0.1, 0.2]})
    payload["base"].update(trials=4, budget=200)
    sweep_path = _write_config(tmp_path, payload, "sweep.json")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(sweep_path), "--out", str(out), "--jobs", "2"]) == 3
    error = r"error: client \d+ diverged in round 0 at t=0\.000: local SGD left non-finite weights"
    assert re.fullmatch(error + "\n", capsys.readouterr().err)
    # the trials still queued when point 0 fails never start: few of the other twelve run
    assert len(list(out.rglob("*.jsonl"))) < 12
    assert not (out / "sweep.csv").exists()


def test_latency_report_writes_percentiles(tmp_path, capsys):
    config_path = _write_config(tmp_path, _payload())
    out_csv = tmp_path / "latency.csv"
    rc = cli.main(
        ["latency-report", "--config", str(config_path), "--out", str(out_csv),
         "--draws", "2000"]
    )
    assert rc == 0
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    groups = {r["group"] for r in rows}
    assert groups == {"standard", "straggler"}
    assert "median ratio" in capsys.readouterr().out
    for row in rows:
        assert float(row["seconds"]) > 0.0


def test_data_report_writes_composition_tables(tmp_path, capsys):
    config_path = _write_config(tmp_path, _payload())
    out_dir = tmp_path / "data"
    assert cli.main(["data-report", "--config", str(config_path), "--out", str(out_dir)]) == 0
    with (out_dir / "clients.csv").open() as fh:
        clients = list(csv.DictReader(fh))
    with (out_dir / "classes.csv").open() as fh:
        classes = list(csv.DictReader(fh))
    assert sum(1 for r in clients if r["group"] == "straggler") == 3
    assert {r["group"] for r in classes} == {"standard", "straggler"}
    assert len(classes) == 2 * BASE_PAYLOAD["dataset"]["n_classes"]
    # standard clients hold no straggler-class examples
    for row in classes:
        if row["group"] == "standard" and int(row["class"]) in (0, 1):
            assert int(row["n_examples"]) == 0
    assert "clients" in capsys.readouterr().out


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
