"""Acceptance suite: one test per release criterion.

Each test prints as its own pass/fail line under ``pytest -v``. The slow
directional-replication experiment (criterion 9) runs the four frozen
configs under ``configs/acceptance/`` across 10 trials in ``simulate``'s
trial pool.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import round_views

from stragglersim import cli, rng
from stragglersim.config import ExperimentConfig, config_from_dict, load_config
from stragglersim.engine import Simulation
from stragglersim.latency import (
    PDPE_STANDARD_PROFILE,
    PDPE_STRAGGLER_PROFILE,
    PE_PROFILE,
    sample_lognormal_batch,
)
from stragglersim.model import ModelLayout, loss_and_grad
from stragglersim.verify import (
    check_gap_norm_bound,
    check_gap_recursion,
    check_gap_zero_mean,
    check_local_grad_norm,
    check_stationarity_schedule,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"


# ---- criterion 1: analytic gradients vs central finite differences ---- #


def _numeric_grad(w, layout, x, y, kwargs, h=1e-5):
    grad = np.empty_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        lp, _ = loss_and_grad(wp, layout, x, y, **kwargs)
        lm, _ = loss_and_grad(wm, layout, x, y, **kwargs)
        grad[i] = (lp.total - lm.total) / (2 * h)
    return grad


def test_acceptance_1_gradient_correctness_100_random_configs():
    start = time.monotonic()
    gen = rng.stream(2024, rng.VERIFY, 100)
    for _ in range(100):
        layout = ModelLayout(
            d_in=int(gen.integers(2, 7)),
            hidden=int(gen.choice([0, 3, 6])),
            n_classes=int(gen.integers(2, 6)),
        )
        n = int(gen.integers(1, 8))
        rho = float(gen.choice([0.0, 0.3, 1.2]))
        nu = float(gen.choice([0.0, 0.5]))
        kwargs = dict(
            rho=rho,
            nu=nu,
            distill_loss=str(gen.choice(["soft_ce", "logit_mse"])),
            distill_temperature=float(gen.choice([1.0, 2.0])),
        )
        if rho > 0:
            kwargs["teacher_logits"] = gen.standard_normal((n, layout.n_classes))
        if nu > 0:
            kwargs["anchor"] = gen.standard_normal(layout.n_params) * 0.5
        w = gen.standard_normal(layout.n_params) * 0.5
        x = gen.standard_normal((n, layout.d_in))
        y = gen.integers(layout.n_classes, size=n)
        _, grad = loss_and_grad(w, layout, x, y, **kwargs)
        numeric = _numeric_grad(w, layout, x, y, kwargs)
        scale = max(1.0, float(np.abs(numeric).max()))
        assert np.abs(grad - numeric).max() / scale < 1e-6
    assert time.monotonic() - start < 10.0


# ---- criteria 2-6: convergence-analysis checks ---- #


def test_acceptance_2_gap_recursion_closed_form():
    report = check_gap_recursion()
    assert report.passed, report.measured
    assert report.elapsed_s < 30.0


def test_acceptance_3_gap_zero_mean():
    report = check_gap_zero_mean()
    assert report.passed, report.measured
    assert report.elapsed_s < 120.0


def test_acceptance_4_gap_norm_bound():
    report = check_gap_norm_bound()
    assert report.passed, report.measured
    assert report.elapsed_s < 120.0


def test_acceptance_5_local_grad_second_moment_bound():
    report = check_local_grad_norm()
    assert report.passed, report.measured
    assert report.elapsed_s < 10.0


def test_acceptance_6_stationarity_rate_and_halving():
    report = check_stationarity_schedule()
    assert report.passed, report.measured
    assert report.measured["M_1024"] <= 0.5 * report.measured["M_64"]
    for T in (64, 256, 1024):
        assert report.measured[f"M_{T}"] <= report.measured[f"rhs_{T}"]


# ---- criterion 7: reduction equivalences ---- #


def _reduction_payload(algo: dict) -> ExperimentConfig:
    return config_from_dict(
        {
            "name": "reduction",
            "algo": algo,
            "dataset": {
                "n_classes": 4,
                "d_in": 8,
                "m_clients": 60,
                "median_shard_size": 10.0,
                "size_sigma": 0.5,
                "eval_size": 200,
                "straggler_classes": [0, 1],
                "n_straggler_clients": 12,
            },
            "latency": {"mode": "pdpe"},
            "model": {"hidden": 0},
            "budget": 500,
            "eval_every": 10 ** 9,
            "eval_cap": 64,
            "trials": 1,
            "base_seed": 0,
        }
    )


def test_acceptance_7a_fare_dust_rho0_reduces_to_fedavg_over_selection():
    # Identical cohorts, latency draws, and local training on a shared trial
    # seed; the history machinery must not perturb w when rho = 0.
    fedavg = _reduction_payload(
        {"name": "fedavg", "cohort_size": 5, "dispatch_size": 6, "eta_l": 0.1,
         "eta_g": 1.0, "batch_size": 4, "epochs": 1}
    )
    fare = _reduction_payload(
        {"name": "fare_dust", "cohort_size": 5, "dispatch_size": 6, "eta_l": 0.1,
         "eta_g": 1.0, "batch_size": 4, "epochs": 1, "rho": 0.0,
         "server_opt": "sgd", "history_k": 50}
    )
    sim_a = Simulation(fedavg, trial_seed=3, trace=True)
    sim_a.run()
    sim_b = Simulation(fare, trial_seed=3, trace=True)
    sim_b.run()
    log_a = round_views(sim_a.events)
    log_b = round_views(sim_b.events)
    assert len(log_a) == len(log_b) == 100
    worst = max(
        float(np.abs(ea.w_after - eb.w_after).max())
        for ea, eb in zip(log_a, log_b)
    )
    assert worst <= 1e-12


def test_acceptance_7b_feast_without_over_selection_tracks_w():
    # With B_plus == B every cohort member is fast, so the augmented delta
    # equals the applied delta; with kappa == 1 (eta_a == eta_g) the
    # auxiliary model must ride the w trajectory.
    feast = _reduction_payload(
        {"name": "feast", "cohort_size": 5, "eta_l": 0.1, "eta_g": 1.0,
         "batch_size": 4, "epochs": 1, "kappa": 1.0, "feast_beta": 0.99,
         "tau_max": 100000.0}
    )
    sim = Simulation(feast, trial_seed=3, trace=True)
    sim.run()
    w_log = round_views(sim.events)
    aux_log = [event.w for event in sim.events if event.kind == "aux_rounds"]
    assert len(w_log) == len(aux_log) == 100
    worst = max(
        float(np.abs(entry.w_after - aux).max())
        for entry, aux in zip(w_log, aux_log)
    )
    assert worst <= 1e-12


# ---- criterion 8: latency fidelity ---- #


def test_acceptance_8_round_durations_and_factor_medians():
    # Part 1: zero-sigma profiles make every client latency a closed form;
    # synchronous rounds must advance at exactly the max (full participation)
    # or the B-th order statistic (over-selection) of those latencies.
    payload = {
        "name": "latency_fidelity",
        "algo": {"name": "fedavg", "cohort_size": 5, "eta_l": 0.1, "eta_g": 1.0,
                 "batch_size": 4, "epochs": 1},
        "dataset": {
            "n_classes": 4, "d_in": 8, "m_clients": 40, "median_shard_size": 12.0,
            "size_sigma": 0.7, "eval_size": 100, "straggler_classes": [0, 1],
            "n_straggler_clients": 8,
        },
        "latency": {
            "mode": "pdpe",
            "standard": {"comm": [1.0, 0.0], "per_example": [-3.0, 0.0],
                         "overhead": [0.5, 0.0]},
            "straggler": {"comm": [2.5, 0.0], "per_example": [-2.0, 0.0],
                          "overhead": [1.0, 0.0]},
        },
        "model": {"hidden": 0},
        "budget": 50,
        "eval_every": 10 ** 9,
        "eval_cap": 64,
        "trials": 1,
        "base_seed": 0,
    }
    for dispatch_size in (None, 6):
        cfg_payload = json.loads(json.dumps(payload))
        cfg_payload["algo"]["dispatch_size"] = dispatch_size
        config = config_from_dict(cfg_payload)
        sim = Simulation(config, trial_seed=1, trace=True)
        sim.run()
        ids = sim.dataset.shards.ids.tolist()
        sizes = dict(zip(ids, sim.dataset.shards.sizes.tolist()))
        flags = dict(zip(ids, sim.dataset.shards.is_straggler.tolist()))
        rounds = round_views(sim.events)
        assert len(rounds) == 10
        for entry in rounds:
            finish_times = []
            for cid in entry.cohort:
                profile = config.latency.profile_for(flags[cid])
                closed = (
                    math.exp(profile.comm.mu)
                    + math.exp(profile.overhead.mu)
                    + math.exp(profile.per_example.mu) * sizes[cid]
                )
                expected = entry.started_at + closed
                assert entry.completed_at[cid] == expected
                finish_times.append(expected)
            finish_times.sort()
            assert entry.advanced_at == finish_times[config.algo.cohort_size - 1]

    # Part 2: each latency factor of each builtin profile is lognormal, so
    # its empirical median over a million draws must sit within 1% of e^mu.
    start = time.monotonic()
    gen = rng.stream(0, rng.LATENCY, 999)
    for profile in (PE_PROFILE, PDPE_STANDARD_PROFILE, PDPE_STRAGGLER_PROFILE):
        for params in (profile.comm, profile.per_example, profile.overhead):
            draws = sample_lognormal_batch(params, gen, 1_000_000)
            assert np.median(draws) == pytest.approx(math.exp(params.mu), rel=0.01)
    assert time.monotonic() - start < 60.0


# ---- criterion 9: directional replication of the straggler study ---- #


def test_acceptance_9_directional_replication(tmp_path):
    start = time.monotonic()
    names = ["fedavg_full", "fedavg_oversel", "feast", "fare_dust"]
    configs = [load_config(CONFIG_DIR / f"{name}.json") for name in names]
    assert [config.trials for config in configs] == [10] * 4
    # simulate's trial pool: one spawned worker per usable CPU, one BLAS thread each
    runs = [(config, tmp_path / name) for config, name in zip(configs, names)]
    finals = cli._run(runs, cli._usable_cpus())

    stats = {}
    for name, rows in zip(names, finals):
        assert len(rows) == 10
        lo, med, hi = np.percentile([r["straggler_acc"] for r in rows], [5.0, 50.0, 95.0])
        stats[name] = {
            "strag_lo": float(lo),
            "strag_med": float(med),
            "strag_hi": float(hi),
            "time_med": float(np.percentile([r["virtual_time_s"] for r in rows], 50.0)),
        }

    full = stats["fedavg_full"]
    over = stats["fedavg_oversel"]
    feast = stats["feast"]
    fare = stats["fare_dust"]

    # (a) over-selection costs straggler accuracy
    assert over["strag_med"] <= full["strag_med"] - 0.05, (over, full)
    # (b) the late-update algorithms recover it, with separated 90% bands
    for challenger in (feast, fare):
        assert challenger["strag_med"] >= over["strag_med"] + 0.10, (challenger, over)
        assert challenger["strag_lo"] > over["strag_hi"], (challenger, over)
    # (c) at half the full-participation training time or better
    assert feast["time_med"] <= 0.5 * full["time_med"], (feast, full)
    assert fare["time_med"] <= 0.5 * full["time_med"], (fare, full)
    assert time.monotonic() - start < 900.0


# ---- criterion 10: byte-identical simulate runs ---- #


def test_acceptance_10_simulate_determinism(tmp_path):
    config_path = CONFIG_DIR / "fedavg_oversel.json"
    dirs = [tmp_path / name for name in ("serial_a", "serial_b", "parallel")]
    common = ["simulate", "--config", str(config_path), "--trials", "2"]
    assert cli.main([*common, "--out", str(dirs[0])]) == 0
    assert cli.main([*common, "--out", str(dirs[1])]) == 0
    assert cli.main([*common, "--out", str(dirs[2]), "--jobs", "2"]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == ["manifest.json", "trial_000.jsonl", "trial_001.jsonl"]
    for name in names:
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref, f"rerun changed {name}"
        assert (dirs[2] / name).read_bytes() == ref, f"--jobs changed {name}"
