"""Golden outputs: fixed-seed results that a refactor must not move.

Each variant runs at a small budget for seeds 0 and 1. Counters, server
steps, virtual time, the time limit and every record must match
`golden.json` exactly; the output model must match to 1e-12. The
`simulate --trials 2` logs, manifests and summary lines of the four
acceptance configs, at the same budget, must match by sha256, and so must the
reports: the `verify --out` JSON of four checks (without the wall-clock
`elapsed_s`), the files and stdout of `data-report` and `latency-report
--draws 20000` on `fedavg_full` and on its 2,000-client crowd dataset section
(which drops shards), a two-point `sweep` (its tree and stdout), and `report`
over one of its points and, with `--force-mixed`, over both.

A change that means to move outputs re-records the file and names every
field that moved:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stragglersim import cli
from stragglersim.algorithms import AlgoConfig
from stragglersim.config import load_config
from stragglersim.data import build_dataset
from stragglersim.engine import Simulation
from stragglersim.latency import PE_MODE, PE_PROFILE, LatencyScenario

GOLDEN = Path(__file__).resolve().parent / "golden.json"
ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
ACCEPTANCE = ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
BUDGET = 300
SEEDS = (0, 1)
_CROWD = dict(eta_l=0.1, batch_size=20, buffer_size=10, max_concurrency=100)
# 2,000 small clients, 300 of them stragglers: the section drops shards
_CROWD_DATASET = dict(m_clients=2000, median_shard_size=8.0, n_straggler_clients=300)


def _acceptance(name, **changes):
    config = load_config(ACCEPTANCE_DIR / f"{name}.json")
    return dataclasses.replace(config, budget=BUDGET, **changes)


def _zero_sigma(name, **changes):
    """An acceptance config whose latency factors are all fixed (sigma 0), so
    clients of one group and shard size complete at the same time."""
    config = _acceptance(name, **changes)
    fixed = {
        group: dataclasses.replace(profile, **{
            factor: dataclasses.replace(getattr(profile, factor), sigma=0.0)
            for factor in ("comm", "per_example", "overhead")
        })
        for group, profile in (("standard_profile", config.latency.standard_profile),
                               ("straggler_profile", config.latency.straggler_profile))
    }
    return dataclasses.replace(config, latency=dataclasses.replace(config.latency, **fixed))


def _variants():
    fare = load_config(ACCEPTANCE_DIR / "fare_dust.json")
    feast = load_config(ACCEPTANCE_DIR / "feast.json")
    oversel = load_config(ACCEPTANCE_DIR / "fedavg_oversel.json")
    full = load_config(ACCEPTANCE_DIR / "fedavg_full.json")
    return {
        **{name: _acceptance(name) for name in ACCEPTANCE},
        "fedadam": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedadam", eta_l=0.1, eta_g=0.03, batch_size=20, adam_eps=0.01),
        ),
        # a percentile time limit on a synchronous driver
        "fedavg_oversel_time_limit": _acceptance(
            "fedavg_oversel", algo=dataclasses.replace(oversel.algo, time_limit_percentile=75.0)
        ),
        # no over-selection: each auxiliary round is ready at its own advance
        "feast_no_over_selection": _acceptance(
            "feast", algo=dataclasses.replace(feast.algo, dispatch_size=None)
        ),
        # stragglers fold until the deadline, later ones are dropped
        "feast_tau_max_120": _acceptance(
            "feast", algo=dataclasses.replace(feast.algo, tau_max=120.0)
        ),
        "fedbuff": _acceptance("fedavg_full", algo=AlgoConfig("fedbuff", **_CROWD)),
        "fedbuff_ema_rho_nu": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedbuff", ema_enabled=True, rho=0.2, nu=0.05, **_CROWD),
        ),
        # history teachers pay the download factor, the empty-history round
        # (the current model) and fedbuff's global-model teacher do not
        "fare_dust_teacher_download_2": _acceptance(
            "fare_dust", latency=dataclasses.replace(fare.latency, teacher_download_factor=2.0)
        ),
        "fedbuff_rho_teacher_download_2": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedbuff", rho=0.2, **_CROWD),
            latency=dataclasses.replace(full.latency, teacher_download_factor=2.0),
        ),
        "fedbuff_time_limit": _acceptance(
            "fedavg_full", algo=AlgoConfig("fedbuff", time_limit_percentile=75.0, **_CROWD)
        ),
        "feast_strict_sequential": _acceptance(
            "feast", algo=dataclasses.replace(feast.algo, strict_sequential=True)
        ),
        "fare_dust_nu_time_limit_s": _acceptance(
            "fare_dust",
            algo=dataclasses.replace(fare.algo, nu=0.05, time_limit_s=30.0),
        ),
        # eval_cap below eval_size, evaluated every five server steps
        "fare_dust_mlp16_eval_every_5_cap_3000": _acceptance(
            "fare_dust",
            model=dataclasses.replace(fare.model, hidden=16),
            eval_every=5,
            eval_cap=3000,
        ),
        # full-size evaluation after every server step, MLP and linear
        "fare_dust_mlp64_eval_every_1": _acceptance(
            "fare_dust",
            model=dataclasses.replace(fare.model, hidden=64),
            eval_every=1,
            eval_cap=16000,
        ),
        "fedavg_full_eval_every_1": _acceptance("fedavg_full", eval_every=1),
        # tau_max 0 steps the auxiliary model at its round's server step, so
        # the final record replaces the tick at the budget's instant
        "feast_tau_max_0_eval_every_1": _acceptance(
            "feast", eval_every=1, algo=dataclasses.replace(feast.algo, tau_max=0.0)
        ),
        # tied completion times: which late updates wait for the round's close
        **{f"{name}_zero_sigma": _zero_sigma(name)
           for name in ("fedavg_oversel", "fare_dust", "feast")},
        # tied completions: a refill may pick a client that completes at its own instant
        "fedbuff_zero_sigma": _zero_sigma("fedavg_full", algo=AlgoConfig("fedbuff", **_CROWD)),
        # 2,000 small clients, some shards dropped, 400 in flight
        "fedbuff_crowd_300": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedbuff", eta_l=0.1, batch_size=20, buffer_size=20,
                            max_concurrency=400),
            dataset=dataclasses.replace(full.dataset, **_CROWD_DATASET),
        ),
        # knobs no other variant sets away from their defaults
        "fedavg_oversel_factor_1_4": _acceptance(
            "fedavg_oversel", algo=dataclasses.replace(oversel.algo, dispatch_size=70)
        ),
        "fedavg_oversel_time_limit_p40": _acceptance(
            "fedavg_oversel",
            algo=dataclasses.replace(oversel.algo, time_limit_percentile=40.0),
        ),
        "fare_dust_skip_distill_t2": _acceptance(
            "fare_dust",
            algo=dataclasses.replace(fare.algo, skip_distill_when_no_history=True),
            model=dataclasses.replace(fare.model, distill_temperature=2.0),
        ),
        "fare_dust_server_sgd": _acceptance(
            "fare_dust",
            algo=dataclasses.replace(fare.algo, server_opt="sgd", adam_eps=AlgoConfig.adam_eps),
        ),
        "fedadam_betas": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedadam", eta_l=0.1, eta_g=0.03, batch_size=20, adam_eps=0.01,
                            adam_beta1=0.8, adam_beta2=0.95),
        ),
        "feast_eta_a_0_5": _acceptance("feast", algo=dataclasses.replace(feast.algo, kappa=0.5)),
        # the per-example scenario: both groups draw from one profile
        "feast_pe": _acceptance(
            "feast", latency=LatencyScenario(PE_MODE, PE_PROFILE, PE_PROFILE)
        ),
    }


@functools.cache
def _dataset(dataset_config, data_seed):
    return build_dataset(dataset_config, data_seed)


def _outcome(config, seed) -> dict:
    sim = Simulation(config, seed, _dataset(config.dataset, config.effective_data_seed()))
    result = sim.run()
    return {
        "counters": result.counters,
        "server_steps": result.server_steps,
        "total_time_s": result.total_time_s,
        "tau_limit": sim.tau_limit,
        "records": [dataclasses.asdict(r) for r in result.records],
        "output_w": result.output_w.tolist(),
    }


def _run_cli(argv: list[str], out: Path) -> str:
    """Run one command; return its stdout with the output path replaced by <out>."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:1])} exited {code}")
    return stdout.getvalue().replace(str(out), "<out>")


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _acceptance_payload(name: str, budget: int = BUDGET) -> dict:
    payload = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    payload["budget"] = budget
    return payload


def _log_digests(tmp_dir: Path) -> dict[str, str]:
    """sha256 of every file `simulate --trials 2` writes for the acceptance
    configs, run at the golden budget, and of its stdout."""
    digests = {}
    for name in ACCEPTANCE:
        config_path = tmp_dir / f"{name}.json"
        config_path.write_text(json.dumps(_acceptance_payload(name)), encoding="utf-8")
        out = tmp_dir / name
        stdout = _run_cli(["simulate", "--config", str(config_path), "--trials", "2",
                           "--out", str(out)], out)
        digests[f"{name}/stdout"] = _sha256(stdout)
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    return digests


# verify checks quick enough for tier-1 (about 1.2 s together)
VERIFY_SUITES = ("gap_recursion", "stationarity_schedule", "gap_norm_bound", "local_grad_norm")
REPORT_DRAWS = 20000
# two fare_dust points, two trials each, at a small budget
SWEEP = {"parameters": {"algo.rho": [0.0, 0.1]}, "objective": "straggler_acc"}
SWEEP_BUDGET = 150


def _report_digests(tmp_dir: Path) -> dict[str, str]:
    """sha256 of the verify JSON (without elapsed_s, in the order written)
    and of every file and the stdout of data-report, latency-report, sweep
    and report."""
    digests = {}
    for suite in VERIFY_SUITES:
        out = tmp_dir / f"{suite}.json"
        _run_cli(["verify", "--suite", suite, "--out", str(out)], out)
        report = json.loads(out.read_text(encoding="utf-8"))
        for check in report["checks"]:
            del check["elapsed_s"]
        digests[f"verify/{suite}.json"] = _sha256(json.dumps(report, indent=2))
    crowd_path = tmp_dir / "crowd.json"
    crowd = _acceptance_payload("fedavg_full")
    crowd["dataset"].update(_CROWD_DATASET)
    crowd_path.write_text(json.dumps(crowd), encoding="utf-8")
    for suffix, config in (("", ACCEPTANCE_DIR / "fedavg_full.json"), ("-crowd", crowd_path)):
        out = tmp_dir / f"data{suffix}"
        stdout = _run_cli(["data-report", "--config", str(config), "--out", str(out)], out)
        digests[f"data-report{suffix}/stdout"] = _sha256(stdout)
        for name in ("clients.csv", "classes.csv"):
            digests[f"data-report{suffix}/{name}"] = _sha256((out / name).read_bytes())
        out = tmp_dir / f"latency{suffix}.csv"
        stdout = _run_cli(["latency-report", "--config", str(config), "--draws",
                           str(REPORT_DRAWS), "--out", str(out)], out)
        digests[f"latency-report{suffix}/stdout"] = _sha256(stdout)
        digests[f"latency-report{suffix}/latency.csv"] = _sha256(out.read_bytes())

    sweep_path = tmp_dir / "sweep.json"
    base = {**_acceptance_payload("fare_dust", SWEEP_BUDGET), "trials": 2}
    sweep_path.write_text(json.dumps({"base": base, **SWEEP}), encoding="utf-8")
    out = tmp_dir / "sweep"
    digests["sweep/stdout"] = _sha256(_run_cli(["sweep", "--config", str(sweep_path),
                                                "--out", str(out)], out))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[f"sweep/{path.relative_to(out).as_posix()}"] = _sha256(path.read_bytes())
    for key, inputs, flags in (("report", out / "point_000", []),
                               ("report-mixed", out, ["--force-mixed"])):
        csv_path = tmp_dir / f"{key}.csv"
        stdout = _run_cli(["report", "--in", str(inputs), "--out", str(csv_path), *flags],
                          csv_path)
        digests[f"{key}/stdout"] = _sha256(stdout)
        digests[f"{key}/summary.csv"] = _sha256(csv_path.read_bytes())
    return digests


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(_variants()))
def test_fixed_seed_outputs_match_the_golden_file(name):
    config = _variants()[name]
    for seed in SEEDS:
        expected = _golden()["variants"][name][str(seed)]
        got = _outcome(config, seed)
        w = np.array(got.pop("output_w"))
        np.testing.assert_allclose(w, expected["output_w"], rtol=0, atol=1e-12,
                                   err_msg=f"{name} seed {seed}")
        assert got == {k: v for k, v in expected.items() if k != "output_w"}, (name, seed)


def test_acceptance_simulate_logs_match_the_golden_digests(tmp_path):
    assert _log_digests(tmp_path) == _golden()["simulate_sha256"]


def test_report_outputs_match_the_golden_digests(tmp_path):
    assert _report_digests(tmp_path) == _golden()["report_sha256"]


def record(path: Path = GOLDEN) -> None:
    variants = {
        name: {str(seed): _outcome(config, seed) for seed in SEEDS}
        for name, config in _variants().items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        digests = _log_digests(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        reports = _report_digests(Path(tmp))
    golden = {"budget": BUDGET, "variants": variants, "simulate_sha256": digests,
              "report_sha256": reports}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
