"""Golden outputs: fixed-seed results that a refactor must not move.

Each variant runs at a small budget for seeds 0 and 1. Counters, server
steps, virtual time, the time limit and every record must match
`golden.json` exactly; the output model must match to 1e-12. The
`simulate --trials 2` logs and manifests of the four acceptance configs, at
the same budget, must match by sha256.

A change that means to move outputs re-records the file and names every
field that moved:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import dataclasses
import functools
import hashlib
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

GOLDEN = Path(__file__).resolve().parent / "golden.json"
ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
ACCEPTANCE = ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
BUDGET = 300
SEEDS = (0, 1)
_CROWD = dict(eta_l=0.1, batch_size=20, buffer_size=10, max_concurrency=100)


def _acceptance(name, **changes):
    config = load_config(ACCEPTANCE_DIR / f"{name}.json")
    return dataclasses.replace(config, budget=BUDGET, **changes)


def _variants():
    fare = load_config(ACCEPTANCE_DIR / "fare_dust.json")
    feast = load_config(ACCEPTANCE_DIR / "feast.json")
    oversel = load_config(ACCEPTANCE_DIR / "fedavg_oversel.json")
    return {
        **{name: _acceptance(name) for name in ACCEPTANCE},
        "fedadam": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedadam", eta_l=0.1, eta_g=0.03, batch_size=20, adam_eps=0.01),
        ),
        # a percentile time limit on a synchronous driver
        "fedavg_oversel_time_limit": _acceptance(
            "fedavg_oversel", algo=dataclasses.replace(oversel.algo, time_limit=True)
        ),
        # no over-selection: each auxiliary round is ready at its own advance
        "feast_no_over_selection": _acceptance(
            "feast", algo=dataclasses.replace(feast.algo, over_selection=False)
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
        "fedbuff_busy_reuse_time_limit": _acceptance(
            "fedavg_full",
            algo=AlgoConfig("fedbuff", allow_busy_reuse=True, time_limit=True, **_CROWD),
        ),
        "feast_strict_sequential": _acceptance(
            "feast", algo=dataclasses.replace(feast.algo, strict_sequential=True)
        ),
        "fare_dust_nu_time_limit_s": _acceptance(
            "fare_dust",
            algo=dataclasses.replace(fare.algo, nu=0.05, time_limit=True, time_limit_s=30.0),
        ),
        # eval_cap below eval_size, evaluated every five server steps
        "fare_dust_mlp_logit_mse": _acceptance(
            "fare_dust",
            model=dataclasses.replace(fare.model, hidden=16, distill_loss="logit_mse"),
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


def _log_digests(tmp_dir: Path) -> dict[str, str]:
    """sha256 of every file `simulate --trials 2` writes for the acceptance
    configs, run at the golden budget."""
    digests = {}
    for name in ACCEPTANCE:
        payload = json.loads((ACCEPTANCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        payload["budget"] = BUDGET
        config_path = tmp_dir / f"{name}.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_dir / name
        code = cli.main(["simulate", "--config", str(config_path), "--trials", "2",
                         "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"simulate {name} exited {code}")
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
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


def record(path: Path = GOLDEN) -> None:
    variants = {
        name: {str(seed): _outcome(config, seed) for seed in SEEDS}
        for name, config in _variants().items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        digests = _log_digests(Path(tmp))
    golden = {"budget": BUDGET, "variants": variants, "simulate_sha256": digests}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
