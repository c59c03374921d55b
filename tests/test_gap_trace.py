"""FeAST's gap recursion, checked on the engine's own trace.

verify.check_engine_gap_recursion rebuilds every term of the paper's gap
recursion from traced feast runs and compares it, round by round, with the
traced gap. It needs no recorded output: it holds the engine's FeAST
orchestration (which deltas join a round, from which snapshot, in what
order) to the analysis. The check runs once per module; the parametrized
cases hold each of its nine runs to the recursion on its own.
"""

import dataclasses
from pathlib import Path

import pytest

from stragglersim import engine
from stragglersim.config import load_config
from stragglersim.verify import _traced_gap_error, check_engine_gap_recursion

ACCEPTANCE_DIR = Path(__file__).resolve().parent.parent / "configs" / "acceptance"
FEAST = load_config(ACCEPTANCE_DIR / "feast.json")
BUDGET = 1000
SEEDS = (0, 1, 2)
# the shipped tau_max folds every straggler; 120 s drops some; a strictly
# sequential run waits out each round's tau_max before the next starts
SETTINGS = {
    "shipped_tau_max": {},
    "tau_max_120": {"tau_max": 120.0},
    "strict_sequential": {"strict_sequential": True},
}
BOUND = 1e-12


def _config(setting: str):
    algo = dataclasses.replace(FEAST.algo, **SETTINGS[setting])
    return dataclasses.replace(FEAST, algo=algo, budget=BUDGET)


@pytest.fixture(scope="module")
def checked():
    """The check's report at seed 0 and its traced runs, as (config, seed, sim)
    in the order it made them."""
    runs = []
    simulation = engine.Simulation

    def spy(config, seed, *args, **kwargs):
        sim = simulation(config, seed, *args, **kwargs)
        runs.append((config, seed, sim))
        return sim

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Simulation", spy)
        report = check_engine_gap_recursion(base_seed=0)
    return report, runs


def test_the_engine_gap_recursion_check_passes(checked):
    report, runs = checked
    assert report.passed
    assert report.measured["worst_rel_error"] <= report.bound["tol"] == BOUND
    # the check runs the acceptance feast config at budget 1,000, seeds 0-2,
    # in its three settings, so its inline config cannot drift from the file
    assert [(config, seed) for config, seed, _ in runs] == [
        (_config(setting), seed) for setting in SETTINGS for seed in SEEDS
    ]
    # the check is not vacuous: late updates fold in every run, and 120 s
    # drops some in each of its runs, and only in those
    for setting in SETTINGS:
        assert report.measured[f"{setting}_min_late_folded"] > 0
        assert report.measured[f"{setting}_runs_dropping"] == 3 * (setting == "tau_max_120")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_the_traced_gap_follows_the_papers_recursion(checked, setting, seed):
    _, runs = checked
    (sim,) = [sim for config, s, sim in runs if config == _config(setting) and s == seed]
    assert _traced_gap_error(sim) <= BOUND
    # the check is not vacuous: late updates fold, and 120 s drops some
    assert sim.counters["late_folded"] > 0
    assert (sim.counters["dropped_after_deadline"] > 0) == (setting == "tau_max_120")
