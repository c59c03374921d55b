"""FeAST's gap recursion, checked on the engine's own trace.

For round t let B be its fast cohort, delta_f the sum of their deltas, and
g = (delta_f + the deltas folded late into round t) / count_plus, where
count_plus counts both. With gap_t = aux_t - w_t, the auxiliary model minus
the global one after t steps of each, the paper's analysis gives

    gap_{t+1} = beta * gap_t + eta_g * (delta_f / B - g) + beta * (eta_g - eta_a) * g

(beta = feast_beta, eta_a = kappa * eta_g), and gap_0 = 0 since the auxiliary
model starts as a copy of w. The test rebuilds every term of round t from a
traced run's events (aggregated_updates: the fast updates and w_{t+1};
late_folded: the folded updates with their round ids; aux_rounds: aux_{t+1})
and compares the recursion, one round at a time from the traced gap_t, with
the traced gap_{t+1}. It needs no recorded output: it holds the engine's
FeAST orchestration (which deltas join a round, from which snapshot, in what
order) to the analysis.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from stragglersim.config import load_config
from stragglersim.engine import Simulation

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
# a round's error is the norm of the difference over the norm of the traced
# gap; runs measured before this test read at most 1.7e-15
BOUND = 1e-12


def _worst_relative_error(sim: Simulation) -> float:
    steps = [e for e in sim.events if e.kind == "aggregated_updates"]
    aux = [e.w for e in sim.events if e.kind == "aux_rounds"]
    assert len(aux) == len(steps) > 0
    folded: dict[int, list[np.ndarray]] = {}
    for event in sim.events:
        if event.kind == "late_folded":
            for u in event.updates:
                folded.setdefault(u.round_id, []).append(u.delta)
    algo = sim.algo
    beta, eta_g, eta_a = algo.feast_beta, algo.eta_g, algo.resolved_eta_a()
    gap = np.zeros_like(aux[0])
    worst = 0.0
    for t, (step, aux_next) in enumerate(zip(steps, aux)):
        assert {u.round_id for u in step.updates} == {t}
        fast = [u.delta for u in step.updates]
        late = folded.pop(t, [])
        delta_f = np.sum(fast, axis=0)
        g = (delta_f + np.sum(late, axis=0)) / (len(fast) + len(late))
        predicted = beta * gap + eta_g * (delta_f / len(fast) - g) + beta * (eta_g - eta_a) * g
        gap = aux_next - step.w
        worst = max(worst, float(np.linalg.norm(predicted - gap) / np.linalg.norm(gap)))
    assert not folded, "an update folded into a round that never stepped"
    return worst


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_the_traced_gap_follows_the_papers_recursion(setting, seed):
    algo = dataclasses.replace(FEAST.algo, **SETTINGS[setting])
    config = dataclasses.replace(FEAST, algo=algo, budget=BUDGET)
    sim = Simulation(config, seed, trace=True)
    sim.run()
    assert _worst_relative_error(sim) <= BOUND
    # the check is not vacuous: late updates fold, and 120 s drops some
    assert sim.counters["late_folded"] > 0
    assert (sim.counters["dropped_after_deadline"] > 0) == (setting == "tau_max_120")
