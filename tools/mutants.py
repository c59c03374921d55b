"""Require the tests to kill every mutant of src/ on a checked-in list.

    python tools/mutants.py

A mutant is an edit of one file: an exact old text, which must occur in it
exactly once, so that code which moves breaks the list loudly instead of
leaving a stale mutant, and the new text that replaces it. A mutant that one
edit cannot make lists further (old, new) hunks of the same file in more.

The tool first runs every named test file on an unmutated copy of the
working tree, which must pass. Then, for each mutant, it copies the working
tree (without .git and caches) into a temporary directory, applies the edit
there and runs `pytest -x -q` on the mutant's test files, with the copy's
src/ first on the path. The mutant is killed when pytest fails and survives
when it passes. The tool prints one line per mutant, then the survivors, and
exits 1 if any survive. A survivor calls for a new test, never for dropping
the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
# seconds one pytest run may take; the slowest named file takes about 10
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    file: str
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]
    more: tuple[tuple[str, str], ...] = ()


ENGINE = "src/stragglersim/engine.py"
ALGORITHMS = "src/stragglersim/algorithms.py"
RNG = "src/stragglersim/rng.py"
CONFIG = "src/stragglersim/config.py"
GOLDEN = "tests/test_golden.py"

MUTANTS = (
    Mutant(
        ENGINE,
        "while busy and busy[0][0] <= now:",
        "while busy and busy[0][0] < now:",
        "a client completing at now is not yet idle",
        (GOLDEN,),
    ),
    Mutant(
        ENGINE,
        '            raise RuntimeError(f"client {client_id} dispatched while busy")\n'
        "        del idle[i]\n",
        '            raise RuntimeError(f"client {client_id} dispatched while busy")\n',
        "a dispatched client stays in the idle pool",
        ("tests/test_engine.py",),
    ),
    Mutant(
        ENGINE,
        "(update.completed_at, client_id)",
        "(self.now, client_id)",
        "a dispatch re-enters the idle pool at its own instant",
        (GOLDEN,),
    ),
    Mutant(
        ENGINE,
        "        plan = model.draw_batch_plan(shuffle_gen, n, steps, b)\n",
        "        plan = (shuffle_gen, n, steps, b)\n",
        "the batch plan is drawn when the update trains, not at its dispatch",
        ("tests/test_engine.py",),
        more=((
            "        plans, ws, teachers, starts, sizes = zip(*(u.work for u in updates))\n",
            "        plans, ws, teachers, starts, sizes = zip(*(u.work for u in updates))\n"
            "        plans = [model.draw_batch_plan(*p) for p in plans]\n",
        ),),
    ),
    Mutant(
        ENGINE,
        "profile = self.config.latency.profile_for(self._groups[k])",
        "profile = self.config.latency.profile_for(not self._groups[k])",
        "a dispatch draws the client's latency from the other group's profile",
        (GOLDEN,),
    ),
    Mutant(
        ENGINE,
        "                rng.stream_from_key(latency_keys[k]),\n"
        "                rng.stream_from_key(shuffle_keys[k]),\n",
        "                rng.stream_from_key(latency_keys[self._ids[k]]),\n"
        "                rng.stream_from_key(shuffle_keys[self._ids[k]]),\n",
        "a client's streams come from the key rows at its id, not at its kept position",
        (GOLDEN,),
    ),
    Mutant(
        ENGINE,
        "start, n = self._starts[k], self._sizes[k]",
        "start, n = self._starts[k + 1], self._sizes[k]",
        "a client trains from the next client's start row",
        (GOLDEN,),
    ),
    Mutant(
        ENGINE,
        "        if self._evals and self._evals[-1][:3] == stamp:\n",
        "        if self._evals and self._evals[-1][:3] == stamp and isinstance(accuracies, Future):\n",
        "the final record is appended beside the same-instant tick it should replace",
        ("tests/test_engine.py", GOLDEN),
    ),
    Mutant(
        ENGINE,
        "            self._client_streams.clear()\n",
        "",
        "a finished run keeps its generators in _client_streams",
        ("tests/test_engine.py",),
    ),
    Mutant(
        ALGORITHMS,
        "                (held if i < last and u.completed_at == close_at else late).append(u)\n",
        "                late.append(u)\n",
        "a round's late update tied with its close is not held for the close",
        (GOLDEN,),
    ),
    Mutant(
        ALGORITHMS,
        "        w_before = sim.state.w\n"
        "        summed = sim.apply_server_update(fast, late)\n",
        "        summed = sim.apply_server_update(fast, late)\n"
        "        w_before = sim.state.w\n",
        "FeAST's auxiliary round snapshots the model after the server step",
        ("tests/test_gap_trace.py",),
    ),
    Mutant(
        ALGORITHMS,
        "sorted(updates, key=lambda u: (u.round_id, u.client_id))",
        "sorted(updates, key=lambda u: (u.round_id, u.client_id), reverse=True)",
        "the canonical delta sum adds in reverse order",
        ("tests/test_algorithms.py",),
    ),
    Mutant(
        ALGORITHMS,
        "        state.w = state.w - algo.eta_g * g\n",
        "        state.w -= algo.eta_g * g\n",
        "the SGD server step writes into the served model",
        ("tests/test_algorithms.py",),
    ),
    Mutant(
        ALGORITHMS,
        "            state.ema = algo.ema_beta * state.ema + (1.0 - algo.ema_beta) * state.w\n",
        "            state.ema *= algo.ema_beta\n"
        "            state.ema += (1.0 - algo.ema_beta) * state.w\n",
        "the EMA update writes into the served EMA",
        ("tests/test_algorithms.py",),
    ),
    Mutant(
        ALGORITHMS,
        "        state.adam_m = b1 * state.adam_m + (1.0 - b1) * g\n",
        "        state.adam_m *= b1\n"
        "        state.adam_m += (1.0 - b1) * g\n",
        "Adam's first moment is updated in place",
        ("tests/test_algorithms.py",),
    ),
    Mutant(
        ALGORITHMS,
        "    return beta * (aux - eta_a * g) + (1.0 - beta) * w_plus\n",
        "    aux -= eta_a * g\n"
        "    aux *= beta\n"
        "    aux += (1.0 - beta) * w_plus\n"
        "    return aux\n",
        "the auxiliary step writes into the served auxiliary model",
        ("tests/test_algorithms.py",),
    ),
    Mutant(
        ALGORITHMS,
        "return self.cohort_size if self.dispatch_size is None else self.dispatch_size",
        "return self.cohort_size",
        "a synchronous round dispatches cohort_size clients whatever dispatch_size says",
        (GOLDEN,),
    ),
    Mutant(
        ALGORITHMS,
        'return self.name == "fare_dust" or self.ema_enabled',
        'return self.name == "fare_dust"',
        "ema_enabled keeps no EMA outside fare_dust",
        (GOLDEN,),
    ),
    Mutant(
        ALGORITHMS,
        "return self.kappa * self.eta_g",
        "return self.eta_g",
        "FeAST's auxiliary step ignores kappa",
        (GOLDEN,),
    ),
    Mutant(
        CONFIG,
        '"algo.skip_distill_when_no_history": _only("fare_dust", distills=True),',
        '"algo.skip_distill_when_no_history": _only("fare_dust"),',
        "skip_distill_when_no_history loads on a fare_dust config that sends no teacher",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        CONFIG,
        "if key in payload.get(section, {}) and not acts(config):",
        'if section == "algo" and key in payload.get(section, {}) and not acts(config):',
        "the knob table checks only the algo section",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        CONFIG,
        "lambda c: c.algo.time_limit_s is None and c.algo.time_limit_percentile is None,",
        "lambda c: True,",
        "the algo.epochs rule never fires",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        ALGORITHMS,
        "        self.buffer.append(update)\n",
        "        if len(sim.queue) < 0:\n"
        "            return\n"
        "        self.buffer.append(update)\n",
        "a driver hook reads sim.queue, past the driver boundary, without changing outputs",
        ("tests/test_source.py",),
    ),
    Mutant(
        "src/stragglersim/model.py",
        "a.swapaxes(0, -2).copy().sum(axis=0)[..., None, :]",
        "a.swapaxes(-1, -2).copy().sum(axis=-1)[..., None, :]",
        "the batch sum adds its copy along the last axis, pairwise",
        ("tests/test_model.py",),
    ),
    Mutant(
        "src/stragglersim/model.py",
        "anchors = w.copy() if nu > 0 else None",
        "anchors = w if nu > 0 else None",
        "the proximal anchor follows the running weights",
        ("tests/test_model.py", GOLDEN),
    ),
    Mutant(
        ALGORITHMS,
        "            self.buffer.clear()\n",
        "            self.buffer.clear()\n"
        "            return\n",
        "a buffer flush skips its refill",
        ("tests/test_engine.py",),
    ),
    Mutant(
        RNG,
        '"state": {"counter": (0, 0, 0, 0), "key": key},',
        '"state": {"counter": gen.bit_generator.state["state"]["counter"], "key": key},',
        "a rekeyed generator keeps the previous stream's counter",
        ("tests/test_rng.py", "tests/test_data.py"),
    ),
    Mutant(
        RNG,
        '"buffer": (0, 0, 0, 0),',
        '"buffer": gen.bit_generator.state["buffer"],',
        "a rekeyed generator keeps the previous stream's buffer and buffer position",
        ("tests/test_rng.py", "tests/test_data.py"),
        more=(('"buffer_pos": 4,', '"buffer_pos": gen.bit_generator.state["buffer_pos"],'),),
    ),
    Mutant(
        RNG,
        "    rekey(gen, key)\n    return gen\n",
        "    return gen\n",
        "a spare is handed out without rekey",
        ("tests/test_rng.py", GOLDEN),
    ),
    Mutant(
        "src/stragglersim/data.py",
        "labels += np.repeat(column, sizes) <= uniform",
        "labels += np.repeat(column, sizes) < uniform",
        "a label leaves out the cdf entries equal to its uniform",
        ("tests/test_data.py",),
    ),
)


def copy_tree(into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text()
    for old, new in ((mutant.old, mutant.new), *mutant.more):
        count = text.count(old)
        if count != 1:
            sys.exit(f"{mutant.file}: the old text of {mutant.reason!r} occurs {count} times:\n{old}")
        text = text.replace(old, new)
    path.write_text(text)


def passes(tree: Path, tests) -> bool:
    """Whether pytest passes the tests in tree; a run past TIMEOUT_S fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            stdin=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    named = sorted({t for mutant in MUTANTS for t in mutant.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if not passes(copy_tree(Path(tmp)), named):
            print(f"the unmutated tree fails {' '.join(named)}; fix that first", file=sys.stderr)
            return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            apply(tree, mutant)
            survived = passes(tree, mutant.tests)
        status = "SURVIVED" if survived else "killed"
        print(
            f"{status:8} {time.perf_counter() - start:5.1f} s  {mutant.file}: {mutant.reason}",
            flush=True,
        )
        if survived:
            survivors.append(mutant)
    if survivors:
        print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survived:")
        for mutant in survivors:
            print(f"  {mutant.file}: {mutant.reason} (ran {' '.join(mutant.tests)})")
        return 1
    print(f"\nall {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
