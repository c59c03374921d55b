"""Compare the simulator at a git revision with the working tree, in one process.

    python tools/ab.py REV [--pairs N]

The tool extracts REV's src/ with `git archive` into a temporary directory
and loads it beside the working tree's src/ as two packages, which works
because the package imports itself only relatively. BLAS runs on one thread,
set before numpy loads. Each side loads its configs and builds their datasets
once: the four acceptance configs and the fedbuff_crowd and mlp_eval
benchmark configs (read only).

Pair i runs every config once on each side at seed 1000 + i, the configs and
the two sides of each in shuffled order. A trial is timed by its main
thread's CPU time (time.thread_time, which leaves out the evaluation thread)
and by wall time. A ratio is working tree over REV, so below 1 is faster; the
tool prints per config the median CPU and wall ratios and the pairs each side
of a ratio won.

Both sides of a pair must produce the same sha256 of output_w, the counters,
total_time_s, server_steps and the records. Any difference exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import logging
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before either package loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = tuple(
    ROOT / "configs" / "acceptance" / f"{name}.json"
    for name in ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
) + tuple(
    ROOT / "benchmarks" / "configs" / f"{name}.json" for name in ("fedbuff_crowd", "mlp_eval")
)
FIRST_SEED = 1000


def extract(rev: str, into: Path) -> Path:
    """REV's package directory, extracted from `git archive` under into."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "stragglersim"


def load(name: str, package_dir: Path):
    """The package at package_dir, imported as name: its config and engine modules."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    logging.getLogger(name).setLevel(logging.ERROR)
    return importlib.import_module(f"{name}.config"), importlib.import_module(f"{name}.engine")


class Side:
    """One package with its configs loaded and their datasets built."""

    def __init__(self, name: str, package_dir: Path) -> None:
        config, self.engine = load(name, package_dir)
        self.configs = [config.load_config(path) for path in CONFIGS]
        self.datasets = [cfg.build_dataset() for cfg in self.configs]

    def trial(self, k: int, seed: int) -> tuple[float, float, str]:
        """(CPU seconds, wall seconds, output digest) of config k at seed."""
        sim = self.engine.Simulation(self.configs[k], seed, self.datasets[k])
        cpu, wall = time.thread_time(), time.perf_counter()
        result = sim.run()
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
        return cpu, wall, digest(result)


def digest(result) -> str:
    """sha256 of the output weights, counters, virtual time, steps and records."""
    w = result.output_w
    h = hashlib.sha256(repr((w.dtype.str, w.shape)).encode())
    h.update(w.tobytes())
    h.update(repr((
        sorted(result.counters.items()),
        result.total_time_s,
        result.server_steps,
        [dataclasses.astuple(record) for record in result.records],
    )).encode())
    return h.hexdigest()


def ratio_line(ratios: list[float]) -> str:
    faster = sum(r < 1.0 for r in ratios)
    return f"x{statistics.median(ratios):.3f} ({faster}/{len(ratios)} faster)"


def compare(rev: Side, tree: Side, pairs: int) -> tuple[dict, dict, list[str]]:
    """Per config name, the CPU and wall ratios of each pair, and the pairs
    whose outputs differ."""
    names = [path.stem for path in CONFIGS]
    cpu = {name: [] for name in names}
    wall = {name: [] for name in names}
    mismatches = []
    order = random.Random(0)
    for i in range(pairs):
        seed = FIRST_SEED + i
        ks = list(range(len(CONFIGS)))
        order.shuffle(ks)
        for k in ks:
            sides = [rev, tree]
            order.shuffle(sides)
            runs = {side: side.trial(k, seed) for side in sides}
            (rev_cpu, rev_wall, rev_digest), (cpu_s, wall_s, tree_digest) = runs[rev], runs[tree]
            if rev_digest != tree_digest:
                mismatches.append(f"{names[k]} seed {seed}")
            cpu[names[k]].append(cpu_s / rev_cpu)
            wall[names[k]].append(wall_s / rev_wall)
    return cpu, wall, mismatches


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of trials per config")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        rev = Side("_ab_rev", extract(args.rev, Path(tmp)))
        tree = Side("_ab_tree", ROOT / "src" / "stragglersim")
        cpu, wall, mismatches = compare(rev, tree, args.pairs)
    print(f"working tree against {args.rev}, {args.pairs} pair(s) per config, seeds from "
          f"{FIRST_SEED}, one BLAS thread; ratio = tree / rev")
    for name in cpu:
        print(f"  {name:16s} cpu {ratio_line(cpu[name])}   wall {ratio_line(wall[name])}")
    for mismatch in mismatches:
        print(f"OUTPUT MISMATCH: {mismatch}")
    total = len(cpu) * args.pairs
    print(f"outputs bitwise equal in {total - len(mismatches)} of {total} pairs")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
