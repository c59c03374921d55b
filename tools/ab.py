"""Compare the simulator at a git revision with the working tree, in one process.

    python tools/ab.py REV [--pairs N] [--config PATH ...] [--json PATH]

The tool extracts REV's src/ with `git archive` into a temporary directory
and loads it beside the working tree's src/ as two packages, which works
because the package imports itself only relatively. BLAS runs on one thread,
set before numpy loads. Each side loads its configs and builds their datasets
once: the four acceptance configs and the fedbuff_crowd and mlp_eval
benchmark configs (read only), then each config that --config names (read
only; repeatable), such as a large-population config kept outside the repo.

Pair i runs every config once on each side at seed 1000 + i, the configs and
the two sides of each in shuffled order. Pair i also builds, on each side,
the dataset of every distinct dataset section and data seed (the four
acceptance configs share one) by calling data.build_dataset directly, not
through the configs' dataset cache.

A trial or build is timed three ways: by its main thread's CPU time
(time.thread_time, which leaves out a trial's evaluation thread and a
build's eval-split thread), by the process's CPU time (time.process_time,
which counts them) and by wall time. A ratio is working tree over REV, so
below 1 is faster; the tool prints per config and per build the median of
each ratio over the pairs, its 95% bootstrap interval (2,000 resamples of
the pairs at a fixed seed, so a rerun on the same times prints the same
interval) and the pairs each side of it won.

Both sides of a pair must produce the same sha256 of output_w, the counters,
total_time_s, server_steps and the records, and each build the same sha256
of its shards, kept rows, eval split and dropped ids. Any difference exits 1.

--json PATH also writes the run to PATH: the environment, REV's and the
working tree's commits, the raw per-pair seconds of every config and build
on each side by each clock, each ratio's median, bootstrap interval and
pair wins, and the mismatches. A perf change commits the file as
BENCH_<sha>.json, sha being the commit it measures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import logging
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = tuple(
    ROOT / "configs" / "acceptance" / f"{name}.json"
    for name in ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
) + tuple(
    ROOT / "benchmarks" / "configs" / f"{name}.json" for name in ("fedbuff_crowd", "mlp_eval")
)
FIRST_SEED = 1000
# resamples and seed of the bootstrap interval of a ratio's median
RESAMPLES = 2000
BOOTSTRAP_SEED = 0


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
    """The package at package_dir, imported as name: its config, data and engine modules."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    logging.getLogger(name).setLevel(logging.ERROR)
    return tuple(importlib.import_module(f"{name}.{m}") for m in ("config", "data", "engine"))


class Side:
    """One package with the configs at paths loaded and their datasets built."""

    def __init__(self, name: str, package_dir: Path, paths: list[Path]) -> None:
        config, self.data, self.engine = load(name, package_dir)
        self.paths = paths
        self.configs = [config.load_config(path) for path in paths]
        self.datasets = [cfg.build_dataset() for cfg in self.configs]
        shared = {}
        for path, cfg in zip(paths, self.configs):
            shared.setdefault((cfg.dataset, cfg.effective_data_seed()), []).append(path.stem)
        # (name, (dataset section, data seed)) of each distinct build, named
        # after the first config that uses it: "data of fedavg_full +4"
        self.builds = [
            (f"data of {stems[0]}" + (f" +{len(stems) - 1}" if len(stems) > 1 else ""), section)
            for section, stems in shared.items()
        ]

    def trial(self, k: int, seed: int) -> tuple[tuple[float, ...], str]:
        """(seconds by CLOCKS, output digest) of config k at seed."""
        sim = self.engine.Simulation(self.configs[k], seed, self.datasets[k])
        seconds, result = timed(sim.run)
        return seconds, digest(result)

    def build(self, j: int) -> tuple[tuple[float, ...], str]:
        """(seconds by CLOCKS, dataset digest) of build j."""
        seconds, dataset = timed(self.data.build_dataset, *self.builds[j][1])
        return seconds, dataset_digest(dataset, self.data)


# the clocks a trial or build is timed by, named as the tool prints them
CLOCKS = {"thread cpu": time.thread_time, "process cpu": time.process_time,
          "wall": time.perf_counter}


def timed(call, *args):
    """(the seconds call(*args) took by each of CLOCKS, its result)."""
    starts = [clock() for clock in CLOCKS.values()]
    result = call(*args)
    ends = [clock() for clock in CLOCKS.values()]
    return tuple(end - start for start, end in zip(starts, ends)), result


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


def dataset_digest(dataset, data) -> str:
    """sha256 over every shard's id, group, labels and features with their
    dtypes, the eval arrays, the eval straggler rows and the dropped ids.
    The shards come from data.shard_report_rows, data being the dataset's
    own data module, whose rows both trees give alike; they tile the kept
    arrays in id order, so a running sum of sizes gives their start rows.
    tests/test_data.py records it for fixed builds, loading this file, which
    therefore sets nothing before main runs."""
    h = hashlib.sha256()
    start = 0
    for row in data.shard_report_rows(dataset):
        rows = slice(start, start + row["n_examples"])
        start = rows.stop
        labels, features = dataset.labels[rows], dataset.features[rows]
        is_straggler = row["group"] == "straggler"
        h.update(f"{row['client_id']}:{is_straggler}:{labels.dtype}:{features.dtype}".encode())
        h.update(labels.tobytes())
        h.update(features.tobytes())
    for a in (dataset.eval_total.features, dataset.eval_total.labels, dataset.eval_straggler_rows):
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    h.update(repr(dataset.dropped_clients).encode())
    return h.hexdigest()


def ratio_summary(rev_s: list[float], tree_s: list[float]) -> dict:
    """The median of the pairs' ratios tree / rev, its 95% bootstrap
    interval, and the pairs the tree won. The interval is the 2.5th and
    97.5th percentile of the medians of RESAMPLES resamples of the pairs,
    drawn with replacement at BOOTSTRAP_SEED."""
    ratios = [b / a for a, b in zip(rev_s, tree_s)]
    draw = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(draw.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return {"median": statistics.median(ratios), "ci95": [cuts[0], cuts[-1]],
            "tree_faster": sum(r < 1.0 for r in ratios), "pairs": len(ratios)}


def ratio_line(summary: dict) -> str:
    lo, hi = summary["ci95"]
    return (f"x{summary['median']:.3f} [{lo:.3f}, {hi:.3f}] "
            f"({summary['tree_faster']}/{summary['pairs']} faster)")


def compare(rev: Side, tree: Side, pairs: int) -> tuple[dict, list[str]]:
    """Per config name and per build name, the seconds of each pair on each
    side ("rev", "tree") by each of CLOCKS, and the pairs whose outputs differ."""
    jobs = [(path.stem, lambda side, seed, k=k: side.trial(k, seed))
            for k, path in enumerate(tree.paths)]
    jobs += [(name, lambda side, seed, j=j: side.build(j))
             for j, (name, _) in enumerate(tree.builds)]
    times = {name: {clock: {"rev": [], "tree": []} for clock in CLOCKS} for name, _ in jobs}
    mismatches = []
    order = random.Random(0)
    for i in range(pairs):
        seed = FIRST_SEED + i
        order.shuffle(jobs)
        for name, run in jobs:
            sides = [rev, tree]
            order.shuffle(sides)
            runs = {side: run(side, seed) for side in sides}
            (rev_s, rev_digest), (tree_s, tree_digest) = runs[rev], runs[tree]
            if rev_digest != tree_digest:
                mismatches.append(f"{name}, pair {i + 1} (seed {seed})")
            for clock, a, b in zip(CLOCKS, rev_s, tree_s):
                times[name][clock]["rev"].append(a)
                times[name][clock]["tree"].append(b)
    return times, mismatches


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def report(args, paths: list[Path], times: dict, summaries: dict, mismatches: list[str]) -> dict:
    """The run as --json writes it."""
    return {
        "tool": "tools/ab.py",
        "rev": {"name": args.rev, "commit": git("rev-parse", args.rev)},
        "tree": {"commit": git("rev-parse", "HEAD"),
                 "src_dirty": bool(git("status", "--porcelain", "--", "src"))},
        "environment": {
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpus_usable": importlib.import_module("_ab_tree.cli")._usable_cpus(),
            "blas_threads": 1,
        },
        "pairs": args.pairs,
        "first_seed": FIRST_SEED,
        "configs": [str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)
                    for path in paths],
        "ratio": "tree / rev, per pair; below 1 is faster",
        "jobs": {name: {clock: {"seconds": by_clock[clock], "ratio": summaries[name][clock]}
                        for clock in CLOCKS}
                 for name, by_clock in times.items()},
        "mismatches": mismatches,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per config and per build")
    parser.add_argument("--config", type=Path, action="append", default=[], metavar="PATH",
                        help="a further config to run in every pair (repeatable)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the environment, raw times and ratios to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    paths = [*CONFIGS, *(path.resolve() for path in args.config)]
    for path in args.config:
        if not path.is_file():
            parser.error(f"--config {path}: no such file")
    if len({path.stem for path in paths}) < len(paths):
        parser.error("each config needs a file name of its own")
    # One BLAS thread, set before either package loads numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        rev = Side("_ab_rev", extract(args.rev, Path(tmp)), paths)
        tree = Side("_ab_tree", ROOT / "src" / "stragglersim", paths)
        times, mismatches = compare(rev, tree, args.pairs)
    summaries = {name: {clock: ratio_summary(s["rev"], s["tree"]) for clock, s in by_clock.items()}
                 for name, by_clock in times.items()}
    print(f"working tree against {args.rev}, {args.pairs} pair(s) per config and per build, "
          f"seeds from {FIRST_SEED}, one BLAS thread; ratio = tree / rev")
    width = max(map(len, summaries))
    for name, by_clock in summaries.items():
        lines = "   ".join(f"{clock} {ratio_line(s)}" for clock, s in by_clock.items())
        print(f"  {name:{width}s} {lines}")
    for mismatch in mismatches:
        print(f"OUTPUT MISMATCH: {mismatch}")
    total = len(summaries) * args.pairs
    print(f"outputs bitwise equal in {total - len(mismatches)} of {total} pairs")
    if args.json:
        run = report(args, paths, times, summaries, mismatches)
        args.json.write_text(json.dumps(run, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
