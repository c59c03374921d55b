"""Record the fixed-seed outputs that every benchmark trial is checked against.

Run once, at the commit whose behaviour is the reference:

    python3 benchmarks/record_reference.py

It runs every (workload, config, trial seed) the benchmark can run, full
size and smoke size, and writes benchmarks/reference.json.
"""

from __future__ import annotations

import json
import logging
import sys
import time

import run  # pins BLAS threads before numpy loads, as for a benchmark run

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402
from stragglersim import engine  # noqa: E402


def main() -> int:
    logging.getLogger("stragglersim").setLevel(logging.ERROR)
    trials = {}
    for smoke in (False, True):
        for workload in bench.WORKLOADS.values():
            cfgs, datasets = bench.setup(workload, smoke)
            for cfg, ds in zip(cfgs, datasets):
                start = time.perf_counter()
                for seed in workload.seeds:
                    result = engine.Simulation(cfg, seed, ds).run()
                    trials[bench.reference_key(workload, cfg, seed, smoke)] = bench.outcome(result)
                per_trial = (time.perf_counter() - start) / len(workload.seeds)
                print(f"{'smoke ' if smoke else ''}{workload.name}/{cfg.name}: "
                      f"{len(workload.seeds)} trials, {per_trial:.3f} s each", flush=True)
    payload = {"environment": bench.environment(), "trials": trials}
    bench.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
