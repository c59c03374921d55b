"""Run the stragglersim benchmark from the root of a checkout.

    python3 benchmarks/run.py --workload acceptance --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload fedbuff_crowd --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --smoke

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. --smoke
runs every workload at a tiny budget with tracing on and checks that every
metric named in BENCHMARK.json is reported, that span self times fit in the
traced wall time, and that no trial failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# One BLAS thread, set before numpy loads: a trial is single-threaded, and
# an idle BLAS pool spinning on the second core of a small host makes
# timings swing with the host's CPU allotment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")


def _print_spans(run) -> None:
    print(f"  {'span':24s} {'calls/trial':>12s} {'self s/trial':>13s} {'share':>7s}")
    n = len(run.traced_times)
    for name, row in sorted(run.span_table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"  {name:24s} {row['calls'] / n:12.1f} {row['self_s'] / n:13.5f} "
                  f"{100 * run.shares[name]:6.1f}%")
    print(f"  span self time covers {100 * run.traced_self_sum / run.traced_wall:.1f}% "
          f"of {n} traced trials' wall time")


def _result_line(run, metrics: dict) -> str:
    return json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _report(bench, run, metrics: dict, env: dict) -> None:
    bench.OUT.mkdir(exist_ok=True)
    stem = f"{run.workload.name}-trace{int(run.trace)}"
    record = {
        "environment": env,
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "timed_trials": len(run.times),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": run.failures,
        "trial_s": run.times,
        "probe_s": run.probes,
        "setup_probe_s": run.setup_probes,
    }
    if run.trace:
        record["spans_per_trial"] = {
            k: {f: v / len(run.traced_times) for f, v in row.items()}
            for k, row in run.span_table.items()
        }
        run.tracer.save(bench.OUT / f"spans-{run.workload.name}.npz")
    (bench.OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def benchmark(bench, workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = bench.environment()
    print("environment:", json.dumps(env))
    run = bench.Run(bench.WORKLOADS[workload], seed, seconds, trace, smoke=False)
    run.execute()
    n_cfg = len(run.workload.config_paths)
    print(f"workload {workload}, seed {seed}: {len(run.times)} timed trials "
          f"({len(run.times) // n_cfg} passes over {n_cfg} config(s)), "
          f"{n_cfg} warm-up, setup repeated {bench.SETUP_REPEATS}x")
    if run.cut_short:
        print(f"WARNING: host slower than the reference; ran {run.cut_short[0]} of "
              f"{run.cut_short[1]} passes before the time cap")
    setup_scale, scale = run.host_scales()
    raw = run.end_to_end_metrics(1.0, 1.0)
    e2e = run.end_to_end_metrics(setup_scale, scale)
    print(run.tail_note)
    print(f"trial_fail_ratio {len(run.failures) / run.attempted:.6g} ratio "
          f"(trials fail if they raise or differ from reference.json; "
          f"accuracy tolerance {bench.ACC_TOLERANCE})")
    for failure in run.failures:
        print("FAILED", failure)
    print(f"host probe mean {1e3 * bench.PROBE_REF_S / scale:.3f} ms during trials, "
          f"{1e3 * bench.PROBE_REF_S / setup_scale:.3f} ms during set-up, reference "
          f"{1e3 * bench.PROBE_REF_S:.3f} ms: host seconds x {scale:.4f} (set-up "
          f"x {setup_scale:.4f}) = reference seconds")
    print("end-to-end metrics in host seconds, as measured:")
    _print_metrics(raw)
    print("end-to-end metrics at reference host speed"
          + (" (untraced copies of the traced trials):" if trace else ":"))
    _print_metrics(e2e)
    if trace:
        metrics = run.trace_metrics()
        print("per-layer metrics in host seconds (per traced trial; data/config per setup):")
        _print_metrics(metrics)
        _print_spans(run)
    else:
        metrics = e2e
    _report(bench, run, metrics, env)
    print(_result_line(run, metrics))
    return 0 if not run.failures else 1


def smoke(bench) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted_e2e = {m["name"] for m in spec["end_to_end"]}
    wanted_layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name, workload in bench.WORKLOADS.items():
        run = bench.Run(workload, 0, 0.0, trace=True, smoke=True)
        run.execute()
        e2e = run.end_to_end_metrics(*run.host_scales())
        layers = run.trace_metrics()
        missing = (wanted_e2e - set(e2e)) | (wanted_layers - set(layers))
        if missing:
            problems.append(f"{name}: metrics missing: {sorted(missing)}")
        if run.traced_self_sum > run.traced_wall:
            problems.append(f"{name}: span self times {run.traced_self_sum:.4f} s exceed "
                            f"traced wall time {run.traced_wall:.4f} s")
        if run.setup_self_sum > run.setup_wall:
            problems.append(f"{name}: setup span self times exceed set-up wall time")
        fail_ratio = len(run.failures) / run.attempted
        if fail_ratio != 0:
            problems.append(f"{name}: trial_fail_ratio {fail_ratio}: {run.failures}")
        print(f"smoke {name}: {run.attempted} trials, self time covers "
              f"{100 * run.traced_self_sum / run.traced_wall:.1f}% of traced wall time")
    for problem in problems:
        print("SMOKE FAILURE", problem)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "stragglersim" / "__init__.py").is_file():
        print(f"error: {SRC / 'stragglersim'} not found; run from a checkout that has the "
              "simulator's source", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    logging.getLogger("stragglersim").setLevel(logging.ERROR)
    if args.smoke:
        return smoke(bench)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required without --smoke")
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
    return benchmark(bench, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
