"""Command line interface for running and inspecting simulations.

Subcommands:
  simulate        run the trials of one experiment config, one JSONL log per
                  trial plus a manifest
  sweep           grid-sweep parameters over a base config, ranked CSV out
  verify          run the numerical verification suite
  report          aggregate trial logs into a summary CSV
  latency-report  percentile table of the configured latency scenario
  data-report     per-client and per-class tables of the generated dataset

Exit codes: 0 success, 1 failed verification, 2 bad input (missing file,
malformed or unknown config or sweep-file keys, wrong-typed values, negative
seeds, a count flag below 1, cohorts larger than the dataset, a dataset the
generator cannot satisfy, a malformed trial log or a record line missing a
field, an --out path that cannot be written, found before the command reads
a log, builds a dataset or runs a trial or check), 3 a trial failed at run
time (RuntimeError or FloatingPointError).

Trial seeds are base_seed + trial_index. simulate is a sweep of one point:
both run all their trials in one pool of --jobs processes (default 1) and
print one summary line per config, as report does. Each trial writes its
own file, and creates its directory once it has run, so outputs are
byte-identical regardless of parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__, metrics, rng
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    config_to_dict,
    load_config,
    load_sweep,
    sweep_points,
)
from .data import class_report_rows, shard_report_rows, total_examples
from .engine import Simulation
from .latency import latency_percentiles
from .verify import CHECKS, run_suite, suite_checks


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _check_out_dir(out: Path) -> None:
    """ConfigError unless out is or could be made a directory. It makes
    nothing, so a failure leaves no empty directory."""
    nearest = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest} is not a directory")


def _check_out_file(out: Path) -> None:
    """ConfigError unless out can be written as a file: it is no directory,
    and its directory exists."""
    if out.is_dir():
        raise ConfigError(f"--out {out}: is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {out}: directory {out.parent} does not exist")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    keeps one (macOS does not), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trial_to_file(config: ExperimentConfig, seed: int, out_path: Path) -> None:
    """Worker: run one trial and write its JSONL log (used across processes)."""
    result = Simulation(config, seed).run()
    header = {
        "tool_version": __version__,
        "config_hash": config_hash(config),
        "experiment": config.name,
        "algo": config.algo.name,
        "seed": seed,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    metrics.write_run_jsonl(
        out_path,
        header=header,
        records=result.records,
        summary={"seed": seed, **result.summary_dict()},
    )


# A trial is single-threaded, and idle BLAS threads in every worker contend
# for the cores; a forked worker would keep the thread count its parent's
# numpy loaded with.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(runs: list[tuple[ExperimentConfig, Path]], jobs: int) -> list[list[dict]]:
    """Run every trial of every (config, out_dir) pair, all in one pool when
    jobs > 1, of no more workers than trials or usable CPUs; then write each
    directory's manifest and return its final records. The workers are
    spawned with one BLAS thread each, unless the user set any of
    _BLAS_THREAD_VARS. A failing trial cancels the trials that have not
    started."""
    files = [[d / f"trial_{i:03d}.jsonl" for i in range(c.trials)] for c, d in runs]
    tasks = [
        (config, config.base_seed + i, path)
        for (config, _), paths in zip(runs, files)
        for i, path in enumerate(paths)
    ]
    if jobs == 1:
        for task in tasks:
            _run_trial_to_file(*task)
    else:
        workers = min(jobs, len(tasks), _usable_cpus())
        pinned = [] if any(v in os.environ for v in _BLAS_THREAD_VARS) else _BLAS_THREAD_VARS
        os.environ.update(dict.fromkeys(pinned, "1"))
        context = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            for fut in [pool.submit(_run_trial_to_file, *task) for task in tasks]:
                fut.result()
        finally:
            pool.shutdown(cancel_futures=True)
            for var in pinned:
                os.environ.pop(var, None)
    for (config, out_dir), paths in zip(runs, files):
        manifest = {
            "tool_version": __version__,
            "config_hash": config_hash(config),
            "base_seed": config.base_seed,
            "trials": config.trials,
            "data_seed": config.effective_data_seed(),
            "files": sorted(path.name for path in paths),
            "config": config_to_dict(config),
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return [[metrics.read_run_jsonl(path)[1][-1] for path in paths] for paths in files]


def _band_columns(
    band: metrics.MetricSummary, prefix: str, parts=("median", "lo", "hi"), digits: int = 6
) -> dict:
    """CSV columns <prefix>_<part> of one band, rounded, in the order of parts."""
    return {f"{prefix}_{part}": round(getattr(band, part), digits) for part in parts}


def _summarize(label: str, finals: list[dict]) -> dict[str, metrics.MetricSummary]:
    """Print the one summary line of a set of trials and return its bands."""
    bands = metrics.summarize_trials(finals)
    total, straggler = bands["total_acc"], bands["straggler_acc"]
    print(
        f"{label}: n={len(finals)} "
        f"total_acc={total.median:.4f} [{total.lo:.4f}, {total.hi:.4f}] "
        f"straggler_acc={straggler.median:.4f} [{straggler.lo:.4f}, {straggler.hi:.4f}] "
        f"time_s={bands['virtual_time_s'].median:.2f}"
    )
    return bands


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    [finals] = _run([(config, out_dir)], args.jobs)
    _summarize(config.name or config.algo.name, finals)
    print(f"wrote {config.trials} trial logs and manifest.json to {out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep = load_sweep(args.config)
    points = sweep_points(sweep, args.config)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    runs = [(config, out_dir / f"point_{idx:03d}") for idx, (_, config) in enumerate(points)]
    point_finals = _run(runs, args.jobs)

    rows = []
    for idx, ((assignment, _), finals) in enumerate(zip(points, point_finals)):
        bands = _summarize(f"point {idx} {assignment}", finals)
        rows.append({
            "point": idx,
            **assignment,
            **_band_columns(bands[sweep.objective], "objective", ("lo", "median", "hi")),
            **_band_columns(bands["total_acc"], "total_acc", ("median",)),
            **_band_columns(bands["straggler_acc"], "straggler_acc", ("median",)),
            **_band_columns(bands["virtual_time_s"], "time_s", ("median",), digits=2),
            "best": 0,
        })

    rows.sort(key=lambda r: (-r["objective_median"], r["point"]))
    rows[0]["best"] = 1
    csv_path = out_dir / "sweep.csv"
    metrics.write_csv(csv_path, rows, list(rows[0]))  # assignment keys come sorted
    print(f"best point {rows[0]['point']}: {sweep.objective} "
          f"median={rows[0]['objective_median']}")
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite_checks(args.suite)  # an unknown name fails before --out is checked
    if args.out:
        _check_out_file(Path(args.out))  # before the suite, which takes seconds
    report = run_suite(args.suite, base_seed=args.seed)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['name']} ({check['elapsed_s']:.2f}s): {check['detail']}")
        if not check["passed"]:
            print(f"     measured={check['measured']} bound={check['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    print("suite passed" if report["passed"] else "suite FAILED")
    return 0 if report["passed"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    _check_out_file(Path(args.out))
    files: list[Path] = []
    for entry in args.inputs:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.jsonl")))
        elif path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(entry)
    if not files:
        raise FileNotFoundError(f"no .jsonl logs under {args.inputs}")

    by_hash: dict[str, dict] = {}
    for path in files:
        header, records, _ = metrics.read_run_jsonl(path)
        chash = header.get("config_hash", "")
        group = by_hash.setdefault(
            chash,
            {"experiment": header.get("experiment", ""), "algo": header.get("algo", ""),
             "finals": []},
        )
        group["finals"].append(records[-1])
    if len(by_hash) > 1 and not args.force_mixed:
        hashes = ", ".join(h[:12] for h in sorted(by_hash))
        raise ConfigError(
            f"inputs mix {len(by_hash)} config hashes ({hashes}); "
            "pass --force-mixed to aggregate anyway"
        )

    rows = []
    for chash in sorted(by_hash):
        group = by_hash[chash]
        label = group["experiment"] or group["algo"]
        if len(by_hash) > 1:
            label = f"{label} {chash[:12]}"
        bands = _summarize(label, group["finals"])
        rows.append(
            {
                "experiment": group["experiment"],
                "algo": group["algo"],
                "config_hash": chash[:12],
                "n_trials": len(group["finals"]),
                **_band_columns(bands["total_acc"], "total_acc"),
                **_band_columns(bands["straggler_acc"], "straggler_acc"),
                **_band_columns(bands["virtual_time_s"], "time_s", ("median",), digits=2),
            }
        )
    metrics.write_csv(args.out, rows, list(rows[0]))
    print(f"wrote {args.out}")
    return 0


def cmd_latency_report(args: argparse.Namespace) -> int:
    _check_out_file(Path(args.out))
    config = load_config(args.config)
    dataset = config.build_dataset()
    gen = rng.stream(args.seed, rng.LATENCY)
    epochs = max(1, round(args.draws / dataset.n_clients))
    table = latency_percentiles(config.latency, dataset, gen, epochs)
    rows = [
        {"group": group, "percentile": pct, "seconds": round(seconds, 4)}
        for group, cols in sorted(table.items())
        for pct, seconds in sorted(cols.items())
    ]
    metrics.write_csv(args.out, rows, ["group", "percentile", "seconds"])
    for row in rows:
        print(f"{row['group']:>9} p{row['percentile']:<4} {row['seconds']:.2f}s")
    if "standard" in table and "straggler" in table:
        ratio = table["straggler"][50.0] / table["standard"][50.0]
        print(f"straggler/standard median ratio: {ratio:.2f}")
    print(f"wrote {args.out}")
    return 0


def cmd_data_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    config = load_config(args.config)
    dataset = config.build_dataset()
    out_dir.mkdir(parents=True, exist_ok=True)
    clients_csv = out_dir / "clients.csv"
    classes_csv = out_dir / "classes.csv"
    metrics.write_csv(
        clients_csv, shard_report_rows(dataset), ["client_id", "group", "n_examples"]
    )
    class_rows = class_report_rows(dataset, config.dataset.n_classes)
    metrics.write_csv(classes_csv, class_rows, ["group", "class", "n_examples"])
    n_straggler = int(dataset.shards.is_straggler.sum())
    print(
        f"{dataset.n_clients} clients ({n_straggler} straggler, "
        f"{dataset.n_clients - n_straggler} standard), {total_examples(dataset.shards)} examples, "
        f"{len(dataset.dropped_clients)} shard(s) dropped"
    )
    n_eval = len(dataset.eval_total)
    print(f"eval: {n_eval} total, {len(dataset.eval_straggler_rows)} straggler-class")
    print(f"wrote {clients_csv} and {classes_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stragglersim",
        description="Discrete-event simulator for federated learning with straggler clients.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment's trials")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override base seed")
    p.add_argument("--trials", type=_int_at_least(1), default=None, help="override trial count")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="grid-sweep parameters over a base config")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="numerical verification suite")
    p.add_argument("--suite", default="all", help=f"all, or one of: {', '.join(CHECKS)}")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate trial logs into a CSV")
    p.add_argument("--in", dest="inputs", nargs="+", required=True,
                   help="log directories or .jsonl files")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.add_argument("--force-mixed", action="store_true",
                   help="aggregate logs with different config hashes")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("latency-report", help="latency percentiles by client group")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="CSV path")
    p.add_argument("--draws", type=_int_at_least(1), default=1_000_000,
                   help="total Monte Carlo draws")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_latency_report)

    p = sub.add_parser("data-report", help="dataset composition tables")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_data_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        what = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {what}: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
