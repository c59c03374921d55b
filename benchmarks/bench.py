"""Host-time benchmark of stragglersim on three workloads.

A workload is a list of configs and a pool of trial seeds. One run loads
and builds every config (several times, to time set-up), runs one warm-up
trial per config, then runs a fixed number of passes: as many as take
--seconds at the reference commit. A pass runs every config once, at the
next seed of a permutation of the pool drawn from the run's --seed, so both
sides of a comparison run the same trials. Every trial's fixed-seed outputs
are checked against `reference.json`, recorded at the commit that
introduced the benchmark.

With tracing on, each pass runs every trial twice, once untraced and once
under the tracer; the per-layer numbers come from the traced copies and the
pairwise slowdown is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stragglersim import config, data, engine
from tracing import Tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# Counters, server steps and virtual time must match exactly. Accuracies
# may move by this much (absolute): a change of summation order in local
# training flips a few argmax predictions out of 16000.
ACC_TOLERANCE = 2e-3
SETUP_REPEATS = 11
# The tail is the slowest trial that has at least this many slower ones.
TAIL_BEYOND = 10
# A run on a host much slower than the reference stops starting passes
# after this multiple of --seconds, so it still ends in bounded time.
TIME_CAP = 1.6
SMOKE_BUDGET = 100
# Mean probe time of the reference host (2-vCPU x86_64 container, numpy
# 2.4.6, OpenBLAS 0.3.31 on one thread) in its faster phase. The host's
# speed drifts by up to 2x over minutes, through slower execution and
# through stalls of a few milliseconds, so end-to-end times are reported
# at reference speed: host seconds times PROBE_REF_S / the run's mean probe
# time. A mean, not a median, so that the stalls count.
PROBE_REF_S = 7.5e-3


@dataclass(frozen=True)
class Workload:
    name: str
    config_paths: tuple[Path, ...]
    seeds: tuple[int, ...]
    # Host seconds of one pass at the reference commit on a 2-core x86_64
    # container; it turns --seconds into a fixed number of passes.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


_ACCEPTANCE = REPO / "configs" / "acceptance"
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance",
            tuple(
                _ACCEPTANCE / f"{n}.json"
                for n in ("fedavg_full", "fedavg_oversel", "fare_dust", "feast")
            ),
            tuple(range(10)),  # the criterion-9 trial seeds
            2.5,
        ),
        Workload("fedbuff_crowd", (HERE / "configs" / "fedbuff_crowd.json",), tuple(range(64)), 0.85),
        Workload("mlp_eval", (HERE / "configs" / "mlp_eval.json",), tuple(range(64)), 0.85),
    )
}


# ---- host speed ---- #


class Probe:
    """A fixed computation, independent of the simulator, timed between trials.

    It mixes the three kinds of work the workloads do: chains of small
    numpy calls (local SGD), a Python scan over a client array (cohort
    sampling) and a larger matmul with tanh (MLP evaluation).
    """

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self.x = gen.standard_normal((20, 32))
        self.w = gen.standard_normal((32, 10))
        self.busy = gen.random(2000)
        self.big = gen.standard_normal((4000, 32))
        self.big_w = gen.standard_normal((32, 64))

    def __call__(self) -> float:
        start = time.perf_counter()
        w = self.w.copy()
        for _ in range(300):
            z = self.x @ w
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            w -= 1e-3 * (self.x.T @ p)
        busy = self.busy
        for _ in range(6):
            [i for i in range(len(busy)) if busy[i] <= 0.5]
        for _ in range(2):
            np.tanh(self.big @ self.big_w)
        return time.perf_counter() - start


# ---- environment ---- #


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


# ---- trials and their reference outputs ---- #


def setup(workload: Workload, smoke: bool):
    """Config load plus dataset build for every config of the workload."""
    cfgs = [config.load_config(p) for p in workload.config_paths]
    if smoke:
        cfgs = [dataclasses.replace(c, budget=SMOKE_BUDGET) for c in cfgs]
    return cfgs, [data.build_dataset(c.dataset, c.effective_data_seed()) for c in cfgs]


def outcome(result: engine.RunResult) -> dict:
    final = result.final_record
    return {
        "counters": result.counters,
        "server_steps": result.server_steps,
        "total_time_s": result.total_time_s,
        "total_acc": final.total_acc,
        "straggler_acc": final.straggler_acc,
    }


def reference_key(workload: Workload, cfg, seed: int, smoke: bool) -> str:
    return f"{'smoke/' if smoke else ''}{workload.name}/{cfg.name}/{seed}"


def mismatch(got: dict, want: dict | None) -> str | None:
    """Why a trial's outputs differ from its reference, or None."""
    if want is None:
        return "no reference recorded"
    for key in ("counters", "server_steps", "total_time_s"):
        if got[key] != want[key]:
            return f"{key}: got {got[key]!r}, reference {want[key]!r}"
    for key in ("total_acc", "straggler_acc"):
        if abs(got[key] - want[key]) > ACC_TOLERANCE:
            return f"{key}: got {got[key]!r}, reference {want[key]!r}"
    return None


@dataclass
class Trial:
    seconds: float
    updates: int
    counters: dict
    error: str | None


def run_trial(cfg, seed: int, dataset, want: dict | None) -> Trial:
    start = time.perf_counter()
    try:
        result = engine.Simulation(cfg, seed, dataset).run()
    except Exception as exc:  # a failing trial is counted, not fatal
        return Trial(time.perf_counter() - start, 0, {}, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    got = outcome(result)
    return Trial(seconds, result.aggregated_updates, result.counters, mismatch(got, want))


# ---- one benchmark run ---- #


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest trial with TAIL_BEYOND slower ones.

    With too few trials this is the maximum, at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def pass_seeds(workload: Workload, seed: int) -> list[int]:
    order = list(workload.seeds)
    random.Random(seed).shuffle(order)
    return order


class Run:
    """State of one benchmark run: its trials, failures and timings."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.references = json.loads(REFERENCE.read_text())["trials"]
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []
        self.updates = 0
        self.tracer = Tracer() if trace else None
        self.traced_times: list[float] = []
        self.traced_counters: list[dict] = []
        self.overheads: list[float] = []
        self.cut_short: tuple[int, int] | None = None
        self.probe = Probe()
        self.setup_probes: list[float] = []
        self.probes: list[float] = []

    def trial(self, cfg, seed: int, dataset) -> Trial:
        key = reference_key(self.workload, cfg, seed, self.smoke)
        result = run_trial(cfg, seed, dataset, self.references.get(key))
        self.attempted += 1
        if result.error is not None:
            self.failures.append(f"{key}: {result.error}")
        return result

    def execute(self) -> None:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            self.setup_probes.append(self.probe())
            start = time.perf_counter()
            with self.tracer or contextlib.nullcontext():
                cfgs, datasets = setup(self.workload, self.smoke)
            setup_times.append(time.perf_counter() - start)
        self.setup_s = statistics.median(setup_times)
        self.setup_wall = sum(setup_times)
        self.datasets = datasets

        seeds = pass_seeds(self.workload, self.seed)
        for cfg, ds in zip(cfgs, datasets):
            self.trial(cfg, seeds[-1], ds)  # warm-up, not timed

        passes = 1 if self.smoke else self.workload.passes(self.seconds)
        if self.tracer is not None:
            passes = max(1, round(passes / 2))  # each pass runs every trial twice
        begin = time.perf_counter()
        for k in range(passes):
            if time.perf_counter() - begin > TIME_CAP * self.seconds and not self.smoke:
                self.cut_short = (k, passes)
                break
            seed = seeds[k % len(seeds)]
            for cfg, ds in zip(cfgs, datasets):
                self.probes.append(self.probe())
                plain = self.trial(cfg, seed, ds)
                self.times.append(plain.seconds)
                self.updates += plain.updates
                if self.tracer is not None:
                    self.tracer.current_trial = len(self.traced_times)
                    with self.tracer:
                        traced = self.trial(cfg, seed, ds)
                    self.traced_times.append(traced.seconds)
                    self.traced_counters.append(traced.counters)
                    self.overheads.append(traced.seconds / plain.seconds - 1.0)
        self.probes.append(self.probe())

    def host_scales(self) -> tuple[float, float]:
        """Factors that turn host seconds of set-up and of trials into
        reference seconds, from the probes taken during each."""
        return (
            PROBE_REF_S / statistics.mean(self.setup_probes),
            PROBE_REF_S / statistics.mean(self.probes),
        )

    def end_to_end_metrics(self, setup_scale: float, scale: float) -> dict:
        """End-to-end metrics with host seconds multiplied by the scales."""
        times = [t * scale for t in self.times]
        tail_s, tail_pct = tail(times)
        self.tail_note = f"trial_s_tail is p{tail_pct:.1f} of {len(times)} timed trials"
        return {
            "updates_per_s": (self.updates / sum(times), "1/s"),
            "trial_s_p50": (statistics.median(times), "s"),
            "trial_s_tail": (tail_s, "s"),
            "setup_s": (self.setup_s * setup_scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "trial_pass_ratio": (1.0 - len(self.failures) / self.attempted, "ratio"),
        }

    def trace_metrics(self) -> dict:
        tracer = self.tracer
        n = len(self.traced_times)
        trial_ids = set(range(n))
        spans = tracer.by_name(trial_ids)
        setup_spans = tracer.by_name({-1})

        def per_trial(name: str, field: str) -> float:
            return spans.get(name, {}).get(field, 0.0) / n

        def per_setup(name: str) -> float:
            return setup_spans.get(name, {}).get("incl_s", 0.0) / SETUP_REPEATS

        counts = tracer.counts
        events = counts["engine.events"] / n
        batches = counts["model.batches"] / n
        engine_self = sum(
            per_trial(name, "self_s")
            for name in ("engine.loop", "engine.dispatch", "engine.sample_cohort")
        )
        total = {k: sum(c.get(k, 0) for c in self.traced_counters) for k in
                 ("aggregated_updates", "late_folded", "dispatches")}
        self.shares = {
            name: v["self_s"] / sum(self.traced_times) for name, v in spans.items()
        }
        self.span_table = spans
        cols = tracer.arrays()
        in_trials = cols["trial"] >= 0
        self.traced_self_sum = float(cols["self_s"][in_trials].sum())
        self.traced_wall = sum(self.traced_times)
        self.setup_self_sum = float(cols["self_s"][~in_trials].sum())
        return {
            "model.local_sgd_calls": (per_trial("model.local_sgd", "calls"), "count"),
            "model.local_sgd_s": (per_trial("model.local_sgd", "self_s"), "s"),
            "model.batches": (batches, "count"),
            "model.us_per_batch": (
                1e6 * per_trial("model.local_sgd", "self_s") / batches if batches else 0.0,
                "us",
            ),
            "model.examples": (counts["model.examples"] / n, "count"),
            "model.teacher_forward_calls": (counts["model.teacher_forward_calls"] / n, "count"),
            "engine.events": (events, "count"),
            "engine.heap_peak": (tracer.heap_peak, "count"),
            "engine.sample_cohort_calls": (per_trial("engine.sample_cohort", "calls"), "count"),
            "engine.sample_cohort_s": (per_trial("engine.sample_cohort", "self_s"), "s"),
            "engine.dispatch_self_s": (per_trial("engine.dispatch", "self_s"), "s"),
            "engine.loop_self_s": (per_trial("engine.loop", "self_s"), "s"),
            "engine.us_per_event": (1e6 * engine_self / events if events else 0.0, "us"),
            "algorithms.driver_self_s": (per_trial("algorithms.driver", "self_s"), "s"),
            "algorithms.server_apply_s": (per_trial("algorithms.server_apply", "self_s"), "s"),
            "algorithms.delta_sum_s": (per_trial("algorithms.delta_sum", "self_s"), "s"),
            "algorithms.teacher_s": (per_trial("algorithms.teacher", "self_s"), "s"),
            "algorithms.useful_ratio": (
                (total["aggregated_updates"] + total["late_folded"]) / max(1, total["dispatches"]),
                "ratio",
            ),
            "metrics.evaluate_calls": (per_trial("metrics.evaluate", "calls"), "count"),
            "metrics.evaluate_s": (per_trial("metrics.evaluate", "self_s"), "s"),
            "latency.draws": (per_trial("latency.draw", "calls"), "count"),
            "latency.draw_s": (per_trial("latency.draw", "self_s"), "s"),
            "rng.stream_calls": (per_trial("rng.stream", "calls"), "count"),
            "rng.stream_s": (per_trial("rng.stream", "self_s"), "s"),
            "data.build_s": (per_setup("data.build"), "s"),
            "data.clients": (sum(d.n_clients for d in self.datasets), "count"),
            "data.examples": (sum(data.total_examples(d.shards) for d in self.datasets), "count"),
            "config.load_s": (per_setup("config.load"), "s"),
            "trace.overhead_pct": (100.0 * statistics.median(self.overheads), "%"),
            "host.probe_ms": (1e3 * statistics.mean(self.probes), "ms"),
        }
