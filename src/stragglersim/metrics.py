"""Accuracy records, trial summaries, and JSONL/CSV serialization.

A run produces a sequence of records (one per evaluation tick plus a final
one) and a summary line with run counters. Across trials, final records are
summarized per metric by the median and a [5th, 95th] percentile band using
linear interpolation. An evaluation scores the eval split in row blocks
(_block_cuts).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import model
from .config import ConfigError, _build_dataclass
from .data import FederatedDataset
from .model import ModelLayout

BAND_PERCENTILES = (5.0, 50.0, 95.0)


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation of the served model during a run."""

    virtual_time_s: float
    server_step: int
    aggregated_updates: int
    total_acc: float
    straggler_acc: float
    which_model: str

    def to_dict(self) -> dict:
        return {"type": "record", **asdict(self)}


def evaluate_accuracy(
    w: np.ndarray, layout: ModelLayout, dataset: FederatedDataset, cap: int
) -> tuple[float, float]:
    """Accuracy on the total and straggler-class eval splits, capped to
    the first `cap` examples of each split.

    The straggler split is the stored straggler-class rows of the total
    split (dataset.eval_straggler_rows, never empty), so one scoring of the
    total rows up to the last one either split uses scores both. The call
    scores in one block's buffers of its own (eval_buffers).
    """
    return _accuracy(w, layout, dataset, cap, eval_buffers(layout, dataset, cap))


def eval_buffers(
    layout: ModelLayout, dataset: FederatedDataset, cap: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """One block's empty (rows, hidden) and (rows, n_classes) arrays, the
    out of _accuracy at this layout, dataset and cap. A run's worker holds
    one pair for all its ticks; evaluate_accuracy makes a pair per call."""
    cuts = _block_cuts(_scored_rows(dataset, cap)[2], layout)
    rows = cuts[-1] - cuts[-2]  # the last block is the largest
    hidden = np.empty((rows, layout.hidden)) if layout.hidden else None
    return hidden, np.empty((rows, layout.n_classes))


def _block_rows(layout: ModelLayout) -> int:
    """Rows per scoring block: 1 MiB of float64 in the widest layer output,
    so a block's activations fit in a core's cache."""
    return 2**17 // max(layout.hidden, layout.n_classes)


def _block_cuts(end: int, layout: ModelLayout) -> list[int]:
    """Block boundaries of rows [0, end): multiples of _block_rows, the last
    block taking the remainder, so no block is shorter than _block_rows
    unless end is. Below about 10**6 multiply-adds a product takes OpenBLAS's
    small-matrix kernel, and 1,000-row blocks at hidden 64 move the logits'
    last bits; blocks of this size score bitwise as one pass does.
    """
    block = _block_rows(layout)
    n_blocks = max(end // block, 1)
    return [k * block for k in range(n_blocks)] + [end]


def _scored_rows(dataset: FederatedDataset, cap: int):
    """(n_total, straggler_rows, end): the capped total split's length, the
    capped straggler split's rows of it, and how many rows are scored."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n_total = min(cap, len(dataset.eval_total))
    straggler_rows = dataset.eval_straggler_rows[:cap]
    return n_total, straggler_rows, max(n_total, straggler_rows[-1] + 1)


def _block_logits(w, layout, x, out):
    """Yield (start, logits) for each block of x's rows (_block_cuts), its
    forward pass written into the leading rows of out's buffers."""
    hidden, logits = out
    cuts = _block_cuts(len(x), layout)
    for a, b in zip(cuts[:-1], cuts[1:]):
        block_out = (None if hidden is None else hidden[: b - a], logits[: b - a])
        yield a, model._forward(w, layout, x[a:b], block_out)[0]


def _accuracy(w, layout, dataset, cap, out) -> tuple[float, float]:
    """evaluate_accuracy's work, in out's buffers (eval_buffers). It reaches
    no function the benchmark tracer patches (model.forward_logits,
    evaluate_accuracy itself), so the engine scores its mid-run ticks with
    it, on the worker."""
    n_total, straggler_rows, end = _scored_rows(dataset, cap)
    total = dataset.eval_total
    predicted = np.empty(end, dtype=np.intp)
    for start, logits in _block_logits(w, layout, total.features[:end], out):
        logits.argmax(axis=1, out=predicted[start : start + len(logits)])
    correct = predicted == total.labels[:end]
    return float(correct[:n_total].mean()), float(correct[straggler_rows].mean())


@dataclass(frozen=True)
class MetricSummary:
    lo: float
    median: float
    hi: float


def percentile_band(values: list[float] | np.ndarray) -> MetricSummary:
    """Median with a [5, 95] percentile band (linear interpolation)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty value list")
    lo, med, hi = np.percentile(arr, BAND_PERCENTILES)
    return MetricSummary(lo=float(lo), median=float(med), hi=float(hi))


def summarize_trials(final_records: list[dict]) -> dict[str, MetricSummary]:
    """Bands of total_acc, straggler_acc and virtual_time_s over trials' final records."""
    if not final_records:
        raise ValueError("no trial records to summarize")
    out: dict[str, MetricSummary] = {}
    for key in ("total_acc", "straggler_acc", "virtual_time_s"):
        out[key] = percentile_band([float(r[key]) for r in final_records])
    return out


# ---- JSONL run logs ---- #


def write_run_jsonl(
    path: str | Path,
    *,
    header: dict,
    records: list[MetricsRecord],
    summary: dict,
) -> None:
    """Write one run log: a header line, record lines, and a summary line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "header", **header}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")
        fh.write(json.dumps({"type": "summary", **summary}) + "\n")


def read_run_jsonl(path: str | Path) -> tuple[dict, list[dict], dict]:
    """Read a run log back into (header, records, summary). A line that is
    not a JSON object, a record line that does not match MetricsRecord's
    fields and types, a second header or summary line (two trials' logs in
    one file), and a log without a header, summary or record raise a
    ConfigError naming path:line (or the path)."""
    ends: dict[str, dict] = {}  # the header and summary lines
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: not JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise ConfigError(f"{path}:{line_no}: expected an object, got {type(row).__name__}")
            kind = row.pop("type", None)
            if kind in ("header", "summary"):
                if kind in ends:
                    raise ConfigError(f"{path}:{line_no}: a second {kind} line")
                ends[kind] = row
            elif kind == "record":
                _build_dataclass(MetricsRecord, row, f"{path}:{line_no}")
                records.append(row)
            else:
                raise ConfigError(f"{path}:{line_no}: unknown row type {kind!r}")
    if len(ends) < 2:
        raise ConfigError(f"{path}: missing header or summary line")
    if not records:
        raise ConfigError(f"{path}: no records")
    return ends["header"], records, ends["summary"]


def write_csv(path: str | Path, rows: list[dict], fieldnames: list[str]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
