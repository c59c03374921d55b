"""Tests for accuracy evaluation, trial summaries, and run logs."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from stragglersim.config import ConfigError
from stragglersim.data import DatasetConfig, build_dataset
from stragglersim.metrics import (
    MetricsRecord,
    eval_buffers,
    evaluate_accuracy,
    percentile_band,
    read_run_jsonl,
    summarize_trials,
    write_csv,
    write_run_jsonl,
)
from stragglersim.model import ModelLayout, forward_logits, init_params

DATA = DatasetConfig(
    n_classes=4,
    d_in=4,
    m_clients=10,
    median_shard_size=10.0,
    straggler_classes=(0, 1),
    n_straggler_clients=3,
    eval_size=400,
    cluster_spread=0.3,
)


def test_percentile_band_linear_interpolation_oracle():
    band = percentile_band(list(range(1, 11)))
    # numpy's linear interpolation on 1..10
    assert band.lo == pytest.approx(1.45)
    assert band.median == pytest.approx(5.5)
    assert band.hi == pytest.approx(9.55)


def test_percentile_band_is_permutation_invariant():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    a = percentile_band(values)
    b = percentile_band(values[::-1])
    assert a == b
    with pytest.raises(ValueError):
        percentile_band([])


def test_summarize_trials_covers_all_metrics():
    finals = [
        {
            "total_acc": 0.5 + 0.01 * k,
            "straggler_acc": 0.2 + 0.01 * k,
            "virtual_time_s": 100.0 * (k + 1),
        }
        for k in range(10)
    ]
    summary = summarize_trials(finals)
    assert set(summary) == {"total_acc", "straggler_acc", "virtual_time_s"}
    assert summary["total_acc"].median == pytest.approx(0.545)
    assert summary["virtual_time_s"].lo <= summary["virtual_time_s"].median
    with pytest.raises(ValueError):
        summarize_trials([])


def test_evaluate_accuracy_on_crafted_model():
    # Bias-only model: every input is predicted as the argmax class of the
    # bias vector, so accuracy equals that class's frequency in the split.
    dataset = build_dataset(DATA, seed=0)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=4)
    w = np.zeros(layout.n_params)
    w[-4:] = [0.0, 10.0, 0.0, 0.0]  # always predict class 1
    total_acc, straggler_acc = evaluate_accuracy(w, layout, dataset, cap=None)
    total_freq = float((dataset.eval_total.labels == 1).mean())
    strag_freq = float((dataset.eval_total.labels[dataset.eval_straggler_rows] == 1).mean())
    assert total_acc == total_freq
    assert straggler_acc == strag_freq
    assert straggler_acc > total_acc  # class 1 is one of two straggler classes


def test_evaluate_accuracy_cap_limits_both_splits():
    dataset = build_dataset(DATA, seed=0)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=4)
    w = np.zeros(layout.n_params)
    w[-4:] = [10.0, 0.0, 0.0, 0.0]
    capped_total, capped_strag = evaluate_accuracy(w, layout, dataset, cap=50)
    manual_total = float((dataset.eval_total.labels[:50] == 0).mean())
    manual_strag = float((dataset.eval_total.labels[dataset.eval_straggler_rows[:50]] == 0).mean())
    assert capped_total == manual_total
    assert capped_strag == manual_strag
    with pytest.raises(ValueError):
        evaluate_accuracy(w, layout, dataset, cap=0)


def test_capped_straggler_rows_may_lie_beyond_the_capped_total_rows():
    # Both splits are scored from one forward pass over the total split; the
    # cap-th straggler row lies past the cap-th total row.
    dataset = build_dataset(DATA, seed=0)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=4)
    w = np.random.Generator(np.random.Philox(0)).standard_normal(layout.n_params)
    cap = 50
    straggler_rows = np.flatnonzero(np.isin(dataset.eval_total.labels, [0, 1]))
    assert straggler_rows[cap - 1] >= cap
    total = dataset.eval_total
    straggler_x, straggler_y = total.features[straggler_rows], total.labels[straggler_rows]

    def accuracy(x, y):
        return float((forward_logits(w, layout, x).argmax(axis=1) == y).mean())

    assert evaluate_accuracy(w, layout, dataset, cap=cap) == (
        accuracy(total.features[:cap], total.labels[:cap]),
        accuracy(straggler_x[:cap], straggler_y[:cap]),
    )
    assert evaluate_accuracy(w, layout, dataset) == (
        accuracy(total.features, total.labels),
        accuracy(straggler_x, straggler_y),
    )


def test_straggler_split_isolates_straggler_behavior():
    # Corrupting only the straggler-class logits tanks straggler accuracy
    # while accuracy on the non-straggler remainder is untouched.
    dataset = build_dataset(DATA, seed=1)
    layout = ModelLayout(d_in=4, hidden=0, n_classes=4)
    gen = np.random.Generator(np.random.Philox(0))
    w_good = gen.standard_normal(layout.n_params)
    w_bad = w_good.copy()
    # Zero the weight columns for classes 0 and 1 and bury their biases,
    # so those logits are constant and never win the argmax.
    weight = w_bad[: 4 * 4].reshape(4, 4)
    weight[:, [0, 1]] = 0.0
    w_bad[16 + 0] = -1e6
    w_bad[16 + 1] = -1e6

    total_b, strag_b = evaluate_accuracy(w_bad, layout, dataset)
    assert strag_b == 0.0
    # The total split decomposes: with straggler classes never predicted,
    # the only correct predictions come from non-straggler examples.
    preds = forward_logits(w_bad, layout, dataset.eval_total.features).argmax(axis=1)
    manual_total = float((preds == dataset.eval_total.labels).mean())
    assert total_b == manual_total
    n_total = len(dataset.eval_total)
    n_strag = len(dataset.eval_straggler_rows)
    clean_mask = ~np.isin(dataset.eval_total.labels, [0, 1])
    clean_acc = float(
        (preds[clean_mask] == dataset.eval_total.labels[clean_mask]).mean()
    )
    assert total_b * n_total == pytest.approx(clean_acc * (n_total - n_strag), abs=1e-9)


def test_evaluation_holds_one_hidden_and_one_logits_array():
    # A full-size MLP evaluation allocates the (n, hidden) activations and
    # the (n, n_classes) logits once each and nothing else of that size.
    config = DatasetConfig(n_classes=10, d_in=32, m_clients=10, median_shard_size=10.0,
                           straggler_classes=(0, 1, 2, 3, 4), n_straggler_clients=3,
                           eval_size=16000)
    dataset = build_dataset(config, seed=0)
    layout = ModelLayout(d_in=32, hidden=64, n_classes=10)
    w = init_params(layout, np.random.Generator(np.random.Philox(0)), scale=0.3)
    n = len(dataset.eval_total)
    assert n == 16000
    out = eval_buffers(layout, dataset)
    assert [a.shape for a in out] == [(n, layout.hidden), (n, layout.n_classes)]
    peaks = []
    for buffers in (None, out):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            accuracies = evaluate_accuracy(w, layout, dataset, out=buffers)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert accuracies == evaluate_accuracy(w, layout, dataset)
    assert peaks[0] <= 1.2 * n * (layout.hidden + layout.n_classes) * 8, peaks
    # with a run's buffers, only the (n,) predictions and hit mask remain
    assert peaks[1] <= 2 * n * 8, peaks


def test_run_jsonl_round_trip(tmp_path):
    records = [
        MetricsRecord(
            virtual_time_s=10.0 * k,
            server_step=k,
            aggregated_updates=5 * k,
            total_acc=0.1 * k,
            straggler_acc=0.05 * k,
            which_model="global",
        )
        for k in range(1, 4)
    ]
    header = {"tool_version": "x", "seed": 3}
    summary = {"seed": 3, "total_time_s": 30.0}
    path = tmp_path / "run.jsonl"
    write_run_jsonl(path, header=header, records=records, summary=summary)

    got_header, got_records, got_summary = read_run_jsonl(path)
    assert got_header == header
    assert got_summary == summary
    assert got_records == [
        {k: v for k, v in rec.to_dict().items() if k != "type"} for rec in records
    ]
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 3 records + summary


def test_run_jsonl_missing_summary_rejected(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "header", "a": 1}\n')
    with pytest.raises(ValueError, match="missing header or summary"):
        read_run_jsonl(path)


def test_run_jsonl_unknown_row_type_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "header"}\n{"type": "banana"}\n{"type": "summary"}\n')
    with pytest.raises(ValueError, match="banana"):
        read_run_jsonl(path)


_RECORD = {"type": "record", "virtual_time_s": 1.0, "server_step": 1, "aggregated_updates": 2,
           "total_acc": 0.5, "straggler_acc": 0.5, "which_model": "global"}


@pytest.mark.parametrize(
    "line, where",
    [
        ([1, 2], ":2: expected an object, got list"),
        ({k: v for k, v in _RECORD.items() if k != "total_acc"},
         ":2.total_acc: required key is missing"),
        ({**_RECORD, "total_acc": "x"}, ":2.total_acc: expected float, got 'x'"),
    ],
    ids=["list_line", "no_total_acc", "str_total_acc"],
)
def test_run_jsonl_malformed_line_rejected(tmp_path, line, where):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"type": "header"}}\n{json.dumps(line)}\n{{"type": "summary"}}\n')
    with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
        read_run_jsonl(path)


def test_write_csv_golden(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        rows=[{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
        fieldnames=["a", "b"],
    )
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
