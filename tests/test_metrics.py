"""Tests for accuracy evaluation, trial summaries, and run logs."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from stragglersim import metrics, model
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
    total_acc, straggler_acc = evaluate_accuracy(w, layout, dataset, len(dataset.eval_total))
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
    assert evaluate_accuracy(w, layout, dataset, len(total)) == (
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

    total_b, strag_b = evaluate_accuracy(w_bad, layout, dataset, len(dataset.eval_total))
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
    # A full-size MLP evaluation scores 2,048-row blocks into one
    # (block, hidden) and one (block, n_classes) array, sized to the largest
    # block, and allocates nothing else of that size.
    config = DatasetConfig(n_classes=10, d_in=32, m_clients=10, median_shard_size=10.0,
                           straggler_classes=(0, 1, 2, 3, 4), n_straggler_clients=3,
                           eval_size=16000)
    dataset = build_dataset(config, seed=0)
    layout = ModelLayout(d_in=32, hidden=64, n_classes=10)
    w = 6.0 * init_params(layout, np.random.Generator(np.random.Philox(0)))
    n = len(dataset.eval_total)
    assert n == 16000
    block = 16000 - 6 * 2048  # six 2,048-row blocks, then the remainder
    out = eval_buffers(layout, dataset, n)
    assert [a.shape for a in out] == [(block, layout.hidden), (block, layout.n_classes)]
    block_bytes = block * (layout.hidden + layout.n_classes) * 8
    peaks = []
    for score in (evaluate_accuracy, lambda *args: metrics._accuracy(*args, out)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            accuracies = score(w, layout, dataset, n)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert accuracies == evaluate_accuracy(w, layout, dataset, n)
    # evaluate_accuracy: one block's pair of its own, the (n,) predictions and hit mask
    assert peaks[0] <= 1.2 * block_bytes + 2 * n * 8, peaks
    assert peaks[0] < n * (layout.hidden + layout.n_classes) * 8 / 3, peaks
    # in a worker's buffers, only the predictions and hit mask remain
    assert peaks[1] <= 2 * n * 8, peaks


def _blocked_against_one_pass(w, layout, dataset, cap):
    """(blocked logits, one-pass logits, evaluate_accuracy's accuracies, the
    one pass's accuracies) over the rows an evaluation at cap scores."""
    n_total, straggler_rows, end = metrics._scored_rows(dataset, cap)
    total = dataset.eval_total
    x = total.features[:end]
    blocks = metrics._block_logits(w, layout, x, eval_buffers(layout, dataset, cap))
    starts, parts = zip(*((start, logits.copy()) for start, logits in blocks))
    assert list(starts) == metrics._block_cuts(end, layout)[:-1]
    one_pass = model._forward(w, layout, x)[0]
    correct = one_pass.argmax(axis=1) == total.labels[:end]
    expected = (float(correct[:n_total].mean()), float(correct[straggler_rows].mean()))
    return (np.concatenate(parts), one_pass,
            evaluate_accuracy(w, layout, dataset, cap), expected)


def _wide_dataset(n_classes, eval_size):
    config = DatasetConfig(n_classes=n_classes, d_in=32, m_clients=20, median_shard_size=20.0,
                           straggler_classes=(0, 1), n_straggler_clients=6,
                           eval_size=eval_size)
    return build_dataset(config, seed=0)


@pytest.mark.parametrize("n_classes", [10, 62])
@pytest.mark.parametrize("hidden", [0, 16, 64, 128])
def test_blocked_scoring_is_bitwise_one_forward_pass(hidden, n_classes):
    layout = ModelLayout(d_in=32, hidden=hidden, n_classes=n_classes)
    w = 6.0 * init_params(layout, np.random.Generator(np.random.Philox(hidden)))
    block = metrics._block_rows(layout)
    # below one block, an exact multiple of it, and a multiple plus a remainder
    for eval_size, n_blocks in ((block // 2, 1), (2 * block, 2), (2 * block + block // 3, 2)):
        dataset = _wide_dataset(n_classes, eval_size)
        assert len(metrics._block_cuts(eval_size, layout)) - 1 == n_blocks
        for cap in (eval_size, eval_size // 2):
            blocked, one_pass, accuracies, expected = _blocked_against_one_pass(
                w, layout, dataset, cap
            )
            assert np.array_equal(blocked, one_pass), (eval_size, cap)
            assert accuracies == expected, (eval_size, cap)


def test_blocks_below_the_block_size_move_bits(monkeypatch):
    # The bitwise check is not empty: 1,000-row blocks at hidden 64 take
    # OpenBLAS's small-matrix kernel for the output layer.
    layout = ModelLayout(d_in=32, hidden=64, n_classes=10)
    w = 6.0 * init_params(layout, np.random.Generator(np.random.Philox(64)))
    dataset = _wide_dataset(10, 16000)
    monkeypatch.setattr(metrics, "_block_rows", lambda layout: 1000)
    blocked, one_pass, _, _ = _blocked_against_one_pass(w, layout, dataset, 16000)
    assert blocked.shape == one_pass.shape
    assert not np.array_equal(blocked, one_pass)


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
