"""Tests for synthetic data generation and the straggler partition."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stragglersim import rng
from stragglersim.data import (
    ClientShard,
    DatasetConfig,
    apply_straggler_partition,
    build_dataset,
    class_centers,
    generate_synthetic,
    total_examples,
)

SMALL = DatasetConfig(
    n_classes=4,
    d_in=3,
    m_clients=20,
    median_shard_size=25.0,
    straggler_classes=(0, 1),
    n_straggler_clients=5,
    eval_size=200,
)


def _shard_with_labels(client_id, labels, d_in=2):
    labels = np.asarray(labels, dtype=np.int64)
    return ClientShard(client_id, np.zeros((len(labels), d_in)), labels)


def test_ranking_prefers_high_counts_then_low_ids():
    # Straggler-class counts by client: 9, 3, 7, 0, 7. The top two are
    # client 0 and then client 2, which wins the 7-count tie over client 4
    # by lower id.
    shards = [
        _shard_with_labels(0, [0] * 9 + [2] * 1),
        _shard_with_labels(1, [0] * 3 + [2] * 5),
        _shard_with_labels(2, [1] * 7 + [3] * 2),
        _shard_with_labels(3, [2] * 4),
        _shard_with_labels(4, [0] * 7 + [3] * 3),
    ]
    out, dropped = apply_straggler_partition(shards, {0, 1}, 2)
    flagged = [s.client_id for s in out if s.is_straggler]
    assert flagged == [0, 2]
    assert dropped == ()


def test_partition_output_is_sorted_by_client_id():
    shards = [
        _shard_with_labels(3, [1, 2]),
        _shard_with_labels(0, [0, 2]),
        _shard_with_labels(2, [2, 2]),
    ]
    out, _ = apply_straggler_partition(shards, {0, 1}, 1)
    assert [s.client_id for s in out] == [0, 2, 3]


def test_standard_shards_lose_straggler_classes():
    dataset = build_dataset(SMALL, seed=0)
    for shard in dataset.shards:
        if not shard.is_straggler:
            assert not np.isin(shard.labels, [0, 1]).any()
            assert shard.n_examples > 0


def test_straggler_shards_keep_everything_and_counts_are_conserved():
    raw = generate_synthetic(SMALL, seed=0)
    out, dropped = apply_straggler_partition(raw, {0, 1}, SMALL.n_straggler_clients)
    raw_by_id = {s.client_id: s for s in raw}

    non_straggler_before = sum(int((~np.isin(s.labels, [0, 1])).sum()) for s in raw)
    non_straggler_after = sum(int((~np.isin(s.labels, [0, 1])).sum()) for s in out)
    assert non_straggler_after == non_straggler_before

    for shard in out:
        if shard.is_straggler:
            before = raw_by_id[shard.client_id]
            np.testing.assert_array_equal(shard.labels, before.labels)
            np.testing.assert_array_equal(shard.features, before.features)
        else:
            keep = ~np.isin(raw_by_id[shard.client_id].labels, [0, 1])
            np.testing.assert_array_equal(
                shard.features, raw_by_id[shard.client_id].features[keep]
            )


def test_emptied_standard_shard_is_dropped_with_warning(caplog):
    shards = [
        _shard_with_labels(0, [0] * 5),  # pure straggler classes, ranked top
        _shard_with_labels(1, [0, 0, 1]),  # pure straggler classes, not flagged
        _shard_with_labels(2, [2, 3]),
    ]
    with caplog.at_level(logging.WARNING):
        out, dropped = apply_straggler_partition(shards, {0, 1}, 1)
    assert dropped == (1,)
    assert [s.client_id for s in out] == [0, 2]
    assert any("dropped" in rec.message for rec in caplog.records)


def test_drop_warning_gives_the_count_and_debug_gives_the_ids(caplog):
    # A large population drops hundreds of shards; the ids stay out of WARNING.
    shards = [_shard_with_labels(cid, [0, 1]) for cid in range(40)] + [
        _shard_with_labels(40, [0] * 5)
    ]
    with caplog.at_level(logging.DEBUG, logger="stragglersim.data"):
        _, dropped = apply_straggler_partition(shards, {0, 1}, 1)
    assert dropped == tuple(range(40))
    by_level = {rec.levelno: rec.getMessage() for rec in caplog.records}
    assert "dropped 40 standard shard(s)" in by_level[logging.WARNING]
    assert "39" not in by_level[logging.WARNING]
    assert by_level[logging.DEBUG].endswith(str(list(range(40))))


def test_population_scale_straggler_counts():
    config = DatasetConfig(m_clients=3400, n_straggler_clients=800)
    dataset = build_dataset(config, seed=0)
    n_straggler = sum(1 for s in dataset.shards if s.is_straggler)
    n_standard = sum(1 for s in dataset.shards if not s.is_straggler)
    assert n_straggler == 800
    assert n_standard == 2600 - len(dataset.dropped_clients)
    # At the default concentration nearly every standard client holds at
    # least one non-straggler example, so drops stay rare.
    assert len(dataset.dropped_clients) < 26


def test_shard_sizes_follow_lognormal_formula():
    config = DatasetConfig(
        m_clients=50, median_shard_size=12.0, size_sigma=0.7, n_straggler_clients=12
    )
    raw = generate_synthetic(config, seed=3)
    z = rng.stream(3, rng.DATA, 1).standard_normal(50)
    expected = np.maximum(1, np.rint(np.exp(np.log(12.0) + 0.7 * z)).astype(int))
    assert [s.n_examples for s in raw] == expected.tolist()


def test_zero_size_sigma_gives_exact_median():
    config = DatasetConfig(
        n_classes=2,
        d_in=3,
        m_clients=1,
        median_shard_size=10.0,
        size_sigma=0.0,
        straggler_classes=(0,),
        n_straggler_clients=1,
        eval_size=50,
    )
    dataset = build_dataset(config, seed=0)
    assert dataset.n_clients == 1
    assert dataset.shards[0].n_examples == 10
    assert dataset.shards[0].is_straggler


def test_determinism_and_seed_sensitivity():
    a = build_dataset(SMALL, seed=5)
    b = build_dataset(SMALL, seed=5)
    c = build_dataset(SMALL, seed=6)
    for sa, sb in zip(a.shards, b.shards):
        np.testing.assert_array_equal(sa.features, sb.features)
        np.testing.assert_array_equal(sa.labels, sb.labels)
        assert sa.is_straggler == sb.is_straggler
    np.testing.assert_array_equal(a.eval_total.features, b.eval_total.features)
    assert not np.array_equal(a.shards[0].features, c.shards[0].features)


def test_eval_straggler_is_filtered_view_of_total():
    dataset = build_dataset(SMALL, seed=0)
    mask = np.isin(dataset.eval_total.labels, [0, 1])
    rows = dataset.eval_straggler_rows
    np.testing.assert_array_equal(rows, np.flatnonzero(mask))
    assert set(np.unique(dataset.eval_total.labels[rows])) <= {0, 1}
    assert len(rows) > 0


def test_eval_split_shares_training_centers():
    # Class-conditional eval means should sit near the same centers the
    # training shards were drawn from.
    config = DatasetConfig(
        n_classes=3,
        d_in=4,
        m_clients=10,
        straggler_classes=(0,),
        n_straggler_clients=3,
        eval_size=30000,
        cluster_spread=0.1,
    )
    dataset = build_dataset(config, seed=2)
    centers = class_centers(config, seed=2)
    for k in range(3):
        mask = dataset.eval_total.labels == k
        mean = dataset.eval_total.features[mask].mean(axis=0)
        np.testing.assert_allclose(mean, centers[k], atol=0.02)


def test_high_concentration_approaches_global_mixture():
    # With a huge Dirichlet concentration every client's mixture collapses
    # to the global one, so per-client label histograms look multinomial
    # uniform: chi-square statistics should average near their df.
    config = DatasetConfig(
        n_classes=10,
        d_in=2,
        m_clients=100,
        median_shard_size=500.0,
        size_sigma=0.0,
        concentration=1e6,
        n_straggler_clients=0,
        straggler_classes=(0,),
        eval_size=10,
    )
    raw = generate_synthetic(config, seed=0)
    stats = []
    for shard in raw:
        obs = np.bincount(shard.labels, minlength=10)
        expected = len(shard.labels) / 10.0
        stats.append(float(((obs - expected) ** 2 / expected).sum()))
    df = 9.0
    assert np.mean(stats) < 2.0 * df


def test_low_concentration_skews_mixtures():
    config = DatasetConfig(
        n_classes=10,
        d_in=2,
        m_clients=100,
        median_shard_size=500.0,
        size_sigma=0.0,
        concentration=0.5,
        n_straggler_clients=0,
        straggler_classes=(0,),
        eval_size=10,
    )
    raw = generate_synthetic(config, seed=0)
    stats = []
    for shard in raw:
        obs = np.bincount(shard.labels, minlength=10)
        expected = len(shard.labels) / 10.0
        stats.append(float(((obs - expected) ** 2 / expected).sum()))
    assert np.mean(stats) > 20.0 * 9.0


@given(
    counts=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=8),
    n_straggler=st.integers(min_value=1, max_value=3),
    order_seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_ranking_invariant_to_shard_order(counts, n_straggler, order_seed):
    n_straggler = min(n_straggler, len(counts))
    shards = [
        _shard_with_labels(i, [0] * c + [1] * (10 - c)) for i, c in enumerate(counts)
    ]
    out_a, _ = apply_straggler_partition(list(shards), {0}, n_straggler)
    perm = np.random.Generator(np.random.Philox(order_seed)).permutation(len(shards))
    out_b, _ = apply_straggler_partition([shards[i] for i in perm], {0}, n_straggler)
    ids_a = [s.client_id for s in out_a if s.is_straggler]
    ids_b = [s.client_id for s in out_b if s.is_straggler]
    assert ids_a == ids_b


def test_missing_straggler_class_in_straggler_shards_rejected():
    # One straggler client whose shard happens to contain no examples of
    # some straggler class should fail fast. Force it with a mixture that
    # never emits class 0.
    config = DatasetConfig(
        n_classes=3,
        d_in=2,
        m_clients=4,
        median_shard_size=20.0,
        class_mixture=(0.0, 0.5, 0.5),
        straggler_classes=(0,),
        n_straggler_clients=1,
        eval_size=20,
    )
    with pytest.raises(ValueError, match="no straggler shard"):
        build_dataset(config, seed=0)


def test_mixture_normalization():
    config = DatasetConfig(
        n_classes=3, class_mixture=(2.0, 1.0, 1.0), straggler_classes=(0,)
    )
    np.testing.assert_allclose(config.mixture(), [0.5, 0.25, 0.25])
    uniform = DatasetConfig(n_classes=4, straggler_classes=(0,))
    np.testing.assert_allclose(uniform.mixture(), [0.25] * 4)


def test_total_examples_sums_shards():
    shards = [_shard_with_labels(0, [0, 1]), _shard_with_labels(1, [1, 2, 3])]
    assert total_examples(shards) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(m_clients=0)
    with pytest.raises(ValueError):
        DatasetConfig(median_shard_size=0.0)
    with pytest.raises(ValueError):
        DatasetConfig(straggler_classes=(0, 10))
    with pytest.raises(ValueError):
        DatasetConfig(m_clients=5, n_straggler_clients=6)
    with pytest.raises(ValueError):
        DatasetConfig(straggler_classes=())
    with pytest.raises(ValueError):
        DatasetConfig(concentration=0.0)
    with pytest.raises(ValueError):
        DatasetConfig(n_classes=10, class_mixture=(0.5, 0.5))
    with pytest.raises(ValueError):
        apply_straggler_partition([_shard_with_labels(0, [0])], {0}, 2)
