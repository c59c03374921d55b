"""Tests for synthetic data generation and the straggler partition."""

import hashlib
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stragglersim import rng
from stragglersim.data import (
    ClientShard,
    DatasetConfig,
    _class_table,
    _generate,
    _partition,
    build_dataset,
    class_centers,
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


def _partition_labels(label_lists, straggler_classes, n_straggler_clients, n_classes=4):
    """_partition over clients 0, 1, ... holding label_lists; every row's
    features are (row, row) so the kept rows can be traced."""
    labels = np.concatenate([np.asarray(y, dtype=np.int64) for y in label_lists])
    features = np.repeat(np.arange(len(labels), dtype=np.float64)[:, None], 2, axis=1)
    sizes = np.array([len(y) for y in label_lists])
    table = _class_table(straggler_classes, n_classes)
    _, _, shards, dropped = _partition(features, labels, sizes, table, n_straggler_clients)
    return shards, dropped


def _raw_shards(config, seed):
    """The raw population of _generate as one (labels, features) pair per client."""
    features, labels, sizes = _generate(config, seed)
    ends = np.cumsum(sizes)[:-1]
    return list(zip(np.split(labels, ends), np.split(features, ends)))


def test_ranking_prefers_high_counts_then_low_ids():
    # Straggler-class counts by client: 9, 3, 7, 0, 7. The top two are
    # client 0 and then client 2, which wins the 7-count tie over client 4
    # by lower id.
    out, dropped = _partition_labels(
        [[0] * 9 + [2] * 1, [0] * 3 + [2] * 5, [1] * 7 + [3] * 2, [2] * 4, [0] * 7 + [3] * 3],
        {0, 1},
        2,
    )
    flagged = [s.client_id for s in out if s.is_straggler]
    assert flagged == [0, 2]
    assert dropped == ()


def test_standard_shards_lose_straggler_classes():
    dataset = build_dataset(SMALL, seed=0)
    for shard in dataset.shards:
        if not shard.is_straggler:
            assert not np.isin(shard.labels, [0, 1]).any()
            assert shard.n_examples > 0


def test_straggler_shards_keep_everything_and_counts_are_conserved():
    features, labels, sizes = _generate(SMALL, seed=0)
    table = _class_table((0, 1), SMALL.n_classes)
    kept_x, kept_y, out, dropped = _partition(
        features, labels, sizes, table, SMALL.n_straggler_clients
    )
    raw = _raw_shards(SMALL, seed=0)

    non_straggler_before = int((~table[labels]).sum())
    non_straggler_after = sum(int((~table[s.labels]).sum()) for s in out)
    assert non_straggler_after == non_straggler_before

    for shard in out:
        rows = slice(shard.start, shard.start + shard.n_examples)
        np.testing.assert_array_equal(shard.labels, kept_y[rows])
        np.testing.assert_array_equal(shard.features, kept_x[rows])
        raw_labels, raw_features = raw[shard.client_id]
        if shard.is_straggler:
            np.testing.assert_array_equal(shard.labels, raw_labels)
            np.testing.assert_array_equal(shard.features, raw_features)
        else:
            keep = ~table[raw_labels]
            np.testing.assert_array_equal(shard.labels, raw_labels[keep])
            np.testing.assert_array_equal(shard.features, raw_features[keep])


def test_emptied_standard_shard_is_dropped_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        out, dropped = _partition_labels(
            [
                [0] * 5,  # pure straggler classes, ranked top
                [0, 0, 1],  # pure straggler classes, not flagged
                [2, 3],
            ],
            {0, 1},
            1,
        )
    assert dropped == (1,)
    assert [s.client_id for s in out] == [0, 2]
    # the kept shards hold exactly their own rows
    assert out[1].features[:, 0].tolist() == [8.0, 9.0]
    assert sum(1 for rec in caplog.records if "dropped" in rec.message) == 1


def test_drop_warning_gives_the_count_and_debug_gives_the_ids(caplog):
    # A large population drops hundreds of shards; the ids stay out of WARNING.
    with caplog.at_level(logging.DEBUG, logger="stragglersim.data"):
        _, dropped = _partition_labels([[0, 1]] * 40 + [[0] * 5], {0, 1}, 1)
    assert dropped == tuple(range(40))
    assert [rec.levelno for rec in caplog.records] == [logging.WARNING, logging.DEBUG]
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
    _, _, sizes = _generate(config, seed=3)
    z = rng.stream(3, rng.DATA, 1).standard_normal(50)
    expected = np.maximum(1, np.rint(np.exp(np.log(12.0) + 0.7 * z)).astype(int))
    assert sizes.tolist() == expected.tolist()


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
    stats = []
    for labels, _ in _raw_shards(config, seed=0):
        obs = np.bincount(labels, minlength=10)
        expected = len(labels) / 10.0
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
    stats = []
    for labels, _ in _raw_shards(config, seed=0):
        obs = np.bincount(labels, minlength=10)
        expected = len(labels) / 10.0
        stats.append(float(((obs - expected) ** 2 / expected).sum()))
    assert np.mean(stats) > 20.0 * 9.0


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


# ---- the built dataset, bit for bit ---- #


def _digest(dataset) -> str:
    """sha256 over every shard's id, group, labels and features with their
    dtypes, the eval arrays, the eval straggler rows and the dropped ids."""
    h = hashlib.sha256()
    for s in dataset.shards:
        h.update(f"{s.client_id}:{s.is_straggler}:{s.labels.dtype}:{s.features.dtype}".encode())
        h.update(np.ascontiguousarray(s.labels).tobytes())
        h.update(np.ascontiguousarray(s.features).tobytes())
    for a in (dataset.eval_total.features, dataset.eval_total.labels, dataset.eval_straggler_rows):
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(dataset.dropped_clients).encode())
    return h.hexdigest()


# The dataset section of configs/acceptance/*.json; benchmarks/configs/mlp_eval.json
# has the same section, so it is checked here at a second data seed.
_ACCEPTANCE = dict(
    n_classes=10,
    d_in=32,
    m_clients=400,
    median_shard_size=34.0,
    size_sigma=0.5,
    concentration=1.0,
    cluster_spread=3.0,
    center_scale=1.0,
    eval_size=16000,
    straggler_classes=(0, 1, 2, 3, 4),
    n_straggler_clients=60,
)
# benchmarks/configs/fedbuff_crowd.json
_FEDBUFF_CROWD = dict(_ACCEPTANCE, m_clients=2000, median_shard_size=8.0, n_straggler_clients=300)


# Digests recorded with the per-client build this one replaced (one choice and
# one np.isin per client); a change here means the data moved.
@pytest.mark.parametrize(
    "config, seed, want",
    [
        (
            DatasetConfig(**_ACCEPTANCE),
            0,
            "5f95bd3d31addcb535cfd2b2a81b45b9d899d1a6a3a88280ac73b6560201cc28",
        ),
        (
            DatasetConfig(**_ACCEPTANCE),
            1,
            "e7051363598b9de5ea192c983e8bb1c5d477bf32faf01944b8aed3eeb163979e",
        ),
        (
            DatasetConfig(**_FEDBUFF_CROWD),
            0,
            "c08b53d3bce67c14e6667d3d7125690fabdf0e28d8bc6baf97df880cfada9488",
        ),
        (
            DatasetConfig(
                n_classes=6, d_in=5, m_clients=60, n_straggler_clients=0,
                straggler_classes=(1, 4), eval_size=300,
            ),
            2,
            "5843c982ef7cdd458b3065a203ea981a8efd076aa80c884d85cc1ac6ac23f5b7",
        ),
        (
            DatasetConfig(
                n_classes=4, d_in=3, m_clients=50, class_mixture=(0.4, 0.3, 0.2, 0.1),
                straggler_classes=(3,), n_straggler_clients=8, eval_size=200,
            ),
            1,
            "6a004a83f4f49da796ebb49a58190aabdd4b6bb6fe156734b6114c4e24859cb4",
        ),
        (
            DatasetConfig(
                n_classes=10, d_in=4, m_clients=120, median_shard_size=6.0,
                concentration=0.1, n_straggler_clients=20, eval_size=500,
            ),
            0,
            "33b3e008150bb527d3870f9bb3d7d635b5e762e552be5cf669f45a50a539264f",
        ),
    ],
    ids=["acceptance", "mlp_eval", "fedbuff_crowd", "no_stragglers", "class_mixture", "drops"],
)
def test_built_datasets_match_their_recorded_digests(config, seed, want):
    assert _digest(build_dataset(config, seed)) == want


@st.composite
def _small_configs(draw):
    n_classes = draw(st.integers(2, 6))
    m_clients = draw(st.integers(1, 30))
    mixture = draw(
        st.none() | st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.0]), min_size=n_classes,
                             max_size=n_classes).map(tuple)
    )
    assume(mixture is None or sum(mixture) > 0)
    return DatasetConfig(
        n_classes=n_classes,
        d_in=draw(st.integers(1, 4)),
        m_clients=m_clients,
        median_shard_size=draw(st.floats(0.5, 20.0)),
        size_sigma=draw(st.floats(0.0, 1.5)),
        concentration=draw(st.sampled_from([0.05, 0.5, 1.0, 10.0])),
        cluster_spread=draw(st.sampled_from([0.0, 1.0, 2.5])),
        class_mixture=mixture,
        eval_size=draw(st.integers(1, 100)),
        straggler_classes=tuple(
            draw(st.sets(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes))
        ),
        n_straggler_clients=draw(st.integers(0, m_clients)),
    )


@given(config=_small_configs(), seed=st.integers(0, 50))
@settings(max_examples=80, deadline=None)
def test_a_built_dataset_keeps_the_partition_invariants(config, seed):
    try:
        dataset = build_dataset(config, seed)
    except ValueError:
        return
    shards = dataset.shards
    straggler = [s.client_id for s in shards if s.is_straggler]
    assert len(straggler) == config.n_straggler_clients
    table = np.isin(np.arange(config.n_classes), config.straggler_classes)
    for shard in shards:
        assert shard.n_examples > 0
        assert shard.is_straggler or not table[shard.labels].any()
    ids = [s.client_id for s in shards]
    assert ids == sorted(set(ids))
    assert dataset.dropped_clients == tuple(
        cid for cid, (labels, _) in enumerate(_raw_shards(config, seed))
        if cid not in straggler and table[labels].all()
    )
    arrays = [a for s in shards for a in (s.features, s.labels)] + [
        dataset.eval_total.features,
        dataset.eval_total.labels,
        dataset.eval_straggler_rows,
    ]
    assert not any(a.flags.writeable for a in arrays)
