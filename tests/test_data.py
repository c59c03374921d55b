"""Tests for synthetic data generation and the straggler partition."""

import importlib.util
import logging
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stragglersim import data, rng
from stragglersim.data import (
    DatasetConfig,
    Shards,
    _class_table,
    _generate,
    _label,
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


def _rows(array, shards, i):
    """Shard i's rows, in id order, of one of the kept arrays it indexes."""
    return array[shards.starts[i] : shards.starts[i] + shards.sizes[i]]


def _columns(shards):
    """The shards' four columns as lists."""
    return [column.tolist() for column in vars(shards).values()]


def _partition_labels(label_lists, straggler_classes, n_straggler_clients, n_classes=4):
    """_partition over clients 0, 1, ... holding label_lists; every row's
    features are (row, row) so the kept rows can be traced. Returns the
    shards, the dropped ids and the kept features."""
    labels = np.concatenate([np.asarray(y, dtype=np.int64) for y in label_lists])
    features = np.repeat(np.arange(len(labels), dtype=np.float64)[:, None], 2, axis=1)
    sizes = np.array([len(y) for y in label_lists])
    table = _class_table(straggler_classes, n_classes)
    kept, _, shards, dropped = _partition(features, labels, sizes, table, n_straggler_clients)
    return shards, dropped, kept


def _raw_shards(config, seed):
    """The raw population of _generate as one (labels, features) pair per client."""
    features, labels, sizes = _generate(config, seed, class_centers(config, seed))
    ends = np.cumsum(sizes)[:-1]
    return list(zip(np.split(labels, ends), np.split(features, ends)))


def test_ranking_prefers_high_counts_then_low_ids():
    # Straggler-class counts by client: 9, 3, 7, 0, 7. The top two are
    # client 0 and then client 2, which wins the 7-count tie over client 4
    # by lower id.
    out, dropped, _ = _partition_labels(
        [[0] * 9 + [2] * 1, [0] * 3 + [2] * 5, [1] * 7 + [3] * 2, [2] * 4, [0] * 7 + [3] * 3],
        {0, 1},
        2,
    )
    flagged = out.ids[out.is_straggler].tolist()
    assert flagged == [0, 2]
    assert dropped == ()


def test_standard_shards_lose_straggler_classes():
    dataset = build_dataset(SMALL, seed=0)
    shards = dataset.shards
    for i in np.flatnonzero(~shards.is_straggler):
        assert not np.isin(_rows(dataset.labels, shards, i), [0, 1]).any()
        assert shards.sizes[i] > 0


def test_straggler_shards_keep_everything_and_counts_are_conserved():
    features, labels, sizes = _generate(SMALL, 0, class_centers(SMALL, 0))
    table = _class_table((0, 1), SMALL.n_classes)
    kept_x, kept_y, out, dropped = _partition(
        features, labels, sizes, table, SMALL.n_straggler_clients
    )
    raw = _raw_shards(SMALL, seed=0)

    non_straggler_before = int((~table[labels]).sum())
    non_straggler_after = sum(int((~table[_rows(kept_y, out, i)]).sum()) for i in range(len(out)))
    assert non_straggler_after == non_straggler_before

    for i, (client_id, is_straggler) in enumerate(zip(out.ids.tolist(), out.is_straggler.tolist())):
        labels, features = _rows(kept_y, out, i), _rows(kept_x, out, i)
        raw_labels, raw_features = raw[client_id]
        if is_straggler:
            np.testing.assert_array_equal(labels, raw_labels)
            np.testing.assert_array_equal(features, raw_features)
        else:
            keep = ~table[raw_labels]
            np.testing.assert_array_equal(labels, raw_labels[keep])
            np.testing.assert_array_equal(features, raw_features[keep])


def test_emptied_standard_shard_is_dropped_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        out, dropped, kept = _partition_labels(
            [
                [0] * 5,  # pure straggler classes, ranked top
                [0, 0, 1],  # pure straggler classes, not flagged
                [2, 3],
            ],
            {0, 1},
            1,
        )
    assert dropped == (1,)
    assert out.ids.tolist() == [0, 2]
    # the kept shards hold exactly their own rows
    assert _rows(kept, out, 1)[:, 0].tolist() == [8.0, 9.0]
    assert sum(1 for rec in caplog.records if "dropped" in rec.message) == 1


def test_drop_warning_gives_the_count_and_debug_gives_the_ids(caplog):
    # A large population drops hundreds of shards; the ids stay out of WARNING.
    with caplog.at_level(logging.DEBUG, logger="stragglersim.data"):
        _, dropped, _ = _partition_labels([[0, 1]] * 40 + [[0] * 5], {0, 1}, 1)
    assert dropped == tuple(range(40))
    assert [rec.levelno for rec in caplog.records] == [logging.WARNING, logging.DEBUG]
    by_level = {rec.levelno: rec.getMessage() for rec in caplog.records}
    assert "dropped 40 standard shard(s)" in by_level[logging.WARNING]
    assert "39" not in by_level[logging.WARNING]
    assert by_level[logging.DEBUG].endswith(str(list(range(40))))


def test_population_scale_straggler_counts():
    config = DatasetConfig(m_clients=3400, n_straggler_clients=800)
    dataset = build_dataset(config, seed=0)
    n_straggler = int(dataset.shards.is_straggler.sum())
    n_standard = int((~dataset.shards.is_straggler).sum())
    assert n_straggler == 800
    assert n_standard == 2600 - len(dataset.dropped_clients)
    # At the default concentration nearly every standard client holds at
    # least one non-straggler example, so drops stay rare.
    assert len(dataset.dropped_clients) < 26


def test_shard_sizes_follow_lognormal_formula():
    config = DatasetConfig(
        m_clients=50, median_shard_size=12.0, size_sigma=0.7, n_straggler_clients=12
    )
    _, _, sizes = _generate(config, 3, class_centers(config, 3))
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
    assert dataset.shards.sizes[0] == 10
    assert dataset.shards.is_straggler[0]


def test_determinism_and_seed_sensitivity():
    a = build_dataset(SMALL, seed=5)
    b = build_dataset(SMALL, seed=5)
    c = build_dataset(SMALL, seed=6)
    assert _columns(a.shards) == _columns(b.shards)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.eval_total.features, b.eval_total.features)
    assert not np.array_equal(_rows(a.features, a.shards, 0), _rows(c.features, c.shards, 0))


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


def _cdf(mixtures):
    cdf = np.cumsum(mixtures, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _check_labels(mixtures, sizes, uniform):
    """_label against np.searchsorted(cdf row, u, side="right") for every
    row, a mixture's cdf being its cumsum divided by its last entry; the
    features come out as centers[labels] + spread * noise."""
    noise = np.arange(2.0 * len(uniform)).reshape(-1, 2)
    centers = 10 * np.arange(2.0 * mixtures.shape[1]).reshape(-1, 2)
    features = noise.copy()
    labels = np.zeros(len(uniform), dtype=np.int64)
    _label(mixtures, sizes, uniform, features, centers, 0.5, labels)
    cdf = _cdf(mixtures)
    owner = np.repeat(np.arange(len(mixtures)), sizes)
    want = [np.searchsorted(cdf[i], u, side="right") for i, u in zip(owner, uniform)]
    np.testing.assert_array_equal(labels, want)
    np.testing.assert_array_equal(features, centers[labels] + 0.5 * noise)


@st.composite
def _label_blocks(draw):
    """(mixtures, sizes, uniform): mixture rows, zero weights among them, and
    a block of uniforms per row, where a uniform may be exactly an entry of
    its row's cdf below 1.0; at least one is."""
    n_classes = draw(st.integers(2, 6))
    weight = st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]) | st.floats(0.0, 5.0)
    row = st.lists(weight, min_size=n_classes, max_size=n_classes).filter(lambda r: sum(r) > 0)
    mixtures = np.array(draw(st.lists(row, min_size=1, max_size=5)))
    blocks, ties = [], 0
    for row_cdf in _cdf(mixtures):
        tie = st.sampled_from(row_cdf[row_cdf < 1.0].tolist() or [0.5])
        block = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True) | tie, min_size=1, max_size=8))
        ties += len(set(block) & set(row_cdf.tolist()))
        blocks.append(block)
    assume(ties > 0)
    return mixtures, [len(b) for b in blocks], np.concatenate(blocks)


@given(block=_label_blocks())
@settings(max_examples=150, deadline=None)
def test_a_label_counts_the_cdf_entries_at_or_below_its_uniform(block):
    _check_labels(*block)


def test_a_one_row_eval_shaped_block_labels_at_ties():
    # the eval split's call: one mixture row over the whole block; the zero
    # weight makes two cdf entries equal, and the first uniforms tie each entry
    config = DatasetConfig(n_classes=4, class_mixture=(0.4, 0.0, 0.3, 0.3), straggler_classes=(0,))
    mixture = config.mixture()[None]
    uniform = np.concatenate([_cdf(mixture)[0, :-1], rng.stream(0, rng.VERIFY, 0).random(300)])
    _check_labels(mixture, [len(uniform)], uniform)


def test_mixture_normalization():
    config = DatasetConfig(
        n_classes=3, class_mixture=(2.0, 1.0, 1.0), straggler_classes=(0,)
    )
    np.testing.assert_allclose(config.mixture(), [0.5, 0.25, 0.25])
    uniform = DatasetConfig(n_classes=4, straggler_classes=(0,))
    np.testing.assert_allclose(uniform.mixture(), [0.25] * 4)


def test_total_examples_sums_shards():
    shards = Shards(np.array([0, 1]), np.array([0, 2]), np.array([2, 3]), np.array([False, True]))
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


# The dataset digest tools/ab.py compares between two trees.
_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_ab)


def _digest(dataset):
    return _ab.dataset_digest(dataset, data)


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


def test_concurrent_builds_match_a_serial_build_and_leave_no_thread():
    # build_dataset's eval worker: two builds at once still give the serial
    # bits, and no worker outlives a build that returns or raises.
    config = DatasetConfig(**_ACCEPTANCE)
    before = threading.active_count()
    serial = _digest(build_dataset(config, 0))
    assert threading.active_count() == before

    start = threading.Barrier(2)
    digests = []

    def build():
        start.wait(timeout=10)
        digests.append(_digest(build_dataset(config, 0)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == [serial, serial]
    assert threading.active_count() == before

    # every class is a straggler class and no client is a straggler, so the
    # partition keeps no shard
    empty = DatasetConfig(n_classes=2, m_clients=5, straggler_classes=(0, 1),
                          n_straggler_clients=0, eval_size=20)
    with pytest.raises(ValueError, match="no client shard"):
        build_dataset(empty, 0)
    assert threading.active_count() == before


@pytest.mark.parametrize("section", [_ACCEPTANCE, _FEDBUFF_CROWD], ids=["acceptance", "fedbuff_crowd"])
def test_every_stream_is_made_on_the_calling_thread(monkeypatch, section):
    # the rule in build_dataset's docstring
    threads = []
    stream = rng.stream

    def spy(*args):
        threads.append(threading.current_thread())
        return stream(*args)

    monkeypatch.setattr(rng, "stream", spy)
    build_dataset(DatasetConfig(**section), 0)
    assert threads and set(threads) == {threading.current_thread()}


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
    straggler = shards.ids[shards.is_straggler].tolist()
    assert len(straggler) == config.n_straggler_clients
    table = np.isin(np.arange(config.n_classes), config.straggler_classes)
    for i in range(len(shards)):
        assert shards.sizes[i] > 0
        assert shards.is_straggler[i] or not table[_rows(dataset.labels, shards, i)].any()
    ids = shards.ids.tolist()
    assert ids == sorted(set(ids))
    # the shards tile the kept arrays in id order
    ends = np.cumsum(shards.sizes).tolist()
    assert shards.starts.tolist() == [0, *ends[:-1]]
    assert ends[-1] == len(dataset.labels) == len(dataset.features)
    assert dataset.dropped_clients == tuple(
        cid for cid, (labels, _) in enumerate(_raw_shards(config, seed))
        if cid not in straggler and table[labels].all()
    )
    arrays = [
        dataset.features,
        dataset.labels,
        dataset.eval_total.features,
        dataset.eval_total.labels,
        dataset.eval_straggler_rows,
        *vars(shards).values(),
    ]
    assert not any(a.flags.writeable for a in arrays)
