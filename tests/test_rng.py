"""Tests for the named random-stream layout."""

import copy
import pickle

import numpy as np
import pytest

from stragglersim import rng


def test_same_key_same_sequence():
    a = rng.stream(42, rng.DATA, 3).standard_normal(16)
    b = rng.stream(42, rng.DATA, 3).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_purpose_separates_streams():
    a = rng.stream(42, rng.DATA).standard_normal(8)
    b = rng.stream(42, rng.EVAL).standard_normal(8)
    assert not np.array_equal(a, b)


def test_ids_separate_streams():
    a = rng.stream(42, rng.LATENCY, 0).standard_normal(8)
    b = rng.stream(42, rng.LATENCY, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_seed_separates_streams():
    a = rng.stream(0, rng.COHORT).standard_normal(8)
    b = rng.stream(1, rng.COHORT).standard_normal(8)
    assert not np.array_equal(a, b)


def test_stream_values_are_stable():
    # Counter-based generator, so these values are pinned across platforms.
    # They guard the (seed, purpose, ids) -> spawn-key mapping against
    # accidental rearrangement.
    got = rng.stream(0, rng.INIT).standard_normal(3)
    np.testing.assert_allclose(
        got,
        [-0.8025458906390128, 0.45751928097784245, -0.31455873558038694],
        rtol=0,
        atol=0,
    )
    got = rng.stream(7, rng.LATENCY, 12).standard_normal(2)
    np.testing.assert_allclose(
        got,
        [0.07584785896103108, -0.8452811109365997],
        rtol=0,
        atol=0,
    )


def test_purpose_codes_are_distinct():
    codes = [
        rng.INIT,
        rng.DATA,
        rng.EVAL,
        rng.COHORT,
        rng.LATENCY,
        rng.SHUFFLE,
        rng.TEACHER,
        rng.TIME_LIMIT,
        rng.VERIFY,
    ]
    assert len(set(codes)) == len(codes)


def test_extra_ids_extend_the_key():
    base = rng.stream(5, rng.SHUFFLE, 2).standard_normal(4)
    deeper = rng.stream(5, rng.SHUFFLE, 2, 0).standard_normal(4)
    assert not np.array_equal(base, deeper)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rng.stream(-1, rng.INIT)


# Seeds of one to five uint32 words, so the padded seed fills or overflows the
# SeedSequence pool; prefixes of one to three words; ids across 32 bits.
_KEY_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 1)
_KEY_PREFIXES = ((rng.LATENCY,), (rng.SHUFFLE,), (rng.DATA, 3), (rng.VERIFY, 2, 9))
_KEY_IDS = (0, 1, 2, 3, 17, 999, 12345, 2**31, 2**32 - 1)


@pytest.mark.parametrize("prefix", _KEY_PREFIXES, ids=str)
@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_key_table_rows_are_the_keys_and_draws_of_stream(seed, prefix):
    keys = rng.stream_keys(seed, *prefix, ids=_KEY_IDS)
    assert keys.shape == (len(_KEY_IDS), 2)
    assert keys.dtype == np.uint64
    for row, client_id in zip(keys, _KEY_IDS):
        reference = rng.stream(seed, *prefix, client_id)
        np.testing.assert_array_equal(row, reference.bit_generator.state["state"]["key"])
        gen = rng.stream_from_key(row)
        assert repr(gen.bit_generator.state) == repr(reference.bit_generator.state)
        np.testing.assert_array_equal(gen.standard_normal(5), reference.standard_normal(5))
        np.testing.assert_array_equal(gen.permutation(11), reference.permutation(11))
        np.testing.assert_array_equal(
            gen.integers(1000, size=6), reference.integers(1000, size=6)
        )


def test_key_table_of_no_ids_is_empty():
    assert rng.stream_keys(3, rng.LATENCY, ids=[]).shape == (0, 2)


@pytest.mark.parametrize("bad", [-1, 2**32])
def test_key_table_rejects_ids_outside_32_bits(bad):
    with pytest.raises(ValueError, match="ids must be in"):
        rng.stream_keys(0, rng.LATENCY, ids=[0, bad])


def test_key_table_rejects_negative_seed():
    with pytest.raises(ValueError):
        rng.stream_keys(-1, rng.LATENCY, ids=[0])


def test_keyed_stream_copies_and_pickles_mid_stream():
    gen = rng.stream_from_key(rng.stream_keys(4, rng.SHUFFLE, ids=[6])[0])
    gen.standard_normal(3)
    copied, unpickled = copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))
    expected = gen.standard_normal(4)
    np.testing.assert_array_equal(copied.standard_normal(4), expected)
    np.testing.assert_array_equal(unpickled.standard_normal(4), expected)


@pytest.mark.parametrize("n", [1, 2, 374, 2000, 2**31])
def test_one_call_bounded_draws_equal_sequential_scalar_draws(n):
    # Simulation.sample_cohort draws a k-member cohort's pool indices as
    # integers(arange(n, n - k, -1)) in one call. That must be the k scalar
    # integers(n - i) draws of sequential picks, leaving the stream where
    # they leave it.
    for k in sorted({1, min(n, 2), min(n, 60)}):
        for seed in range(5):
            one, each = rng.stream(seed, rng.COHORT), rng.stream(seed, rng.COHORT)
            got = one.integers(np.arange(n, n - k, -1))
            assert got.tolist() == [int(each.integers(n - i)) for i in range(k)]
            np.testing.assert_equal(one.bit_generator.state, each.bit_generator.state)


def _draws(gen):
    """A draw of each kind a stream serves, in turn; random(dtype=float32)
    reads uint32 halves, so it can leave one held."""
    return [
        gen.random(5),
        gen.standard_normal(5),
        gen.integers(1000, size=6),
        gen.permutation(11),
        gen.random(3, dtype=np.float32),
    ]


@pytest.mark.parametrize("left", ["as_drawn", "mid_block", "held_uint32"])
def test_a_rekeyed_generator_draws_what_a_fresh_keyed_stream_draws(left):
    keys = rng.stream_keys(4, rng.DATA, 3, ids=[0, 1, 17, 2**32 - 1])
    gen = rng.stream_from_key(keys[0])
    for row in [*keys[1:], keys[0]]:
        # A uint64 draw from a spent block leaves buffer_pos 1; a float32
        # draw without a held half holds one.
        state = gen.bit_generator.state
        if left == "mid_block" and state["buffer_pos"] == 4:
            gen.random()
        if left == "held_uint32" and not state["has_uint32"]:
            gen.random(dtype=np.float32)
        state = gen.bit_generator.state
        assert left != "mid_block" or state["buffer_pos"] < 4
        assert left != "held_uint32" or state["has_uint32"] == 1
        rng.rekey(gen, row)
        fresh = rng.stream_from_key(row)
        assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
        for got, want in zip(_draws(gen), _draws(fresh)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
