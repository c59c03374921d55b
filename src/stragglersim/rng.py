"""Named, splittable RNG streams for reproducible simulations.

Every random draw in a run comes from a Philox generator derived from
(seed, purpose, *ids) through a SeedSequence spawn key. Streams with
different purposes or ids are statistically independent, so consuming
draws for one purpose (say, teacher sampling) never shifts the draws of
another (say, a client's latency). Two configurations that dispatch the
same clients in the same order therefore see identical latency and
shuffle sequences, which is what makes trajectory-equality checks between
algorithm reductions exact.

A family of per-id streams, such as one per client, need not build a
costly SeedSequence per id: stream_keys hashes a whole id array into the
keys that stream derives, and stream_from_key makes one id's generator.
A loop over the family can keep one generator and rekey it to each id.

A Philox generator's whole state is its key and counter, so a generator a
finished run hands back (recycle) can serve any later stream: stream_from_key
rekeys a spare when one is left and builds a generator only when none is.
A recycled generator's bit_generator.seed_seq still names the key it was
built with; nothing reads it, and its state names the stream it serves.
"""

from __future__ import annotations

import numpy as np

# Purpose codes for stream derivation. The values are part of the
# reproducibility contract: changing them changes every simulation output.
INIT = 0  # model weight initialization
DATA = 1  # training shard generation
EVAL = 2  # held-out split generation
COHORT = 3  # client sampling for cohorts and asynchronous dispatch
LATENCY = 4  # per-client latency factor draws
SHUFFLE = 5  # per-client minibatch shuffling
TEACHER = 6  # teacher-history sampling
TIME_LIMIT = 7  # Monte Carlo estimate of the time-limit threshold
VERIFY = 8  # convergence-check traces


def stream(seed: int, purpose: int, *ids: int) -> np.random.Generator:
    """Return an independent generator for (seed, purpose, *ids).

    Args:
        seed: Base seed of the trial or tool invocation.
        purpose: One of the purpose codes defined in this module.
        *ids: Optional sub-identifiers, e.g. a client id.

    Returns:
        A numpy Generator backed by counter-based Philox.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *ids))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL, _M32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(words: np.ndarray, init: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's hash, once per pool word: row j hashes words with the
    constant that init reaches after calls + j multiplications by mult."""
    c = np.array([init * pow(mult, calls + j, 2**32) & _M32 for j in range(_POOL + 1)], np.uint32)
    words = (words ^ c[:-1, None]) * c[1:, None]
    return words ^ words >> 16


def stream_keys(seed: int, purpose: int, *prefix: int, ids) -> np.ndarray:
    """A (len(ids), 2) uint64 array: row i is the Philox key of
    stream(seed, purpose, *prefix, ids[i]).

    Every id shares the SeedSequence pool of (seed, purpose, *prefix), since
    the id is the last word mixed in; it is mixed in over the whole array at
    once and the pool hashed into a key as generate_state(2, uint64) does.
    """
    ids = np.asarray(ids)
    if ids.size and not (0 <= ids.min() and ids.max() <= _M32):
        raise ValueError(f"stream ids must be in [0, 2**32), got {ids.min()}..{ids.max()}")
    shared = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *prefix)).pool
    # Each uint32 word mixed so far (the seed, padded to the pool size, then
    # the spawn key) made one hash call per pool word.
    n_words = [max(int(k).bit_length() + 31, 32) // 32 for k in (seed, purpose, *prefix)]
    calls = _POOL * (max(_POOL, n_words[0]) + sum(n_words[1:]))
    hashed = _hash(ids.astype(np.uint32), _INIT_A, _MULT_A, calls)
    pool = shared[:, None] * np.uint32(_MIX_L) - hashed * np.uint32(_MIX_R)
    state = _hash(pool ^ pool >> 16, _INIT_B, _MULT_B, 0).astype(np.uint64)
    # generate_state joins the four words into two as little-endian pairs
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class _Key(np.random.bit_generator.ISeedSequence):
    """Hands Philox one precomputed key."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


# Philox's default starting counter, 0, as an array: Philox copies it, which
# makes a stream faster than converting the int 0 each time
_COUNTER_0 = np.zeros(4, dtype=np.uint64)
_COUNTER_0.flags.writeable = False


# Generators handed back by recycle, for stream_from_key to rekey
_spares: list[np.random.Generator] = []


def stream_from_key(key: np.ndarray) -> np.random.Generator:
    """The generator stream() gives for the ids of one stream_keys row: a
    spare, rekeyed, or a new generator when no spare is left.

    Rekeying a spare is faster than a build and makes none of the four
    objects a build adds for the garbage collector to track. One atomic
    list.pop takes the spare, so two threads never get the same one. A new
    generator keeps a copy of key, so that as a spare it holds no view of
    its first key table.
    """
    try:
        gen = _spares.pop()
    except IndexError:
        return np.random.Generator(np.random.Philox(_Key(key.copy()), counter=_COUNTER_0))
    rekey(gen, key)
    return gen


def recycle(generators) -> None:
    """Hand generators made by stream_from_key back for it to reuse. The
    caller must drop every reference it holds to them: the next
    stream_from_key call may rekey one to another stream."""
    _spares.extend(generators)


def rekey(gen: np.random.Generator, key: np.ndarray) -> None:
    """Reset gen, a generator made by stream_from_key, to the start of the
    stream of key, a stream_keys row.

    It writes Philox's state: the key, a zero counter, an empty buffer
    (buffer_pos 4) and no held uint32, so gen then draws, bit for bit, what
    a new stream_from_key(key) generator would draw.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
