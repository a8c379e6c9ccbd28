"""Deterministic random-stream derivation for replicate-parallel runs.

Every random object in the package is drawn from a generator keyed by a
tuple ``(seed, *path)`` of nonnegative integers.  Identical key tuples
give identical streams, distinct tuples give statistically independent
streams, and nothing depends on call order or worker scheduling.

A stream is numpy's ``SeedSequence`` of the key's entropy words feeding
a ``PCG64`` generator.  ``spawn_rng`` and ``stream_key`` derive one
stream at a time through numpy.  ``stream_words`` derives many streams
at once, for arrays of seeds and path entries: it runs
``SeedSequence``'s pool mixing as uint32 arithmetic on one column per
stream, with the data-independent hash constants precomputed, and gives
the same generators and keys as numpy, bit for bit; ``SeededRngs``
makes the generators from its words as they are taken.

Every Monte Carlo driver maps fixed blocks of replicate indices over a
process pool with ``replicate_blocks`` and reassembles them in index
order, so outputs are byte-identical for any worker count.  Replicate r
of a schema or stable-motion sample is seeded by ``stream_key(seed, r)``;
a walk experiment's walk comes from ``(seed, r, ROLE_WALK)`` and the
oracle's path from ``(seed, r, ROLE_ORACLE)``.
"""

from __future__ import annotations

import functools
import multiprocessing
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .model import check_sizes

# role tags appended to stream keys so that the independent random
# ingredients of one replicate never share a stream
ROLE_WALK = 0
ROLE_SCENERY = 1
ROLE_NOISE = 2
ROLE_ORACLE = 3

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence: a pool of four 32-bit words, mixed with two
# multiplicative hashes whose multipliers advance on every use, and an
# output hash of its own
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# seed words per stream: PCG64 seeds from four 64-bit words, and the
# first of them is the stream's key
_SEED_WORDS = 4
# below this many streams, numpy's one-at-a-time derivation is faster
# than the fixed cost of the column arithmetic
_BLOCK_MIN_STREAMS = 12
# replicate indices per task of ``replicate_blocks``; the blocks do not
# depend on the worker count
_REPLICATE_BLOCK = 16

T = TypeVar("T")


def _word64_array(values: Sequence[int]) -> np.ndarray:
    """Each of ``values`` mod 2**64, as a uint64 array."""
    return np.array([int(v) & _MASK64 for v in values], dtype=np.uint64)


def _entropy(seed, path):
    # the leading length word makes the encoding injective: SeedSequence
    # zero-pads short entropy, so without it (seed, 0) and (seed,) would
    # collide and a zero role tag would alias the untagged stream.  Path
    # entries may be uint64 arrays, one stream per element.
    return (len(path), *(v if isinstance(v, np.ndarray) else int(v) & _MASK64 for v in (seed, *path)))


def _seed_sequence(seed: int, path: Sequence[int]) -> np.random.SeedSequence:
    # SeedSequence reads each entropy value as its 32-bit words, low word
    # first, keeping the high word only when it is nonzero; handing it
    # those words as one array skips its slower per-value conversion
    words = []
    for value in _entropy(seed, path):
        words.append(value & _MASK32)
        if value >> 32:
            words.append(value >> 32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream keyed by ``(seed, *path)``."""
    return np.random.default_rng(_seed_sequence(seed, path))


def stream_key(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` to a single 64-bit key.

    Useful when a sub-component wants a scalar seed of its own, e.g. a
    hashed scenery: the key namespaces all streams derived from it.
    """
    state = _seed_sequence(seed, path).generate_state(1, np.uint64)
    return int(state[0])


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**t`` mod 2**32 for t < count, as a uint32 column."""
    out = np.empty((count, 1), dtype=np.uint32)
    const = init
    for t in range(count):
        out[t] = const
        const = const * mult & _MASK32
    out.flags.writeable = False
    return out


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, applied with the multiplier sequence
    # consts[0], consts[1], ...: row r of the result used consts[r] and
    # consts[r + 1]
    rows = len(consts) - 1
    out = values ^ consts[:rows]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


def _seed_sequence_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, uint32)`` for each column e of ``entropy``.

    ``entropy`` is a (length, streams) uint32 array of assembled entropy
    words; the result has shape (n_words, streams).
    """
    length, streams = entropy.shape
    hash_a = _hash_constants(_INIT_A, _MULT_A, 1 + _POOL_SIZE * max(length, _POOL_SIZE))
    # the pool starts as the hashed leading entropy words, zero-padded
    pool = np.zeros((_POOL_SIZE, streams), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, hash_a[: _POOL_SIZE + 1])
    t = _POOL_SIZE
    # every pool word is mixed into every other: for one source word the
    # three destinations are independent, so they are one row block
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[t : t + _POOL_SIZE]))
        t += _POOL_SIZE - 1
    # entropy beyond the pool is mixed into every pool word
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(entropy[src], hash_a[t : t + _POOL_SIZE + 1]))
        t += _POOL_SIZE
    # output words cycle through the pool
    hash_b = _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], hash_b)


def _block_seed_words(entropy: tuple, streams: int) -> np.ndarray:
    """Seed words of ``streams`` streams, shape (streams, _SEED_WORDS), uint64.

    Each entry of ``entropy`` is an int shared by every stream or a
    uint64 array with one value per stream, as ``_entropy`` returns them.
    """
    values = np.empty((len(entropy), streams), dtype="<u8")
    for row, value in zip(values, entropy):
        row[...] = value
    # each value's low and high 32-bit words; as in _seed_sequence, the
    # high word counts only when it is nonzero, so the word layout depends
    # on the values and streams are grouped by layout
    halves = values.view("<u4").reshape(len(entropy), streams, 2)
    wide = halves[:, :, 1] != 0
    layout = (wide.astype(np.int64) << np.arange(len(entropy))[:, None]).sum(axis=0)
    out = np.empty((streams, 2 * _SEED_WORDS), dtype="<u4")
    for code in set(layout.tolist()):
        chosen = layout == code
        words = [
            halves[j, chosen, high]
            for j in range(len(entropy))
            for high in (0, 1)
            if not high or code >> j & 1
        ]
        out[chosen] = _seed_sequence_words(np.array(words, dtype=np.uint32), 2 * _SEED_WORDS).T
    # pairs of 32-bit words make one 64-bit word, low word first
    return out.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed words derived ahead of time, handed to a bit generator as its seed sequence."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if np.dtype(dtype) != np.uint64 or n_words > len(self.words):
            raise ValueError(f"only {len(self.words)} uint64 seed words are held")
        return self.words[:n_words]


def stream_words(seed, *path) -> np.ndarray:
    """Seed words of the streams ``(seed, *path)``, one stream per element.

    ``seed`` and each path entry are an int or an integer array; arrays
    broadcast together, and the result has their broadcast shape plus a
    trailing axis of ``_SEED_WORDS`` uint64 words, what the stream's
    ``SeedSequence`` gives as ``generate_state(4, np.uint64)``.  The first
    word is ``stream_key(seed, *path)``, and ``SeededRngs`` makes the
    streams' generators from the words.  All streams are derived in one
    vectorised pass; only a few streams go through numpy one at a time.
    """
    length, *values = _entropy(seed, path)
    columns = np.broadcast_arrays(*(np.asarray(v, dtype=np.uint64) for v in values))
    shape = columns[0].shape
    count = columns[0].size
    if count < _BLOCK_MIN_STREAMS:
        words = [
            _seed_sequence(entry[0], entry[1:]).generate_state(_SEED_WORDS, np.uint64)
            for entry in zip(*(c.ravel().tolist() for c in columns))
        ]
        return np.array(words, dtype=np.uint64).reshape(*shape, _SEED_WORDS)
    return _block_seed_words((length, *(c.ravel() for c in columns)), count).reshape(*shape, _SEED_WORDS)


class SeededRngs(Sequence[np.random.Generator]):
    """The generators of streams given by their seed words, each made when it is taken.

    ``words`` is a (streams, 4) array from ``stream_words``; numpy's
    ``PCG64`` seeds itself from a stream's words as it would from the
    stream's ``SeedSequence``.  A slice gives a list of fresh generators,
    so a long sequence of streams never holds more generators than its
    caller takes at once.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return np.random.Generator(np.random.PCG64(_SeedWords(self.words[index])))


def replicate_map(fn: Callable[[int], T], count: int, jobs: int = 1) -> list[T]:
    """Evaluate ``fn(0), ..., fn(count - 1)``, optionally on a process pool.

    ``fn`` must be picklable (a module-level callable or a
    ``functools.partial`` of one) and must derive all of its randomness
    from the replicate index.  Results come back ordered by index, so
    the output is independent of ``jobs``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    if jobs == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    chunk = max(1, count // (4 * jobs))
    with multiprocessing.Pool(processes=min(jobs, count)) as pool:
        return pool.map(fn, range(count), chunksize=chunk)


def _replicate_block(block: int, fn: Callable, replicates: int, size: int) -> np.ndarray:
    return fn(np.arange(block * size, min((block + 1) * size, replicates), dtype=np.uint64))


def replicate_blocks(fn: Callable[[np.ndarray], np.ndarray], replicates: int, jobs: int = 1) -> np.ndarray:
    """``fn`` of each fixed block of the replicate indices 0..replicates-1, rows concatenated.

    The indices are split into blocks of ``_REPLICATE_BLOCK``, whatever
    ``jobs`` is, and the blocks are mapped through ``replicate_map``.
    ``fn`` takes a block's indices as a uint64 array, derives every
    stream of the block from them in one ``stream_words`` pass and
    returns one row per index, so the output does not depend on ``jobs``.
    """
    check_sizes(replicates=replicates)
    # the size is fixed here, not read in the workers
    size = _REPLICATE_BLOCK
    task = functools.partial(_replicate_block, fn=fn, replicates=replicates, size=size)
    return np.concatenate(replicate_map(task, -(-replicates // size), jobs=jobs))
