"""Tests for keyed stream derivation and order-independent replicate mapping."""

import functools

import numpy as np
import pytest

from rwrs import streams
from rwrs.streams import (
    ROLE_NOISE,
    ROLE_ORACLE,
    ROLE_SCENERY,
    ROLE_WALK,
    _block_seed_words,
    _entropy,
    _word64_array,
    block_streams,
    replicate_map,
    spawn_rng,
    stream_key,
    stream_words,
)

ROLES = (ROLE_WALK, ROLE_SCENERY, ROLE_NOISE, ROLE_ORACLE)
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -3)
# one entropy word below 2**32, two from there on
INDEX_BLOCKS = ((0,), (0, 1, 2**32 - 1), (2**32,), (2**32 + 7, 2**40), (0, 2**32, 5, 2**64 - 1, 31))


def test_spawn_rng_is_deterministic():
    a = spawn_rng(5, 1, 2).standard_normal(8)
    b = spawn_rng(5, 1, 2).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_spawn_rng_distinguishes_paths():
    base = spawn_rng(5).standard_normal(8)
    variants = [
        spawn_rng(6).standard_normal(8),
        spawn_rng(5, 0).standard_normal(8),
        spawn_rng(5, 1).standard_normal(8),
        spawn_rng(5, 0, 1).standard_normal(8),
        spawn_rng(5, 1, 0).standard_normal(8),
    ]
    for other in variants:
        assert np.any(base != other)
    # path order matters
    assert np.any(variants[3] != variants[4])


def test_spawn_rng_masks_to_64_bits():
    a = spawn_rng(2**64 + 7).standard_normal(4)
    b = spawn_rng(7).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_stream_key_is_stable_and_key_like():
    key = stream_key(0, 3, 1)
    assert key == stream_key(0, 3, 1)
    assert 0 <= key < 2**64
    assert stream_key(0, 3, 1) != stream_key(0, 1, 3)
    assert stream_key(0) != stream_key(1)


def test_stream_key_golden_values():
    # numpy's SeedSequence and the substream layout together fix these;
    # a change to either changes every output of the package
    assert stream_key(0, 0, 0) == 10128210881749538955
    assert stream_key(2**64 - 1, 2**32, 1) == 8797711897004035288
    assert stream_key(901, 31, 3) == 12024859134558439702


def _assert_block_matches_numpy(seed, indices, roles):
    # seed words straight from the column arithmetic
    index_column = np.tile(_word64_array(indices), len(roles))
    role_column = np.repeat(_word64_array(roles), len(indices))
    entropy = _entropy(seed, (index_column, role_column))
    words = _block_seed_words(entropy, len(indices) * len(roles)).reshape(len(roles), len(indices), 4)
    # and generators and keys through the public entry point
    generators, keys = block_streams(seed, indices, rngs=roles, keys=roles)
    assert len(generators) == len(keys) == len(roles)
    for r, role in enumerate(roles):
        rngs = list(generators[r])
        assert len(rngs) == len(keys[r]) == len(indices)
        for k, i in enumerate(indices):
            reference = np.random.SeedSequence(_entropy(seed, (i, role)))
            assert words[r, k].tobytes() == reference.generate_state(4, np.uint64).tobytes()
            assert rngs[k].bit_generator.state == np.random.PCG64(reference).state
            expected = spawn_rng(seed, i, role).standard_normal(64)
            assert rngs[k].standard_normal(64).tobytes() == expected.tobytes()
            assert keys[r][k] == stream_key(seed, i, role)
            assert type(keys[r][k]) is int


@pytest.mark.parametrize("vectorised", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_block_streams_match_numpy_seed_sequence(seed, vectorised, monkeypatch):
    if vectorised:
        # every block through the column arithmetic, down to one stream
        monkeypatch.setattr(streams, "_BLOCK_MIN_STREAMS", 0)
    for indices in INDEX_BLOCKS:
        _assert_block_matches_numpy(seed, indices, ROLES)
        _assert_block_matches_numpy(seed, indices, (ROLE_SCENERY,))


def test_block_streams_of_a_range_match_numpy():
    # the default path of a copy loop: a range of copy indices, two roles
    _assert_block_matches_numpy(7, range(40), (ROLE_WALK, ROLE_SCENERY))
    _assert_block_matches_numpy(7, range(2**32 - 3, 2**32 + 3), (ROLE_WALK, ROLE_NOISE))


# draw seeds that need one entropy word and two, mixed in one array
MIXED_SEEDS = (0, 5, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize(
    "seeds, copies, roles",
    [
        ((2**40,), (3,), (ROLE_SCENERY,)),  # one stream
        ((7, 2**33), (0, 2**32 + 1), (ROLE_WALK, ROLE_SCENERY)),  # 8 streams, numpy one at a time
        (MIXED_SEEDS, (0,), (ROLE_WALK, ROLE_SCENERY)),  # 12 streams, the column arithmetic
        (MIXED_SEEDS, (0, 1, 2**32 + 7), (ROLE_WALK, ROLE_SCENERY)),  # 36 streams
    ],
)
def test_stream_words_over_seed_arrays_match_numpy_seed_sequence(seeds, copies, roles):
    # the broadcast the schema makes: draw seeds x copies x roles
    words = stream_words(
        _word64_array(seeds)[:, None, None], _word64_array(copies)[:, None], _word64_array(roles)
    )
    assert words.shape == (len(seeds), len(copies), len(roles), 4)
    assert words.dtype == np.uint64
    for a, seed in enumerate(seeds):
        for b, copy in enumerate(copies):
            for c, role in enumerate(roles):
                reference = np.random.SeedSequence(_entropy(seed, (copy, role)))
                assert words[a, b, c].tobytes() == reference.generate_state(4, np.uint64).tobytes()
                assert int(words[a, b, c, 0]) == stream_key(seed, copy, role)


@pytest.mark.parametrize("indices", [(0,), tuple(range(11)), tuple(range(12)), (0, 2**32, 5, 2**64 - 1) * 4])
def test_stream_words_of_an_index_array_are_the_stream_keys(indices):
    keys = stream_words(2**35 + 1, _word64_array(indices))[:, 0]
    assert keys.tolist() == [stream_key(2**35 + 1, i) for i in indices]


def test_block_streams_split_generator_and_key_roles():
    (walks, noises), (keys,) = block_streams(
        9, range(10), rngs=(ROLE_WALK, ROLE_NOISE), keys=(ROLE_SCENERY,)
    )
    for i, walk, noise, key in zip(range(10), walks, noises, keys):
        assert walk.bit_generator.state == spawn_rng(9, i, ROLE_WALK).bit_generator.state
        assert noise.bit_generator.state == spawn_rng(9, i, ROLE_NOISE).bit_generator.state
        assert key == stream_key(9, i, ROLE_SCENERY)


def test_spawned_streams_look_independent():
    # crude but effective: correlation of long draws from sibling
    # streams should be at noise level
    x = spawn_rng(11, 0).standard_normal(20_000)
    y = spawn_rng(11, 1).standard_normal(20_000)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) <= 4.0 / np.sqrt(20_000)


def _square(i: int) -> int:
    return i * i


def _keyed_draw(i: int, seed: int) -> float:
    return float(spawn_rng(seed, i).standard_normal())


def test_replicate_map_serial_results():
    assert replicate_map(_square, 5) == [0, 1, 4, 9, 16]
    assert replicate_map(_square, 0) == []
    assert replicate_map(_square, 1) == [0]


def test_replicate_map_parallel_matches_serial():
    draw = functools.partial(_keyed_draw, seed=12)
    serial = replicate_map(draw, 16, jobs=1)
    parallel = replicate_map(draw, 16, jobs=2)
    assert serial == parallel


def test_replicate_map_more_jobs_than_work():
    draw = functools.partial(_keyed_draw, seed=13)
    assert replicate_map(draw, 3, jobs=8) == replicate_map(draw, 3, jobs=1)


def test_replicate_map_validation():
    with pytest.raises(ValueError):
        replicate_map(_square, -1)
    with pytest.raises(ValueError):
        replicate_map(_square, 4, jobs=0)
