"""Tests for keyed stream derivation and order-independent replicate mapping."""

import functools

import numpy as np
import pytest

from rwrs import (
    ModelParams,
    NumericalError,
    SceneryKind,
    SchemaConfig,
    UsageError,
    fbm_local_time,
    functional_experiment,
    local_time_functional,
    local_time_power_integral,
    local_time_profiles,
    max_local_time,
    power_integral_draws,
    range_count,
    sample_fbm,
    sample_reward_process,
    sample_reward_schema,
    sample_stable_motion,
    sample_walk,
    scaling_experiment,
    schema_copy_samples,
    schema_samples,
    self_intersections,
    stable_motion_samples,
    walk_variance,
)
from rwrs import fgn, streams
from rwrs.streams import (
    ROLE_NOISE,
    ROLE_ORACLE,
    ROLE_SCENERY,
    ROLE_WALK,
    _block_seed_words,
    _entropy,
    _word64_array,
    SeededRngs,
    replicate_blocks,
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
    # and generators and keys through the public entry points
    public = stream_words(seed, _word64_array(indices), _word64_array(roles)[:, np.newaxis])
    assert len(public) == len(roles)
    for r, role in enumerate(roles):
        rngs = SeededRngs(public[r])[:]
        keys = public[r, :, 0].tolist()
        assert len(rngs) == len(keys) == len(indices)
        for k, i in enumerate(indices):
            reference = np.random.SeedSequence(_entropy(seed, (i, role)))
            assert words[r, k].tobytes() == reference.generate_state(4, np.uint64).tobytes()
            assert rngs[k].bit_generator.state == np.random.PCG64(reference).state
            expected = spawn_rng(seed, i, role).standard_normal(64)
            assert rngs[k].standard_normal(64).tobytes() == expected.tobytes()
            assert keys[k] == stream_key(seed, i, role)
            assert type(keys[k]) is int


@pytest.mark.parametrize("roles", [ROLES, (ROLE_SCENERY,)], ids=["all-roles", "scenery"])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_words_of_index_blocks_match_numpy_seed_sequence(seed, roles):
    # every block goes through the column arithmetic, down to one stream
    for indices in INDEX_BLOCKS:
        _assert_block_matches_numpy(seed, indices, roles)


def test_stream_words_of_a_range_match_numpy():
    # the default path of a copy loop: a range of copy indices, two roles
    _assert_block_matches_numpy(7, range(40), (ROLE_WALK, ROLE_SCENERY))
    _assert_block_matches_numpy(7, range(2**32 - 3, 2**32 + 3), (ROLE_WALK, ROLE_NOISE))


# draw seeds that need one entropy word and two, mixed in one array
MIXED_SEEDS = (0, 5, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize(
    "seeds, copies, roles",
    [
        ((2**40,), (3,), (ROLE_SCENERY,)),  # one stream
        ((7, 2**33), (0, 2**32 + 1), (ROLE_WALK, ROLE_SCENERY)),  # 8 streams
        (MIXED_SEEDS, (0,), (ROLE_WALK, ROLE_SCENERY)),  # 12 streams
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


def test_seeded_rngs_and_keys_split_by_role():
    roles = _word64_array((ROLE_WALK, ROLE_NOISE, ROLE_SCENERY))
    words = stream_words(9, np.arange(10, dtype=np.uint64)[:, np.newaxis], roles)
    walks, noises = SeededRngs(words[:, 0]), SeededRngs(words[:, 1])
    keys = words[:, 2, 0].tolist()
    assert len(walks) == len(noises) == len(keys) == 10
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


def _block_lengths(indices: np.ndarray) -> np.ndarray:
    return np.stack([indices, np.full(len(indices), len(indices), dtype=np.uint64)], axis=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_replicate_blocks_map_fixed_blocks_in_index_order(jobs):
    rows = replicate_blocks(_block_lengths, 37, jobs=jobs)
    assert rows[:, 0].tolist() == list(range(37))
    assert rows[:, 1].tolist() == [16] * 32 + [5] * 5
    with pytest.raises(UsageError):
        replicate_blocks(_block_lengths, 0)


def _non_finite_at(indices: np.ndarray, bad: tuple[int, ...]) -> np.ndarray:
    rows = np.stack([indices, indices], axis=1).astype(np.float64)
    rows[np.isin(indices, bad), 1] = np.nan
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_replicate_blocks_name_the_first_non_finite_replicate(jobs):
    with pytest.raises(NumericalError, match=r"^non-finite value in replicate 21$"):
        replicate_blocks(functools.partial(_non_finite_at, bad=(30, 21)), 37, jobs=jobs)


@pytest.mark.parametrize(
    "draw",
    [
        # the stable sampler overflows at beta = 0.01, Pareto scenery at 0.003
        lambda: schema_samples(ModelParams(hurst=0.5, beta=0.01), 256, 8, [1.0], 40, 0),
        lambda: schema_samples(
            ModelParams(hurst=0.5, beta=0.003), 256, 8, [1.0], 40, 0, kind=SceneryKind.SYMMETRIC_PARETO
        ),
        lambda: stable_motion_samples(ModelParams(hurst=0.5, beta=0.01), 4, [1.0], 64, 16, 20, 0),
    ],
    ids=["schema-stable", "schema-pareto", "motion"],
)
def test_overflowing_draws_fail_in_the_library(draw):
    # the overflow's RuntimeWarnings are silenced, so the library's own check
    # is what has to fail
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="^non-finite value in replicate "):
        draw()


# every Monte Carlo driver against its replicates drawn one at a time; 17
# replicates cross a block boundary at every block size tried
MODEL = ModelParams(hurst=0.7, beta=1.5)
# at H = 1/2 the fGn sampler skips its spectral step
IID = ModelParams(hurst=0.5, beta=1.5)
SEED = 19
REPLICATES = 17
TIMES = (0.5, 1.0)
GRID = (16, 32, 64)


def _walk(r: int, steps: int):
    return sample_walk(steps, MODEL.hurst, spawn_rng(SEED, r, ROLE_WALK))


def _energy(r: int, times=TIMES, thetas=(1.0, -0.5)) -> float:
    path = sample_fbm(64, times[-1], MODEL.hurst, spawn_rng(SEED, r, ROLE_ORACLE))
    return local_time_power_integral(fbm_local_time(path, times, 16), thetas, MODEL.beta)


def _scaling_rows(result) -> np.ndarray:
    return np.stack([result.mean_v, result.se_v, result.mean_r, result.se_r, result.median_scaled])


def _scaling_reference() -> np.ndarray:
    profiles = [local_time_profiles(_walk(r, 64), GRID) for r in range(REPLICATES)]
    v, r, top = (
        np.asarray([[statistic(p[h]) for h in GRID] for p in profiles], dtype=np.float64)
        for statistic in (self_intersections, range_count, max_local_time)
    )
    root_m = np.sqrt(REPLICATES)
    scaled = np.median(top, axis=0) * np.asarray(GRID, dtype=np.float64) ** (-MODEL.delta)
    return np.stack([v.mean(axis=0), v.std(axis=0, ddof=1) / root_m, r.mean(axis=0),
                     r.std(axis=0, ddof=1) / root_m, scaled])


def _functional_rows(result) -> np.ndarray:
    return np.stack([result.discrete, result.limit])


DRIVERS = {
    "schema": (
        lambda jobs: schema_samples(MODEL, 32, 3, TIMES, REPLICATES, SEED, jobs=jobs),
        lambda: np.stack([
            sample_reward_schema(SchemaConfig(32, 3, TIMES), MODEL, stream_key(SEED, r))
            for r in range(REPLICATES)
        ]),
    ),
    "schema-copies": (
        lambda jobs: schema_copy_samples(MODEL, 32, 3, TIMES, REPLICATES, SEED, jobs=jobs),
        lambda: np.stack([
            [sample_reward_process(32, TIMES, MODEL, stream_key(SEED, r), copy=i) for i in range(3)]
            for r in range(REPLICATES)
        ]),
    ),
    "schema-copies-iid": (
        lambda jobs: schema_copy_samples(IID, 32, 3, TIMES, REPLICATES, SEED, jobs=jobs),
        lambda: np.stack([
            [sample_reward_process(32, TIMES, IID, stream_key(SEED, r), copy=i) for i in range(3)]
            for r in range(REPLICATES)
        ]),
    ),
    "oracle": (
        lambda jobs: power_integral_draws(0.7, 1.5, (1.0, -0.5), TIMES, 64, 16, REPLICATES, SEED, jobs),
        lambda: np.asarray([_energy(r) for r in range(REPLICATES)]),
    ),
    "motion": (
        lambda jobs: stable_motion_samples(MODEL, 3, TIMES, 64, 16, REPLICATES, SEED, jobs=jobs),
        lambda: np.stack([
            sample_stable_motion(3, TIMES, MODEL, 64, 16, seed=stream_key(SEED, r)) for r in range(REPLICATES)
        ]),
    ),
    "walk": (
        lambda jobs: walk_variance(64, 0.7, REPLICATES, SEED, jobs=jobs).finals,
        lambda: np.asarray([_walk(r, 64).sums[-1] for r in range(REPLICATES)]),
    ),
    "scaling": (
        lambda jobs: _scaling_rows(
            scaling_experiment(0.7, 1.5, REPLICATES, SEED, jobs=jobs, slope_grid=GRID, median_grid=GRID)
        ),
        _scaling_reference,
    ),
    "functional": (
        lambda jobs: _functional_rows(
            functional_experiment(MODEL, 32, [1.0], [1.0], 64, 16, REPLICATES, SEED, jobs=jobs)
        ),
        lambda: np.stack([
            [local_time_functional([local_time_profiles(_walk(r, 32), (32,))[32]], [1.0], [1.0], 32, MODEL)
             for r in range(REPLICATES)],
            [_energy(r, times=(1.0,), thetas=(1.0,)) for r in range(REPLICATES)],
        ]),
    ),
}


@functools.lru_cache(maxsize=None)
def _reference(driver: str) -> bytes:
    return DRIVERS[driver][1]().tobytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("block", [1, 3, None])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_match_their_replicates_drawn_alone(monkeypatch, driver, block, jobs):
    if block is not None:
        monkeypatch.setattr(streams, "_REPLICATE_BLOCK", block)
    assert DRIVERS[driver][0](jobs).tobytes() == _reference(driver)


@pytest.mark.parametrize("row_block", [1, 4, 16, 17])
@pytest.mark.parametrize("driver", ["schema-copies", "schema-copies-iid", "motion", "oracle", "walk"])
def test_drivers_do_not_depend_on_the_fgn_row_block(monkeypatch, driver, row_block):
    # a replicate block's 48 schema or motion rows (3 copies of 16 replicates)
    # end in a short row block at 17; its 16 oracle or walk rows fill one
    # block at 16 and at 17
    monkeypatch.setattr(fgn, "_ROW_BLOCK", row_block)
    assert DRIVERS[driver][0](1).tobytes() == _reference(driver)


# one bad input per case, which the workers would meet only after a pool had
# started at jobs > 1
_BAD_DRIVER_INPUTS = {
    "motion-grid": (
        lambda jobs: stable_motion_samples(MODEL, 2, [0.05], 16, 16, 40, 0, jobs=jobs),
        "horizon 0.05 is not finite or shorter than one grid step 1/16",
    ),
    "motion-bins": (
        lambda jobs: stable_motion_samples(MODEL, 2, [1.0], 16, 2, 40, 0, jobs=jobs),
        "bins must be at least 3, got 2",
    ),
    "motion-copies": (
        lambda jobs: stable_motion_samples(MODEL, 0, [1.0], 16, 16, 40, 0, jobs=jobs),
        "copies must be at least 1, got 0",
    ),
    "motion-times": (
        lambda jobs: stable_motion_samples(MODEL, 2, [1.0, 0.5], 16, 16, 40, 0, jobs=jobs),
        "times must be nonnegative and strictly increasing, got [1.0, 0.5]",
    ),
    "schema-convention": (
        lambda jobs: schema_samples(MODEL, 32, 2, [1.0], 40, 0, jobs=jobs, convention="round"),
        "unknown site convention 'round'",
    ),
    "schema-pareto": (
        lambda jobs: schema_samples(
            ModelParams(hurst=0.5, beta=2.0), 32, 2, [1.0], 40, 0, jobs=jobs, kind=SceneryKind.SYMMETRIC_PARETO
        ),
        "pareto scenery requires beta < 2, got 2.0",
    ),
    "walk-n": (lambda jobs: walk_variance(0, 0.7, 40, 0, jobs=jobs), "n must be at least 1, got 0"),
    "walk-hurst": (lambda jobs: walk_variance(64, 1.5, 40, 0, jobs=jobs), "hurst must lie in (0, 1), got 1.5"),
    "scaling-convention": (
        lambda jobs: scaling_experiment(0.7, 1.5, 40, 0, jobs=jobs, slope_grid=GRID, median_grid=GRID,
                                        convention="round"),
        "unknown site convention 'round'",
    ),
    "functional-convention": (
        lambda jobs: functional_experiment(MODEL, 32, [1.0], [1.0], 64, 16, 40, 0, jobs=jobs, convention="round"),
        "unknown site convention 'round'",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_DRIVER_INPUTS))
def test_drivers_check_their_inputs_before_any_pool(pools_started, case):
    call, message = _BAD_DRIVER_INPUTS[case]
    for jobs in (1, 2):
        with pytest.raises(UsageError) as caught:
            call(jobs)
        assert str(caught.value) == message
    assert pools_started == []
