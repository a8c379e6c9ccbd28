"""Tests for the rescaled reward process and its normalized superposition."""

import dataclasses
import importlib

import numpy as np
import pytest

from rwrs import (
    ModelParams,
    RewardSeries,
    Scenery,
    SceneryKind,
    SchemaConfig,
    StableParams,
    UsageError,
    delta_exponent,
    LocalTimeProfile,
    interpolate,
    occupation_reward,
    reward_series,
    sample_reward_process,
    sample_reward_schema,
    sample_walk,
    schema_copy_samples,
    schema_samples,
    superpose,
)
from rwrs import streams as streams_mod
from rwrs.local_times import site_of
from rwrs.streams import ROLE_SCENERY, ROLE_WALK, spawn_rng, stream_key

# the package exports a function named local_times, which hides the module
local_times_mod = importlib.import_module("rwrs.local_times")


def _count_weighted_series(walk, scenery, s):
    # Z_h = sum_x N_h(x) xi(x) at the steps h the times s need, the way the
    # schema sums it: the occupation counts of each stretch of steps between
    # consecutive such h against the scenery, in site order, and the
    # stretches added up in time order.  Z is left undefined elsewhere.
    below = np.floor(s)
    horizons = np.unique(np.concatenate([below, below + (s != below)]).astype(np.int64))
    values = np.full(walk.n + 1, np.nan)
    total, prev = 0.0, -1
    for h in horizons:
        stretch = site_of(walk.sums[prev + 1 : h + 1])
        sites, counts = np.unique(stretch, return_counts=True)
        total += occupation_reward(LocalTimeProfile(n=h - prev - 1, sites=sites, counts=counts), scenery)
        values[h] = total
        prev = h
    return RewardSeries(n=walk.n, values=values)


def _per_step_series(walk, scenery, s):
    return reward_series(walk, scenery)


def _by_copy(seed, sceneries):
    # fake scenery values giving copy i of ``seed`` the values of sceneries[i],
    # each called once per lookup on its own copy's sites
    copy_of = {stream_key(seed, i, ROLE_SCENERY): i for i in range(len(sceneries))}

    def values(keys, sites):
        copies = np.array([copy_of[int(k)] for k in keys])
        out = np.empty(sites.shape)
        for i in np.unique(copies):
            out[copies == i] = local_times_mod._scenery_values(sceneries[i], sites[copies == i])
        return out

    return values


# ---------------------------------------------------------------------------
# Exponent and parameter bundles
# ---------------------------------------------------------------------------


def test_delta_exponent_known_values():
    assert delta_exponent(0.5, 2.0) == pytest.approx(0.75, abs=1e-15)
    assert delta_exponent(0.5, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert delta_exponent(0.75, 1.5) == pytest.approx(0.75, abs=1e-15)
    assert delta_exponent(0.7, 2.0) == pytest.approx(0.65, abs=1e-15)


def test_delta_exponent_rejects_out_of_range():
    for hurst, beta in [(0.0, 2.0), (1.0, 2.0), (-0.1, 1.0), (0.5, 0.0), (0.5, 2.5), (0.5, -1.0)]:
        with pytest.raises(UsageError):
            delta_exponent(hurst, beta)


def test_model_params_carries_delta_and_is_frozen():
    model = ModelParams(hurst=0.7, beta=1.5, sigma=2.0)
    assert model.delta == pytest.approx(delta_exponent(0.7, 1.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.sigma = 1.0


def test_model_params_rejects_nonpositive_sigma():
    with pytest.raises(UsageError):
        ModelParams(hurst=0.5, beta=2.0, sigma=0.0)
    with pytest.raises(UsageError):
        ModelParams(hurst=0.5, beta=2.0, sigma=-1.0)


def test_schema_config_validation():
    good = SchemaConfig(n=8, copies=2, times=(0.5, 1.0))
    assert good.times == (0.5, 1.0)
    with pytest.raises(UsageError):
        SchemaConfig(n=0, copies=1, times=(1.0,))
    with pytest.raises(UsageError):
        SchemaConfig(n=8, copies=0, times=(1.0,))
    with pytest.raises(UsageError):
        SchemaConfig(n=8, copies=1, times=())
    with pytest.raises(UsageError):
        SchemaConfig(n=8, copies=1, times=(-0.5, 1.0))
    with pytest.raises(UsageError):
        SchemaConfig(n=8, copies=1, times=(0.5, 0.5))
    with pytest.raises(UsageError):
        SchemaConfig(n=8, copies=1, times=(1.0, 0.5))


def test_model_params_rejects_non_finite_sigma():
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(UsageError):
            ModelParams(hurst=0.5, beta=2.0, sigma=sigma)


def test_schema_config_rejects_non_finite_times():
    for times in ((float("nan"),), (0.5, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(UsageError):
            SchemaConfig(n=8, copies=1, times=times)


def test_schema_config_coerces_times_to_floats():
    config = SchemaConfig(n=8, copies=1, times=(1,))
    assert config.times == (1.0,)
    assert isinstance(config.times[0], float)


# ---------------------------------------------------------------------------
# Single rescaled reward path
# ---------------------------------------------------------------------------


def test_unit_scenery_gives_exact_deterministic_values(fake_scenery):
    # xi == 1 makes Z_j = j + 1 whatever the walk does, and linear
    # interpolation keeps that exact: D_n(t) = n**(-delta) (n t + 1).
    model = ModelParams(hurst=0.7, beta=1.5)
    n = 64
    times = [0.0, 0.25, 0.5, 1.0]
    calls = fake_scenery(lambda keys, sites: np.ones(sites.shape))
    got = sample_reward_process(n, times, model, seed=70)
    expect = float(n) ** (-model.delta) * (n * np.asarray(times) + 1.0)
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    # one lookup, every site under the documented key of copy 0
    [(keys, sites)] = calls
    assert (keys == stream_key(70, 0, ROLE_SCENERY)).all()


def test_zero_scenery_gives_zero_process(fake_scenery):
    model = ModelParams(hurst=0.5, beta=2.0)
    fake_scenery(lambda keys, sites: np.zeros(sites.shape))
    got = sample_reward_process(32, [0.0, 0.5, 1.0], model, seed=71)
    np.testing.assert_array_equal(got, np.zeros(3))


def test_process_is_deterministic_and_copy_dependent():
    model = ModelParams(hurst=0.6, beta=1.5)
    a = sample_reward_process(128, [0.5, 1.0], model, seed=72)
    b = sample_reward_process(128, [0.5, 1.0], model, seed=72)
    other_copy = sample_reward_process(128, [0.5, 1.0], model, seed=72, copy=1)
    other_seed = sample_reward_process(128, [0.5, 1.0], model, seed=73)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != other_copy)
    assert np.any(a != other_seed)


def test_process_substream_layout_is_documented_one():
    # The walk comes from (seed, copy, walk-role) and the scenery key
    # from (seed, copy, scenery-role); reconstruct both by hand.
    model = ModelParams(hurst=0.6, beta=1.5, sigma=1.2)
    n, times, seed, copy = 96, (0.5, 1.0), 74, 3
    got = sample_reward_process(n, times, model, seed=seed, copy=copy)

    steps = int(np.floor(n * 1.0 + 1e-9)) + 1
    walk = sample_walk(steps, model.hurst, spawn_rng(seed, copy, ROLE_WALK))
    scenery = Scenery(
        kind=SceneryKind.EXACT_STABLE,
        params=StableParams(beta=model.beta, sigma=model.sigma),
        key=stream_key(seed, copy, ROLE_SCENERY),
    )
    s = n * np.asarray(times)
    series = _count_weighted_series(walk, scenery, s)
    expect = float(n) ** (-model.delta) * np.atleast_1d(interpolate(series, s))
    assert got.tobytes() == expect.tobytes()


def test_scenery_lookup_uses_same_walk_stream(fake_scenery):
    # The scenery lookup must not consume from or reroute the walk
    # substream: with xi(x) = x the result is a pure walk functional,
    # reproducible from the documented walk stream alone.
    model = ModelParams(hurst=0.55, beta=2.0)
    n, seed = 80, 75
    fake_scenery(lambda keys, sites: sites.astype(np.float64))
    got = sample_reward_process(n, [1.0], model, seed=seed)
    steps = n + 1
    walk = sample_walk(steps, model.hurst, spawn_rng(seed, 0, ROLE_WALK))
    s = np.asarray([float(n)])
    series = _count_weighted_series(walk, lambda x: x.astype(np.float64), s)
    expect = float(n) ** (-model.delta) * np.atleast_1d(interpolate(series, s))
    assert got.tobytes() == expect.tobytes()


def test_process_pareto_kind_differs_from_exact():
    model = ModelParams(hurst=0.5, beta=1.5)
    exact = sample_reward_process(64, [1.0], model, seed=76, kind=SceneryKind.EXACT_STABLE)
    pareto = sample_reward_process(64, [1.0], model, seed=76, kind=SceneryKind.SYMMETRIC_PARETO)
    assert exact[0] != pareto[0]


def test_process_validates_through_schema_config():
    model = ModelParams(hurst=0.5, beta=2.0)
    with pytest.raises(UsageError):
        sample_reward_process(0, [1.0], model, seed=0)
    with pytest.raises(UsageError):
        sample_reward_process(8, [], model, seed=0)
    with pytest.raises(UsageError):
        sample_reward_process(8, [1.0, 0.5], model, seed=0)


def test_process_normalized_size_is_stable_in_n():
    # Tightness of D_n(1): the interquartile range must not drift as n
    # grows once the normalization n**(-delta) is applied.
    model = ModelParams(hurst=0.5, beta=2.0)
    replicates = 400

    def iqr(values):
        q75, q25 = np.percentile(values, [75, 25])
        return q75 - q25

    spreads = {}
    for n in (512, 2048):
        vals = np.array(
            [sample_reward_process(n, [1.0], model, seed=stream_key(67, r))[0] for r in range(replicates)]
        )
        spreads[n] = iqr(vals)
    assert 0.8 <= spreads[2048] / spreads[512] <= 1.25


# ---------------------------------------------------------------------------
# Superposition
# ---------------------------------------------------------------------------


def test_schema_single_copy_matches_process_exactly():
    model = ModelParams(hurst=0.7, beta=1.5)
    config = SchemaConfig(n=64, copies=1, times=(0.5, 1.0))
    schema = sample_reward_schema(config, model, seed=78)
    process = sample_reward_process(64, (0.5, 1.0), model, seed=78)
    np.testing.assert_array_equal(schema, process)


def test_schema_zero_scenery_everywhere(fake_scenery):
    model = ModelParams(hurst=0.6, beta=1.0)
    config = SchemaConfig(n=32, copies=4, times=(0.5, 1.0))
    fake_scenery(lambda keys, sites: np.zeros(sites.shape))
    out = sample_reward_schema(config, model, seed=79)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_schema_is_linear_in_the_scenery(fake_scenery):
    model = ModelParams(hurst=0.6, beta=2.0)
    config = SchemaConfig(n=48, copies=3, times=(0.25, 1.0))
    fake_scenery(_by_copy(80, [(lambda s, i=i: np.sin(s + i)) for i in range(3)]))
    base = sample_reward_schema(config, model, seed=80)
    fake_scenery(_by_copy(80, [(lambda s, i=i: -2.5 * np.sin(s + i)) for i in range(3)]))
    scaled = sample_reward_schema(config, model, seed=80)
    np.testing.assert_allclose(scaled, -2.5 * base, rtol=1e-12)


def test_schema_matches_manual_superposition():
    model = ModelParams(hurst=0.55, beta=1.5)
    config = SchemaConfig(n=40, copies=5, times=(0.5, 1.0))
    schema = sample_reward_schema(config, model, seed=81)
    rows = np.stack(
        [sample_reward_process(40, (0.5, 1.0), model, seed=81, copy=i) for i in range(5)]
    )
    expect = 5.0 ** (-1.0 / 1.5) * rows.sum(axis=0)
    np.testing.assert_array_equal(schema, expect)


def test_schema_deterministic_in_seed():
    model = ModelParams(hurst=0.5, beta=2.0)
    config = SchemaConfig(n=32, copies=2, times=(1.0,))
    a = sample_reward_schema(config, model, seed=82)
    b = sample_reward_schema(config, model, seed=82)
    c = sample_reward_schema(config, model, seed=83)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_schema_output_shape_matches_times():
    model = ModelParams(hurst=0.5, beta=2.0)
    config = SchemaConfig(n=16, copies=2, times=(0.1, 0.4, 0.9, 1.0))
    assert sample_reward_schema(config, model, seed=84).shape == (4,)


def _per_copy_schema(config, model, seed, kind, scenery_for_copy=None, series=_count_weighted_series):
    # the schema composed one copy at a time from the public pieces
    steps = int(np.floor(config.n * config.times[-1] + 1e-9)) + 1
    s = config.n * np.asarray(config.times)
    rows = []
    for i in range(config.copies):
        walk = sample_walk(steps, model.hurst, spawn_rng(seed, i, ROLE_WALK))
        if scenery_for_copy is None:
            scenery = Scenery(
                kind=kind,
                params=StableParams(beta=model.beta, sigma=model.sigma),
                key=stream_key(seed, i, ROLE_SCENERY),
            )
        else:
            scenery = scenery_for_copy(i)
        rewards = series(walk, scenery, s)
        rows.append(float(config.n) ** (-model.delta) * np.atleast_1d(interpolate(rewards, s)))
    return float(config.copies) ** (-1.0 / model.beta) * np.stack(rows).sum(axis=0)


@pytest.mark.parametrize("copies", [1, 3, 32])
@pytest.mark.parametrize(
    "times", [(0.0, 0.3, 0.33, 1.0), (0.05, 0.5, 0.61)], ids=["to-one", "before-one"]
)
@pytest.mark.parametrize("kind", list(SceneryKind))
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_schema_matches_per_copy_composition_bytes(hurst, kind, times, copies):
    # all copies share one reward pass; it must reproduce the copy-at-a-time
    # composition byte for byte, at lattice times (n t = 0, 8, 48, 80 and 160)
    # and between them (n t = 52.8, and 97.6, where the walks stop short of n)
    model = ModelParams(hurst=hurst, beta=1.5, sigma=0.9)
    config = SchemaConfig(n=160, copies=copies, times=times)
    seed = 85 + copies
    got = sample_reward_schema(config, model, seed, kind=kind)
    expect = _per_copy_schema(config, model, seed, kind)
    assert got.tobytes() == expect.tobytes()


def test_schema_blocks_do_not_change_bytes(monkeypatch):
    model = ModelParams(hurst=0.7, beta=2.0)
    config = SchemaConfig(n=200, copies=32, times=(0.0, 0.515, 0.5175, 1.0))
    whole = sample_reward_schema(config, model, seed=86)
    expect = _per_copy_schema(config, model, 86, SceneryKind.EXACT_STABLE)
    # a scenery lookup for every row block, then for groups of a few row blocks
    for slots in (1, 700):
        monkeypatch.setattr(local_times_mod, "_GROUP_SLOTS", slots)
        blocked = sample_reward_schema(config, model, seed=86)
        assert blocked.tobytes() == whole.tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "times", [(0.0, 0.3, 0.7717, 1.0), (0.3, 1.0, 1.4517)], ids=["to-one", "past-one"]
)
@pytest.mark.parametrize("kind", list(SceneryKind))
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_schema_matches_per_step_reward_series_composition(hurst, kind, times):
    # the counts sum the rewards site by site, reward_series step by step:
    # equal up to rounding, also where the walks run past n
    model = ModelParams(hurst=hurst, beta=1.5, sigma=0.9)
    config = SchemaConfig(n=300, copies=9, times=times)
    got = sample_reward_schema(config, model, 90, kind=kind)
    expect = _per_copy_schema(config, model, 90, kind, series=_per_step_series)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_schema_on_a_dense_time_grid_looks_up_each_visited_site_once(fake_scenery, hurst):
    # 40 times, most off the lattice, cut each walk into about 80 short
    # stretches that revisit sites; each copy's scenery must still see each
    # visited site once, in one call, and the values must match both
    # references
    model = ModelParams(hurst=hurst, beta=1.5)
    times = tuple(float(t) for t in np.round(np.linspace(0.0137, 1.0, 40), 4))
    config = SchemaConfig(n=120, copies=3, times=times)
    sceneries = [(lambda sites, i=i: np.cos(3.0 * sites + i)) for i in range(config.copies)]
    calls = fake_scenery(_by_copy(93, sceneries))
    got = sample_reward_schema(config, model, seed=93)
    steps = int(np.floor(config.n * times[-1] + 1e-9)) + 1
    for i in range(config.copies):
        walk = sample_walk(steps, model.hurst, spawn_rng(93, i, ROLE_WALK))
        made = [sites[keys == stream_key(93, i, ROLE_SCENERY)] for keys, sites in calls]
        made = [sites for sites in made if sites.size]
        assert len(made) == 1
        np.testing.assert_array_equal(made[0], np.unique(site_of(walk.sums[: config.n + 1])))
    expect = _per_copy_schema(config, model, 93, None, sceneries.__getitem__)
    assert got.tobytes() == expect.tobytes()
    per_step = _per_copy_schema(config, model, 93, None, sceneries.__getitem__, _per_step_series)
    assert np.max(np.abs(got - per_step)) <= 1e-12 * np.max(np.abs(per_step))


def test_schema_mixed_sceneries_match_per_copy_composition(fake_scenery):
    # keyed sceneries of different laws and plain callables give every
    # copy its own scenery
    model = ModelParams(hurst=0.6, beta=1.5)
    config = SchemaConfig(n=96, copies=5, times=(0.25, 1.0))
    params = StableParams(beta=1.5)

    def scenery_for_copy(i):
        if i % 2:
            return lambda sites: np.sin(sites + i)
        kind = SceneryKind.EXACT_STABLE if i % 4 else SceneryKind.SYMMETRIC_PARETO
        return Scenery(kind, params, key=1000 + i)

    fake_scenery(_by_copy(87, [scenery_for_copy(i) for i in range(config.copies)]))
    got = sample_reward_schema(config, model, seed=87)
    expect = _per_copy_schema(config, model, 87, None, scenery_for_copy)
    assert got.tobytes() == expect.tobytes()


def test_schema_block_path_keeps_negative_eigenvalue_check(break_embedding):
    from rwrs import NumericalError

    model = ModelParams(hurst=0.7, beta=1.5)
    config = SchemaConfig(n=63, copies=5, times=(1.0,))
    sample_reward_schema(config, model, seed=88)
    break_embedding()
    with pytest.raises(NumericalError):
        sample_reward_schema(config, model, seed=88)


# ---------------------------------------------------------------------------
# Replicate blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 3, None])
def test_schema_samples_do_not_depend_on_replicate_block_or_jobs(monkeypatch, block, jobs):
    # replicate r is the schema seeded by stream_key(seed, r), drawn alone,
    # whatever block of replicates and worker it is drawn in; 5 copies put
    # the walks of two replicates into one row block
    model = ModelParams(hurst=0.7, beta=1.5)
    config = SchemaConfig(n=64, copies=5, times=(0.3, 1.0))
    if block is not None:
        monkeypatch.setattr(streams_mod, "_REPLICATE_BLOCK", block)
    got = schema_samples(model, config.n, config.copies, config.times, 7, 91, jobs=jobs)
    alone = [sample_reward_schema(config, model, stream_key(91, r)) for r in range(7)]
    assert got.shape == (7, 2)
    for row, expect in zip(got, alone):
        assert row.tobytes() == expect.tobytes()


def test_schema_copy_prefixes_match_schema_samples_bytes():
    # copy i of a replicate is the same for every copy count, so the first c
    # copies of a larger draw give the c-copy schema
    model = ModelParams(hurst=0.7, beta=1.5)
    times = (0.5, 1.0)
    rows = schema_copy_samples(model, 64, 12, times, 5, 92)
    assert rows.shape == (5, 12, 2)
    for copies in (1, 4, 5, 8, 12):
        expect = schema_samples(model, 64, copies, times, 5, 92)
        assert superpose(rows[:, :copies], model.beta).tobytes() == expect.tobytes()


@pytest.mark.parametrize("times", [(1.0,), (0.25, 0.5, 1.0)])
def test_superpose_does_not_depend_on_memory_layout(times):
    # each draw of a C-ordered, Fortran-ordered or copies-major stack, and
    # each Fortran-ordered draw alone, gets the value of its C-ordered draw
    model = ModelParams(hurst=0.7, beta=1.5)
    rows = schema_copy_samples(model, 64, 12, times, 20, 95)
    alone = np.stack([superpose(draw, model.beta) for draw in rows])
    copies_major = rows.transpose(1, 0, 2).copy().transpose(1, 0, 2)
    for stack in (rows, np.asfortranarray(rows), copies_major):
        assert superpose(stack, model.beta).tobytes() == alone.tobytes()
    fortran_draws = np.stack([superpose(np.asfortranarray(draw), model.beta) for draw in rows])
    assert fortran_draws.tobytes() == alone.tobytes()


def test_schema_samples_one_copy_is_the_reward_process():
    model = ModelParams(hurst=0.6, beta=1.5)
    got = schema_samples(model, 48, 1, (0.5, 1.0), 4, 93)
    for r, row in enumerate(got):
        expect = sample_reward_process(48, (0.5, 1.0), model, stream_key(93, r))
        assert row.tobytes() == expect.tobytes()


def test_schema_samples_reject_no_replicates():
    with pytest.raises(UsageError):
        schema_samples(ModelParams(hurst=0.5, beta=2.0), 16, 2, (1.0,), 0, 94)
