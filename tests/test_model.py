"""The parameter domains of ``rwrs.model``, as every layer applies them."""

import math

import numpy as np
import pytest

from rwrs import (
    ModelParams,
    StableParams,
    UsageError,
    fbm_local_time,
    functional_experiment,
    local_time_functional,
    local_time_profiles,
    power_integral_draws,
    sample_fbm,
    sample_stable_motion,
    sample_walk,
    scaling_experiment,
    stable_motion_samples,
    walk_variance,
)
from rwrs.model import grid_floor
from rwrs.streams import replicate_map, spawn_rng

NAN = float("nan")
INF = float("inf")
MODEL = ModelParams(hurst=0.7, beta=1.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: StableParams(beta=1.5, sigma=NAN),
        lambda: StableParams(beta=1.5, sigma=INF),
        lambda: sample_stable_motion(2, [INF], MODEL, 64, 16, seed=0),
        lambda: power_integral_draws(0.7, 1.5, [1.0], [NAN], 64, 16, 2, seed=0),
        lambda: fbm_local_time(sample_fbm(64, 1.0, 0.7, spawn_rng(0)), [NAN], 16),
        lambda: local_time_functional(
            [local_time_profiles(sample_walk(64, 0.7, spawn_rng(0)), [64])[64]], [1.0], [INF], 64, MODEL
        ),
    ],
    ids=["stable-sigma-nan", "stable-sigma-inf", "motion-times-inf", "energy-times-nan",
         "local-time-times-nan", "functional-times-inf"],
)
def test_library_rejects_non_finite_parameters(call):
    with pytest.raises(UsageError):
        call()


def test_cli_and_library_word_each_rule_alike():
    from rwrs.cli import parse_config

    for argv, call in (
        (["walk", "--hurst", "1.5"], lambda: ModelParams(hurst=1.5, beta=2.0)),
        (["walk", "--beta", "2.5"], lambda: StableParams(beta=2.5)),
        (["walk", "--sigma", "inf"], lambda: StableParams(beta=1.5, sigma=math.inf)),
        (["walk", "--times", "1,0.5"], lambda: sample_stable_motion(1, [1.0, 0.5], MODEL, 64, 16, seed=0)),
        (["walk", "--bins", "2"], lambda: sample_stable_motion(1, [1.0], MODEL, 64, 2, seed=0)),
        (["walk", "--jobs", "0"], lambda: replicate_map(abs, 1, jobs=0)),
    ):
        with pytest.raises(UsageError) as from_cli:
            parse_config(argv)
        with pytest.raises(UsageError) as from_library:
            call()
        assert str(from_cli.value) == str(from_library.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: walk_variance(64, 0.7, 1, 0),
        lambda: scaling_experiment(0.7, 1.5, 1, 0, slope_grid=(16, 32, 64), median_grid=(16, 32, 64)),
        lambda: functional_experiment(MODEL, 64, [1.0], [1.0], 64, 16, 1, 0),
        lambda: stable_motion_samples(MODEL, 1, [1.0], 64, 16, replicates=0, seed=0),
    ],
    ids=["walk-variance-one", "scaling-one", "functional-one", "motion-none"],
)
def test_library_drivers_check_their_replicate_counts(call):
    # a standard error needs two replicates, and any draw one: the library
    # says so as the CLI does, instead of returning NaN or an empty sample
    with pytest.raises(UsageError, match="replicates must be at least"):
        call()


def test_grid_floor_takes_products_a_hair_below_an_integer_up():
    # n * t in floating point can land just below the integer it stands for
    assert 49 * (1 / 49) < 1.0 and 22 * (15 / 22) < 15.0
    assert grid_floor(49 * (1 / 49)) == 1
    assert grid_floor(22 * (15 / 22)) == 15
    assert type(grid_floor(22 * (15 / 22))) is int
    # the slack is 1e-9: half of it is absorbed, twice it is not
    assert grid_floor(2.0 - 0.5e-9) == 2
    assert grid_floor(2.0 - 2e-9) == 1
    ends = grid_floor(np.array([49.0, 22.0, 64.0]) * np.array([1 / 49, 15 / 22, 0.5]))
    assert ends.dtype == np.int64 and ends.tolist() == [1, 15, 32]
