"""The parameter domains of ``rwrs.model``, as every layer applies them."""

import math

import pytest

from rwrs import (
    ModelParams,
    StableParams,
    UsageError,
    fbm_local_time,
    power_integral_draws,
    sample_fbm,
    sample_stable_motion,
)
from rwrs.streams import spawn_rng

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
    ],
    ids=["stable-sigma-nan", "stable-sigma-inf", "motion-times-inf", "energy-times-nan",
         "local-time-times-nan"],
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
    ):
        with pytest.raises(UsageError) as from_cli:
            parse_config(argv)
        with pytest.raises(UsageError) as from_library:
            call()
        assert str(from_cli.value) == str(from_library.value)
