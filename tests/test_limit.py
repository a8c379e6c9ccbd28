"""Tests for the box-count local time of the limit path and the stable oracle."""

import numpy as np
import pytest

from rwrs import (
    FbmGrid,
    LocalTimeGrid,
    ModelParams,
    NumericalError,
    StableParams,
    UsageError,
    brownian_energy,
    cf_compare,
    ecf,
    estimate_power_integral_mean,
    exact_energy,
    fbm_local_time,
    functional_experiment,
    limit_cf_check,
    limit_cf_target,
    local_time_power_integral,
    power_integral_draws,
    sample_fbm,
    sample_local_time_integral,
    sample_stable_motion,
    schema_ecf_check,
    schema_samples,
    stable_motion_samples,
)
from rwrs import limit
from rwrs.streams import _REPLICATE_BLOCK, ROLE_NOISE, ROLE_ORACLE, ROLE_WALK, spawn_rng


def _grid_path(values, m=None, hurst=0.5):
    values = np.asarray(values, dtype=np.float64)
    m = len(values) - 1 if m is None else m
    return FbmGrid(hurst=hurst, m=m, horizon=(len(values) - 1) / m, values=values)


class _ZeroNoise:
    """Generator stand-in that makes every stable draw exactly zero."""

    def uniform(self, low, high, size):
        return np.zeros(size)

    def standard_exponential(self, size):
        return np.zeros(size)


# ---------------------------------------------------------------------------
# Box-count local time
# ---------------------------------------------------------------------------


def test_local_time_conserves_occupation_mass():
    path = sample_fbm(512, 1.0, 0.7, spawn_rng(54))
    times = (0.25, 0.5, 1.0)
    grid = fbm_local_time(path, times, 128)
    for j, t in enumerate(times):
        mass = grid.densities[j].sum() * grid.bin_width
        expect = (np.floor(512 * t) + 1) / 512
        assert mass == pytest.approx(expect, rel=1e-12)


def test_local_time_nonnegative_and_monotone_in_time():
    path = sample_fbm(256, 1.0, 0.6, spawn_rng(55))
    grid = fbm_local_time(path, (0.25, 0.5, 0.75, 1.0), 64)
    assert np.all(grid.densities >= 0.0)
    assert np.all(np.diff(grid.densities, axis=0) >= 0.0)


def test_local_time_guard_bin_below_range_is_empty():
    path = sample_fbm(256, 1.0, 0.5, spawn_rng(56))
    grid = fbm_local_time(path, (1.0,), 64)
    assert np.all(grid.densities[:, 0] == 0.0)
    assert not grid.degenerate


def test_local_time_time_zero_has_single_point_mass():
    path = sample_fbm(128, 1.0, 0.5, spawn_rng(57))
    grid = fbm_local_time(path, (0.0, 1.0), 32)
    assert grid.densities[0].sum() * grid.bin_width == pytest.approx(1.0 / 128, rel=1e-12)


def test_local_time_degenerate_constant_path():
    grid = fbm_local_time(_grid_path(np.zeros(5)), (1.0,), 16)
    assert grid.degenerate
    assert grid.bin_width == 1.0
    # all mass sits in one unit-width bin: density = (m t + 1) / (m h)
    assert grid.densities.sum() * grid.bin_width == pytest.approx(5.0 / 4.0, rel=1e-12)


def test_local_time_known_two_level_path():
    # path visits 0 three times and 1 twice on m = 4; span 1, 6 bins
    # gives h = 0.25, so the two occupied bins hold 3/(4h) and 2/(4h).
    grid = fbm_local_time(_grid_path([0.0, 1.0, 0.0, 1.0, 0.0]), (1.0,), 6)
    occupied = np.flatnonzero(grid.densities[0])
    np.testing.assert_array_equal(occupied, [1, 5])
    assert grid.bin_width == pytest.approx(0.25)
    assert grid.densities[0, 1] == pytest.approx(3.0 / 1.0)
    assert grid.densities[0, 5] == pytest.approx(2.0 / 1.0)


def test_local_time_validation():
    path = sample_fbm(64, 1.0, 0.5, spawn_rng(58))
    with pytest.raises(UsageError):
        fbm_local_time(path, (1.0,), 1)
    with pytest.raises(UsageError):
        fbm_local_time(path, (), 32)
    with pytest.raises(UsageError):
        fbm_local_time(path, (0.5, 0.5), 32)
    with pytest.raises(UsageError):
        fbm_local_time(path, (0.5, 0.25), 32)
    with pytest.raises(UsageError):
        fbm_local_time(path, (1.5,), 32)
    with pytest.raises(UsageError):
        fbm_local_time(path, (-0.5, 1.0), 32)


# ---------------------------------------------------------------------------
# Beta-energy of a local time grid
# ---------------------------------------------------------------------------


def _unit_box_grid(bins=64):
    return LocalTimeGrid(
        times=np.array([1.0]),
        origin=0.0,
        bin_width=1.0 / bins,
        densities=np.ones((1, bins)),
        degenerate=False,
    )


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_power_integral_of_unit_box_is_one(beta):
    assert local_time_power_integral(_unit_box_grid(), [1.0], beta) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("beta", [0.7, 1.0, 1.8])
def test_power_integral_homogeneity(beta):
    path = sample_fbm(256, 1.0, 0.7, spawn_rng(59))
    grid = fbm_local_time(path, (0.5, 1.0), 64)
    base = local_time_power_integral(grid, [0.6, -1.1], beta)
    scaled = local_time_power_integral(grid, [3.0 * 0.6, 3.0 * -1.1], beta)
    assert scaled == pytest.approx(3.0**beta * base, rel=1e-12)


def test_power_integral_zero_thetas():
    assert local_time_power_integral(_unit_box_grid(), [0.0], 1.5) == 0.0


def test_power_integral_validation():
    grid = _unit_box_grid()
    with pytest.raises(UsageError):
        local_time_power_integral(grid, [1.0, 2.0], 1.5)
    with pytest.raises(UsageError):
        local_time_power_integral(grid, [1.0], 0.0)
    with pytest.raises(UsageError):
        local_time_power_integral(grid, [1.0], 2.5)


# ---------------------------------------------------------------------------
# Oracle pipeline
# ---------------------------------------------------------------------------


def test_power_integral_draws_reproducible_and_positive():
    draws = power_integral_draws(0.7, 1.5, [1.0], [1.0], 256, 64, 50, seed=60)
    again = power_integral_draws(0.7, 1.5, [1.0], [1.0], 256, 64, 50, seed=60)
    np.testing.assert_array_equal(draws, again)
    assert draws.shape == (50,)
    assert np.all(draws > 0.0)


def test_power_integral_draws_prefix_stability():
    # replicate i is keyed by its index, so a longer run extends the
    # shorter one rather than reshuffling it
    short = power_integral_draws(0.6, 2.0, [1.0], [1.0], 128, 32, 20, seed=61)
    long = power_integral_draws(0.6, 2.0, [1.0], [1.0], 128, 32, 40, seed=61)
    np.testing.assert_array_equal(short, long[:20])


def test_estimate_se_shrinks_with_replicates():
    m1, s1 = estimate_power_integral_mean(0.7, 1.5, [1.0], [1.0], 512, 128, 400, seed=49)
    m2, s2 = estimate_power_integral_mean(0.7, 1.5, [1.0], [1.0], 512, 128, 800, seed=49)
    assert s1 > 0.0 and s2 > 0.0
    # doubling the sample should shrink the standard error roughly sqrt(2)-fold
    assert 1.2 <= s1 / s2 <= 1.7
    assert abs(m1 - m2) <= 4.0 * s1


def test_brownian_squared_local_time_oracle():
    # For H = 1/2, beta = 2 the mean beta-energy is the expected squared
    # local time integral of Brownian motion on [0, 1]:
    #   E int L_1(x)**2 dx = 8 / (3 sqrt(2 pi)),
    # from E[L_1(x)**2] = 2 int_0^1 int_s^1 p_s(x) p_{t-s}(0) dt ds.
    # The raw box counts are checked: the estimate is that closed form.
    mean, se = limit._mean_se(power_integral_draws(0.5, 2.0, [1.0], [1.0], 4096, 512, 500, seed=48))
    target = exact_energy(0.5, [1.0], [1.0])
    assert abs(mean - target) / target <= 0.10
    assert se <= 0.05 * target


# ---------------------------------------------------------------------------
# Exact beta = 2 energy
# ---------------------------------------------------------------------------

BROWNIAN_ENERGY = 8.0 / (3.0 * np.sqrt(2.0 * np.pi))


def _pair_integral(hurst, s, t, points=4000):
    """int_0^s int_0^t |u - v|**(-H) du dv by midpoint quadrature in the lag.

    With r = u - v the integral is int |r|**(-H) len(r) dr over (-s, t),
    len(r) the length of the v in [0, s] with v + r in [0, t]; the
    substitution |r| = x**(1 / (1 - H)) turns |r|**(-H) dr into a
    constant times dx, so the midpoint rule meets no singularity.
    """
    power = 1.0 / (1.0 - hurst)
    total = 0.0
    for side, reach in ((1.0, t), (-1.0, s)):
        top = reach ** (1.0 - hurst)
        r = side * ((np.arange(points) + 0.5) * (top / points)) ** power
        overlap = np.clip(np.minimum(s, t - r) - np.maximum(0.0, -r), 0.0, None)
        total += np.sum(overlap) * power * top / points
    return total


def test_exact_energy_brownian_unit_time():
    assert exact_energy(0.5, [1.0], [1.0]) == pytest.approx(BROWNIAN_ENERGY, rel=1e-14)


@pytest.mark.parametrize("hurst", (0.3, 0.5, 0.7))
@pytest.mark.parametrize("thetas", ((0.0, 1.0), (1.0, -1.0), (1.0, 1.0)))
def test_exact_energy_matches_quadrature(hurst, thetas):
    times = (0.5, 1.0)
    quadrature = sum(
        a * b * _pair_integral(hurst, s, t) for a, s in zip(thetas, times) for b, t in zip(thetas, times)
    ) / np.sqrt(2.0 * np.pi)
    # the quadrature is good to about 1e-8 here
    assert exact_energy(hurst, thetas, times) == pytest.approx(quadrature, rel=1e-6)


@pytest.mark.parametrize("hurst", (0.3, 0.5, 0.7))
def test_exact_energy_scales_with_time(hurst):
    # L_{ct}(x) of B has the law of c**(1-H) L_t(x / c**H) of B: energy * c**(2-H)
    thetas, times = (1.0, -0.5, 2.0), (0.2, 0.5, 1.0)
    for c in (0.3, 2.5):
        scaled = exact_energy(hurst, thetas, [c * t for t in times])
        assert scaled == pytest.approx(c ** (2.0 - hurst) * exact_energy(hurst, thetas, times), rel=1e-12)


@pytest.mark.parametrize("times", ((0.5, 1.0), (0.25, 1.0), (0.1, 0.35)))
def test_exact_energy_of_a_brownian_increment(times):
    # L_t - L_s is the local time of the path after s, which is Brownian again
    s, t = times
    got = exact_energy(0.5, (1.0, -1.0), times)
    assert got == pytest.approx(BROWNIAN_ENERGY * (t - s) ** 1.5, rel=1e-12)


@pytest.mark.parametrize("thetas", ((1.0, 0.0), (0.0, 1.0), (2.0, 0.0), (1.0, -1.0)))
def test_brownian_energy_is_the_exact_energy_at_beta_two(thetas):
    expect = exact_energy(0.5, thetas, (0.5, 1.0))
    assert brownian_energy(2.0, thetas, (0.5, 1.0)) == pytest.approx(expect, rel=1e-12)
    assert brownian_energy(2.0, [1.0], [1.0]) == pytest.approx(BROWNIAN_ENERGY, rel=1e-14)


@pytest.mark.parametrize("beta", (0.5, 1.2, 1.5, 2.0))
def test_brownian_energy_scales_with_theta_and_time(beta):
    unit = brownian_energy(beta, [1.0], [1.0])
    for a in (-2.0, 0.3, 3.0):
        assert brownian_energy(beta, [a], [1.0]) == pytest.approx(abs(a) ** beta * unit, rel=1e-12)
    for s, t in ((0.5, 1.0), (0.1, 2.5)):
        tau = t - s
        expect = t ** ((beta + 1) / 2) * unit
        assert brownian_energy(beta, [0.0, 1.0], [s, t]) == pytest.approx(expect, rel=1e-12)
        # only the increment's length counts, whichever sign comes first
        for thetas in ((1.0, -1.0), (-1.0, 1.0)):
            got = brownian_energy(beta, thetas, [s, t])
            assert got == pytest.approx(tau ** ((beta + 1) / 2) * unit, rel=1e-12)


def test_brownian_energy_validation():
    for thetas in ((1.0, 1.0), (1.0, -2.0), (0.0, 0.0), (1.0, -1.0, 1.0)):
        with pytest.raises(UsageError, match="one nonzero theta or two opposite ones"):
            brownian_energy(1.5, thetas, (0.25, 0.5, 1.0)[: len(thetas)])
    with pytest.raises(UsageError, match="beta"):
        brownian_energy(2.5, [1.0], [1.0])
    with pytest.raises(UsageError, match="times"):
        brownian_energy(1.5, [1.0, -1.0], [1.0, 0.5])
    with pytest.raises(UsageError, match="one theta per grid time"):
        brownian_energy(1.5, [1.0, -1.0], [1.0])
    with pytest.raises(UsageError, match="thetas must be finite"):
        brownian_energy(1.5, [float("nan")], [1.0])
    with pytest.raises(NumericalError):
        brownian_energy(2.0, [1e300], [1.0])


@pytest.mark.parametrize("beta", (1.2, 1.5))
def test_box_count_matches_brownian_energy_on_a_fine_grid(capsys, beta):
    # 32 grid points per bin leave a box-count bias of well under 1%; seeds
    # 0, 1 and 23 read z from +0.7 to +2.1 here
    draws = power_integral_draws(0.5, beta, [1.0], [1.0], 16384, 512, 1500, seed=0)
    mean, se = limit._mean_se(draws)
    exact = brownian_energy(beta, [1.0], [1.0])
    with capsys.disabled():
        print(f"\nbox count at H = 1/2, beta = {beta}, m = 16384, bins 512: {mean:.4f} +- {se:.4f} "
              f"against {exact:.4f}, bias {mean / exact - 1.0:+.2%}, z {(mean - exact) / se:+.2f}")
    assert abs(mean - exact) <= 3.0 * se


@pytest.mark.parametrize(
    "hurst, thetas, times, m, bins, replicates, seed, jobs",
    [
        (0.5, (1.0,), (1.0,), 4096, 512, 2000, 0, 1),
        (0.7, (1.0, -1.0), (0.5, 1.0), 64, 3, 2, 2**64 - 1, 2),
        (0.3, (0.0, 2.0, 1.0), (0.0, 0.5, 2.0), 2, 1000, 10**6, 7, 3),
    ],
)
def test_estimate_at_beta_two_is_the_exact_energy(monkeypatch, hurst, thetas, times, m, bins, replicates,
                                                   seed, jobs):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was drawn at beta = 2")

    monkeypatch.setattr(limit, "_fbm_blocks", no_paths)
    got = estimate_power_integral_mean(hurst, 2.0, thetas, times, m, bins, replicates, seed, jobs=jobs)
    assert got == (exact_energy(hurst, thetas, times), 0.0)


# each case is (hurst, thetas, times, m, bins, replicates, jobs) with one input out of its domain
_BAD_ORACLE_INPUTS = {
    "replicates 1": (0.5, [1.0], [1.0], 16, 4, 1, 1),
    "bins 2": (0.5, [1.0], [1.0], 16, 2, 2, 1),
    "m 1": (0.5, [1.0], [1.0], 1, 4, 2, 1),
    "m T below 1": (0.5, [1.0], [0.05], 16, 4, 2, 1),
    "hurst 0": (0.0, [1.0], [1.0], 16, 4, 2, 1),
    "hurst 1": (1.0, [1.0], [1.0], 16, 4, 2, 1),
    "empty times": (0.5, [], [], 16, 4, 2, 1),
    "decreasing times": (0.5, [1.0, 1.0], [1.0, 0.5], 16, 4, 2, 1),
    "nan time": (0.5, [1.0], [float("nan")], 16, 4, 2, 1),
    "theta count": (0.5, [1.0, 1.0], [1.0], 16, 4, 2, 1),
    "jobs 0": (0.5, [1.0], [1.0], 16, 4, 2, 0),
}


@pytest.mark.parametrize("case", sorted(_BAD_ORACLE_INPUTS))
def test_oracle_rejects_bad_input_alike_at_every_beta(fgn_blocks_drawn, case):
    # one check runs before the closed form at beta = 2 and before the first path
    hurst, thetas, times, m, bins, replicates, jobs = _BAD_ORACLE_INPUTS[case]
    args = (thetas, times, m, bins, replicates)
    calls = [lambda beta=beta: estimate_power_integral_mean(hurst, beta, *args, seed=0, jobs=jobs)
             for beta in (1.5, 2.0)]
    # the raw draws give no standard error, so one replicate is theirs to draw
    if replicates > 1:
        calls += [lambda beta=beta: power_integral_draws(hurst, beta, *args, seed=0, jobs=jobs)
                  for beta in (1.5, 2.0)]
    errors = set()
    for call in calls:
        with pytest.raises(UsageError) as caught:
            call()
        errors.add(str(caught.value))
    assert len(errors) == 1
    assert fgn_blocks_drawn == []


@pytest.mark.parametrize(
    "m, bins, times, message",
    [(1, 16, [1.0], "m must be at least 2, got 1"), (64, 2, [1.0], "bins must be at least 3, got 2"),
     (16, 16, [0.05], "shorter than one grid step 1/16")],
)
def test_functional_experiment_checks_the_oracle_before_any_walk(fgn_blocks_drawn, m, bins, times, message):
    with pytest.raises(UsageError) as oracle:
        power_integral_draws(0.7, 1.5, [1.0], times, m, bins, 20, seed=0)
    with pytest.raises(UsageError) as caught:
        functional_experiment(ModelParams(hurst=0.7, beta=1.5), 64, [1.0], times, m, bins, 20, seed=0)
    assert str(caught.value) == str(oracle.value)
    assert message in str(caught.value)
    assert fgn_blocks_drawn == []


@pytest.mark.parametrize(
    "m, oracle_replicates, message",
    [(64, 1, "replicates must be at least 2, got 1"), (1, 30, "m must be at least 2, got 1")],
)
@pytest.mark.parametrize("beta", (1.5, 2.0))
def test_schema_ecf_check_checks_the_oracle_before_any_walk(fgn_blocks_drawn, beta, m, oracle_replicates,
                                                            message):
    with pytest.raises(UsageError) as oracle:
        estimate_power_integral_mean(0.7, beta, [1.0], [1.0], m, 16, oracle_replicates, seed=0)
    with pytest.raises(UsageError) as caught:
        model = ModelParams(hurst=0.7, beta=beta)
        schema_ecf_check(model, 64, 3, (0.5, 1.0), m, 16, 40, oracle_replicates, seed=0)
    assert str(caught.value) == str(oracle.value)
    assert message in str(caught.value)
    assert fgn_blocks_drawn == []


@pytest.mark.parametrize("beta", (1.5, 2.0))
@pytest.mark.parametrize("theta", (float("nan"), float("inf"), 1e300))
def test_non_finite_theta_energy_raises_numerical_error(beta, theta):
    # the box counts overflow with a RuntimeWarning on the way
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        estimate_power_integral_mean(0.5, beta, [theta], [1.0], 16, 4, 2, seed=0)


def test_exact_energy_validation():
    with pytest.raises(UsageError, match="one theta per grid time"):
        exact_energy(0.5, [1.0, 1.0], [1.0])
    with pytest.raises(UsageError, match="hurst"):
        exact_energy(1.0, [1.0], [1.0])
    with pytest.raises(UsageError, match="times"):
        exact_energy(0.5, [1.0, 1.0], [0.5, 0.5])


def test_oracle_validation():
    with pytest.raises(UsageError):
        power_integral_draws(0.5, 2.0, [1.0], [1.0], 128, 32, 0, seed=0)
    # beta and the theta count are checked once, before any path is drawn
    with pytest.raises(UsageError, match="beta"):
        power_integral_draws(0.5, 2.5, [1.0], [1.0], 128, 32, 4, seed=0)
    with pytest.raises(UsageError, match="one theta per grid time"):
        power_integral_draws(0.5, 2.0, [1.0, 1.0], [1.0], 128, 32, 4, seed=0)
    with pytest.raises(UsageError):
        estimate_power_integral_mean(0.5, 2.0, [1.0], [1.0], 128, 32, 1, seed=0)


def test_limit_cf_target_values_and_error_propagation():
    model = ModelParams(hurst=0.5, beta=2.0, sigma=1.0)
    target, target_se = limit_cf_target([0.0, 1.0, 2.0], model, energy_mean=0.5, energy_se=0.1)
    np.testing.assert_allclose(target, [1.0, np.exp(-0.5), np.exp(-2.0)], rtol=1e-12)
    np.testing.assert_allclose(target_se, target * np.array([0.0, 1.0, 4.0]) * 0.1, rtol=1e-12)


def test_limit_cf_target_scales_with_sigma():
    model = ModelParams(hurst=0.7, beta=1.5, sigma=2.0)
    target, _ = limit_cf_target([1.0], model, energy_mean=1.0)
    assert target[0] == pytest.approx(np.exp(-(2.0**1.5)), rel=1e-12)


def test_limit_cf_check_is_the_ecf_target_compare_assembly():
    model = ModelParams(hurst=0.7, beta=1.5)
    u = (0.25, 0.5, 1.0)
    samples = stable_motion_samples(model, 4, [1.0], 64, 16, 40, 96)[:, 0]
    energy_mean, energy_se = estimate_power_integral_mean(0.7, 1.5, [1.0], [1.0], 64, 16, 40, 96)
    got = limit_cf_check(samples, model, u, energy_mean, energy_se)
    estimate = ecf(samples, u)
    target, target_se = limit_cf_target(estimate.u, model, energy_mean, energy_se)
    comparison = cf_compare(estimate, target, target_se)
    assert got.estimate.re.tobytes() == estimate.re.tobytes()
    assert got.target.tobytes() == target.tobytes()
    assert got.target_se.tobytes() == target_se.tobytes()
    assert got.comparison.z.tobytes() == comparison.z.tobytes()
    assert (got.energy_mean, got.energy_se) == (energy_mean, energy_se)


def test_schema_ecf_check_is_the_limit_cf_check_of_its_draws_and_oracle():
    model = ModelParams(hurst=0.7, beta=1.5)
    u = (0.5, 1.0)
    got = schema_ecf_check(model, 64, 3, u, 64, 16, 40, 30, seed=97)
    samples = schema_samples(model, 64, 3, [1.0], 40, 97)[:, 0]
    energy = estimate_power_integral_mean(0.7, 1.5, [1.0], [1.0], 64, 16, 30, 97)
    expect = limit_cf_check(samples, model, u, *energy)
    assert np.asarray(got.rows()).tobytes() == np.asarray(expect.rows()).tobytes()
    assert (got.energy_mean, got.energy_se) == energy


# ---------------------------------------------------------------------------
# Stable integral of the local time
# ---------------------------------------------------------------------------


def test_integral_zero_noise_gives_zero_process():
    path = sample_fbm(128, 1.0, 0.6, spawn_rng(62))
    noise = StableParams(beta=2.0, sigma=1.0)
    values = sample_local_time_integral(path, (0.0, 0.5, 1.0), 32, noise, _ZeroNoise())
    np.testing.assert_array_equal(values, np.zeros(3))


def test_integral_pins_time_zero_even_with_real_noise():
    path = sample_fbm(128, 1.0, 0.6, spawn_rng(63))
    noise = StableParams(beta=1.5, sigma=1.0)
    values = sample_local_time_integral(path, (0.0, 1.0), 32, noise, spawn_rng(63, 1))
    assert values[0] == 0.0
    assert values[1] != 0.0


def test_integral_conditional_gaussian_variance():
    # Given the path, Delta(1) is Gaussian with variance
    # 2 sigma**2 * sum_x L(x)**2 h when beta = 2.
    from rwrs import fbm_local_time as _flt

    noise = StableParams(beta=2.0, sigma=1.3)
    path = sample_fbm(512, 1.0, 0.6, spawn_rng(50, 0, ROLE_WALK))
    xdisc = local_time_power_integral(_flt(path, (1.0,), 128), [1.0], 2.0)
    replicates = 2000
    vals = np.empty(replicates)
    for i in range(replicates):
        vals[i] = sample_local_time_integral(path, (1.0,), 128, noise, spawn_rng(50, i, ROLE_NOISE))[0]
    ratio = vals.var(ddof=1) / (2.0 * 1.3**2 * xdisc)
    assert 0.88 <= ratio <= 1.12


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_integral_cf_matches_conditional_mixture(beta):
    # Conditionally on the path the stable integral has characteristic
    # function exp(-|u|**beta X) with X the beta-energy of the same
    # box-count grid, so the unconditional CF is the mixture mean.
    noise = StableParams(beta=beta, sigma=1.0)
    replicates = 2000
    deltas = np.empty(replicates)
    energies = np.empty(replicates)
    for i in range(replicates):
        path = sample_fbm(512, 1.0, 0.6, spawn_rng(51, i, ROLE_WALK))
        grid = fbm_local_time(path, (1.0,), 128)
        energies[i] = local_time_power_integral(grid, [1.0], beta)
        deltas[i] = sample_local_time_integral(path, (1.0,), 128, noise, spawn_rng(51, i, ROLE_NOISE))[0]
    u = np.array([0.5, 1.0, 2.0])
    estimate = ecf(deltas, u)
    weights = np.exp(-np.abs(u)[:, None] ** beta * energies[None, :])
    target = weights.mean(axis=1)
    target_se = weights.std(ddof=1, axis=1) / np.sqrt(replicates)
    assert cf_compare(estimate, target, target_se).max_abs_z <= 3.0
    # symmetric noise: imaginary part must vanish
    assert np.all(np.abs(estimate.im) <= 3.0 * estimate.se_im)


def test_integral_cf_two_time_combination():
    # Same mixture identity for Delta(1/2) + Delta(1): the conditional
    # exponent is the beta-energy of L_{1/2} + L_1.
    noise = StableParams(beta=2.0, sigma=1.0)
    times = (0.5, 1.0)
    replicates = 2000
    sums = np.empty(replicates)
    energies = np.empty(replicates)
    for i in range(replicates):
        path = sample_fbm(512, 1.0, 0.5, spawn_rng(52, i, ROLE_WALK))
        grid = fbm_local_time(path, times, 128)
        energies[i] = local_time_power_integral(grid, [1.0, 1.0], 2.0)
        sums[i] = sample_local_time_integral(path, times, 128, noise, spawn_rng(52, i, ROLE_NOISE)).sum()
    u = np.array([0.25, 0.5, 1.0])
    estimate = ecf(sums, u)
    weights = np.exp(-np.abs(u)[:, None] ** 2 * energies[None, :])
    target = weights.mean(axis=1)
    target_se = weights.std(ddof=1, axis=1) / np.sqrt(replicates)
    assert cf_compare(estimate, target, target_se).max_abs_z <= 3.0


# ---------------------------------------------------------------------------
# Superposition of independent copies
# ---------------------------------------------------------------------------


def test_motion_single_copy_equals_one_integral():
    model = ModelParams(hurst=0.7, beta=1.5)
    times = (0.5, 1.0)
    got = sample_stable_motion(1, times, model, 256, 64, seed=64)
    path = sample_fbm(256, 1.0, 0.7, spawn_rng(64, 0, ROLE_WALK))
    noise = StableParams(beta=1.5, sigma=1.0)
    expect = sample_local_time_integral(path, times, 64, noise, spawn_rng(64, 0, ROLE_NOISE))
    np.testing.assert_array_equal(got, expect)


def test_motion_deterministic_in_seed():
    model = ModelParams(hurst=0.5, beta=2.0)
    a = sample_stable_motion(4, (0.5, 1.0), model, 128, 32, seed=65)
    b = sample_stable_motion(4, (0.5, 1.0), model, 128, 32, seed=65)
    c = sample_stable_motion(4, (0.5, 1.0), model, 128, 32, seed=66)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_motion_rejects_bad_copies():
    model = ModelParams(hurst=0.5, beta=2.0)
    with pytest.raises(UsageError):
        sample_stable_motion(0, (1.0,), model, 128, 32, seed=0)


def test_motion_cf_matches_finite_copy_target():
    # For c independent copies the CF factorizes exactly:
    #   E exp(iu Gamma) = ( E exp(-|u|**beta X / c) )**c,
    # so a Monte Carlo estimate of the inner mean gives a sharp target
    # with no large-c asymptotics involved.
    beta = 1.5
    copies = 8
    model = ModelParams(hurst=0.5, beta=beta)
    replicates = 400
    samples = np.empty(replicates)
    for r in range(replicates):
        samples[r] = sample_stable_motion(copies, (1.0,), model, 256, 64, seed=10_000 + r)[0]
    energies = power_integral_draws(0.5, beta, [1.0], [1.0], 256, 64, 2000, seed=53)
    u = np.array([0.5, 1.0, 2.0])
    estimate = ecf(samples, u)
    weights = np.exp(-np.abs(u)[:, None] ** beta / copies * energies[None, :])
    inner = weights.mean(axis=1)
    inner_se = weights.std(ddof=1, axis=1) / np.sqrt(energies.size)
    target = inner**copies
    target_se = copies * inner ** (copies - 1) * inner_se
    assert cf_compare(estimate, target, target_se).max_abs_z <= 3.0


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------


def _box_count_reference(path, times, bins):
    # the box count of one path with the bin geometry in Python floats
    times = np.asarray(times, dtype=np.float64)
    ends = np.floor(path.m * times + 1e-9).astype(np.int64)
    values = path.values[: ends[-1] + 1]
    low = float(values.min())
    span = float(values.max()) - low
    width = 1.0 if span <= 0.0 else span / (bins - 2)
    origin = low - width
    idx = np.clip(np.floor((values - origin) / width).astype(np.int64), 0, bins - 1)
    densities = np.empty((times.size, bins))
    counts = np.zeros(bins, dtype=np.int64)
    prev = -1
    for j, end in enumerate(ends):
        counts += np.bincount(idx[prev + 1 : end + 1], minlength=bins)
        prev = int(end)
        densities[j] = counts / (path.m * width)
    return origin, width, densities


@pytest.mark.parametrize(
    "m, bins, times", [(4096, 512, (1.0,)), (256, 37, (0.0, 0.5, 1.0)), (300, 3, (0.25, 1.0))]
)
@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_box_count_matches_scalar_reference(hurst, m, bins, times):
    # the bin of every point, the path's extremes included, is unchanged
    for i in range(20):
        path = sample_fbm(m, 1.0, hurst, spawn_rng(66, i))
        grid = fbm_local_time(path, times, bins)
        origin, width, densities = _box_count_reference(path, times, bins)
        assert (grid.origin, grid.bin_width) == (origin, width)
        assert grid.densities.tobytes() == densities.tobytes()
    constant = _grid_path(np.zeros(9))
    grid = fbm_local_time(constant, (1.0,), 4)
    origin, width, densities = _box_count_reference(constant, (1.0,), 4)
    assert grid.degenerate and (grid.origin, grid.bin_width) == (origin, width)
    assert grid.densities.tobytes() == densities.tobytes()


def test_box_count_rejects_two_bins():
    # two bins are both guard bins: the interior width would divide by zero
    path = sample_fbm(64, 1.0, 0.5, spawn_rng(67))
    with pytest.raises(UsageError):
        fbm_local_time(path, (1.0,), 2)
    with pytest.raises(UsageError):
        sample_stable_motion(3, (1.0,), ModelParams(hurst=0.5, beta=2.0), 64, 2, seed=0)
    with pytest.raises(UsageError):
        power_integral_draws(0.5, 2.0, [1.0], [1.0], 64, 2, 4, seed=0)


@pytest.mark.parametrize("copies", [1, 5, 32])
@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_stable_motion_matches_per_copy_composition(hurst, copies):
    model = ModelParams(hurst=hurst, beta=1.5)
    noise = StableParams(beta=1.5, sigma=1.0)
    times = (0.0, 0.5, 1.0)
    got = sample_stable_motion(copies, times, model, 256, 64, seed=68)
    rows = np.empty((copies, len(times)))
    for i in range(copies):
        path = sample_fbm(256, 1.0, hurst, spawn_rng(68, i, ROLE_WALK))
        rows[i] = sample_local_time_integral(path, times, 64, noise, spawn_rng(68, i, ROLE_NOISE))
    expect = float(copies) ** (-1.0 / 1.5) * rows.sum(axis=0)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("replicates", ["one", "block-1", "block+1", "forty-five"])
@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_power_integral_draws_match_per_index_composition(hurst, replicates):
    count = {"one": 1, "block-1": _REPLICATE_BLOCK - 1, "block+1": _REPLICATE_BLOCK + 1,
             "forty-five": 45}[replicates]
    thetas, times = (1.0, -0.5), (0.5, 1.0)
    got = power_integral_draws(hurst, 1.5, thetas, times, 256, 64, count, seed=69)
    expect = np.empty(count)
    for i in range(count):
        path = sample_fbm(256, 1.0, hurst, spawn_rng(69, i, ROLE_ORACLE))
        grid = fbm_local_time(path, times, 64)
        expect[i] = local_time_power_integral(grid, thetas, 1.5)
    assert got.tobytes() == expect.tobytes()


def test_power_integral_draws_jobs_independent():
    one = power_integral_draws(0.7, 1.5, [1.0], [1.0], 256, 64, 45, seed=70, jobs=1)
    two = power_integral_draws(0.7, 1.5, [1.0], [1.0], 256, 64, 45, seed=70, jobs=2)
    assert one.tobytes() == two.tobytes()


def test_block_paths_keep_negative_eigenvalue_check(break_embedding):
    model = ModelParams(hurst=0.7, beta=1.5)
    sample_stable_motion(5, (1.0,), model, 64, 16, seed=71)
    power_integral_draws(0.7, 1.5, [1.0], [1.0], 64, 16, 20, seed=71)
    break_embedding()
    with pytest.raises(NumericalError):
        sample_stable_motion(5, (1.0,), model, 64, 16, seed=71)
    with pytest.raises(NumericalError):
        power_integral_draws(0.7, 1.5, [1.0], [1.0], 64, 16, 20, seed=71)
