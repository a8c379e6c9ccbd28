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
    cf_compare,
    ecf,
    estimate_power_integral_mean,
    fbm_local_time,
    limit_cf_target,
    local_time_power_integral,
    power_integral_draws,
    sample_fbm,
    sample_local_time_integral,
    sample_stable_motion,
)
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
    mean, se = estimate_power_integral_mean(0.5, 2.0, [1.0], [1.0], 4096, 512, 500, seed=48)
    target = 8.0 / (3.0 * np.sqrt(2.0 * np.pi))
    assert abs(mean - target) / target <= 0.10
    assert se <= 0.05 * target


def test_oracle_validation():
    with pytest.raises(UsageError):
        power_integral_draws(0.5, 2.0, [1.0], [1.0], 128, 32, 0, seed=0)
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


def _break_embedding(monkeypatch):
    from rwrs import fgn as fgn_mod

    def broken_eigenvalues(n, hurst):
        eig = np.ones(2 * n)
        eig[-1] = -1.0
        return eig

    monkeypatch.setattr(fgn_mod, "_embedding_eigenvalues", broken_eigenvalues)


def test_block_paths_keep_negative_eigenvalue_check(monkeypatch):
    model = ModelParams(hurst=0.7, beta=1.5)
    sample_stable_motion(5, (1.0,), model, 64, 16, seed=71)
    power_integral_draws(0.7, 1.5, [1.0], [1.0], 64, 16, 20, seed=71)
    _break_embedding(monkeypatch)
    with pytest.raises(NumericalError):
        sample_stable_motion(5, (1.0,), model, 64, 16, seed=71)
    with pytest.raises(NumericalError):
        power_integral_draws(0.7, 1.5, [1.0], [1.0], 64, 16, 20, seed=71)
