"""Tests for occupation counts, reward accumulation, and the energy functional."""

import numpy as np
import pytest

from rwrs import (
    ModelParams,
    RewardSeries,
    UsageError,
    interpolate,
    local_time_functional,
    local_time_profiles,
    max_local_time,
    occupation_reward,
    range_count,
    reward_series,
    sample_walk,
    self_intersections,
    site_of,
)
from rwrs.local_times import SITE_CEIL, SITE_FLOOR
from rwrs.streams import spawn_rng


def profile_at(path, n=None, convention=SITE_CEIL):
    """The occupation profile of ``path`` over steps 0..n (all steps by default)."""
    n = path.n if n is None else n
    return local_time_profiles(path, [n], convention)[n]


def table_scenery(table):
    """A scenery callable looking each site up in a dict."""
    return lambda sites: np.asarray([table[int(s)] for s in sites], dtype=np.float64)


# ---------------------------------------------------------------------------
# Site map
# ---------------------------------------------------------------------------


def test_site_of_ceiling_examples():
    np.testing.assert_array_equal(site_of([0.0, 0.3, -0.3, 1.0, -1.7]), [0, 1, 0, 1, -1])


def test_site_of_floor_examples():
    got = site_of([0.0, 0.3, -0.3, 1.0, -1.7], convention=SITE_FLOOR)
    np.testing.assert_array_equal(got, [0, 0, -1, 1, -2])


def test_site_of_rejects_unknown_convention():
    with pytest.raises(UsageError):
        site_of([0.0], convention="round")


def test_site_of_returns_integer_dtype():
    assert site_of([0.2]).dtype == np.int64


# ---------------------------------------------------------------------------
# Occupation counts on hand-built paths
# ---------------------------------------------------------------------------


def test_constant_path_occupies_single_site(make_path):
    path = make_path([0.0, 0.0, 0.0, 0.0])
    profile = profile_at(path)
    np.testing.assert_array_equal(profile.sites, [0])
    np.testing.assert_array_equal(profile.counts, [4])
    assert max_local_time(profile) == 4
    assert self_intersections(profile) == 16
    assert range_count(profile) == 1


def test_three_distinct_sites(make_path):
    path = make_path([0.0, 0.5, 1.2])
    profile = profile_at(path)
    np.testing.assert_array_equal(profile.sites, [0, 1, 2])
    np.testing.assert_array_equal(profile.counts, [1, 1, 1])
    assert max_local_time(profile) == 1
    assert self_intersections(profile) == 3
    assert range_count(profile) == 3


def test_partial_horizon_counts(make_path):
    path = make_path([0.0, 0.5, 1.2, 0.4])
    profile = profile_at(path, n=1)
    assert profile.n == 1
    np.testing.assert_array_equal(profile.sites, [0, 1])
    np.testing.assert_array_equal(profile.counts, [1, 1])


def test_horizon_validation(make_path):
    path = make_path([0.0, 1.0])
    with pytest.raises(UsageError):
        profile_at(path, n=2)
    with pytest.raises(UsageError):
        profile_at(path, n=-1)


def test_floor_convention_changes_counts(make_path):
    path = make_path([0.0, 0.5, 1.2])
    profile = profile_at(path, convention=SITE_FLOOR)
    np.testing.assert_array_equal(profile.sites, [0, 1])
    np.testing.assert_array_equal(profile.counts, [2, 1])


# ---------------------------------------------------------------------------
# Invariants on random paths
# ---------------------------------------------------------------------------


def test_counts_sum_to_steps_taken():
    walk = sample_walk(512, 0.7, spawn_rng(32))
    for n in (0, 1, 17, 256, 512):
        profile = profile_at(walk, n=n)
        assert profile.counts.sum() == n + 1
        assert profile.counts.min() >= 1
        assert np.all(np.diff(profile.sites) > 0)


def test_counts_monotone_in_horizon():
    walk = sample_walk(256, 0.6, spawn_rng(33))
    horizons = [32, 64, 128, 256]
    profiles = local_time_profiles(walk, horizons)
    for lo, hi in zip(horizons, horizons[1:]):
        small, big = profiles[lo], profiles[hi]
        lookup = dict(zip(big.sites.tolist(), big.counts.tolist()))
        for site, count in zip(small.sites.tolist(), small.counts.tolist()):
            assert lookup[site] >= count


def test_batch_profiles_match_single_calls():
    walk = sample_walk(300, 0.8, spawn_rng(34))
    horizons = [0, 7, 150, 300]
    batch = local_time_profiles(walk, horizons)
    assert sorted(batch) == horizons
    for h in horizons:
        sites, counts = np.unique(site_of(walk.sums[: h + 1]), return_counts=True)
        np.testing.assert_array_equal(batch[h].sites, sites)
        np.testing.assert_array_equal(batch[h].counts, counts)


def test_batch_profiles_deduplicate_horizons():
    walk = sample_walk(64, 0.5, spawn_rng(35))
    batch = local_time_profiles(walk, [32, 32, 64])
    assert sorted(batch) == [32, 64]


def test_counting_inequalities():
    # Cauchy-Schwarz: (n+1)**2 <= V_n * R_n, and V_n <= L_n * (n+1).
    for i in range(20):
        walk = sample_walk(400, 0.55, spawn_rng(36, i))
        profile = profile_at(walk)
        n1 = profile.counts.sum()
        v = self_intersections(profile)
        assert v * range_count(profile) >= n1**2
        assert v <= max_local_time(profile) * n1


def test_self_intersection_mean_matches_local_time_energy():
    # For the simple case H = 0.5, beta = 2 the normalized statistic
    # n**(-3/2) V_n estimates the mean squared-local-time integral of
    # Brownian motion, which is 8 / (3 sqrt(2 pi)) by direct calculus.
    n = 4096
    replicates = 500
    vals = np.empty(replicates)
    for i in range(replicates):
        walk = sample_walk(n, 0.5, spawn_rng(31, i))
        vals[i] = self_intersections(profile_at(walk)) * float(n) ** (-1.5)
    target = 8.0 / (3.0 * np.sqrt(2.0 * np.pi))
    assert abs(vals.mean() - target) / target <= 0.10


# ---------------------------------------------------------------------------
# Reward accumulation
# ---------------------------------------------------------------------------


def test_reward_series_identity_scenery(make_path):
    path = make_path([0.0, 0.5, 1.2])
    series = reward_series(path, lambda sites: sites.astype(np.float64))
    # xi(x) = x gives Z = (0, 0+1, 0+1+2).
    np.testing.assert_allclose(series.values, [0.0, 1.0, 3.0], rtol=0, atol=0)


def test_reward_series_constant_scenery():
    walk = sample_walk(200, 0.7, spawn_rng(37))
    series = reward_series(walk, lambda sites: np.full(sites.shape, 2.5))
    np.testing.assert_allclose(series.values, 2.5 * np.arange(1, 202), rtol=1e-12)


def test_reward_series_zero_scenery_stays_zero(make_path):
    path = make_path([0.0, -0.4, 0.9])
    series = reward_series(path, table_scenery({0: 0.0, 1: 0.0}))
    np.testing.assert_array_equal(series.values, np.zeros(3))


def test_reward_series_matches_count_weighted_sum():
    # Z_n must equal sum_x N_n(x) xi(x) whatever the scenery.
    walk = sample_walk(333, 0.65, spawn_rng(38))
    rng = spawn_rng(39)
    profile = profile_at(walk)
    table = {int(s): float(v) for s, v in zip(profile.sites, rng.standard_normal(profile.sites.size))}
    series = reward_series(walk, table_scenery(table))
    direct = sum(table[int(s)] * int(c) for s, c in zip(profile.sites, profile.counts))
    assert series.values[-1] == pytest.approx(direct, rel=1e-12)


def test_occupation_reward_adds_counts_times_values_site_by_site(make_path):
    # Z_n = sum_x N_n(x) xi(x), added in increasing site order: sites 0, 1, 2
    # are visited 1, 3 and 1 times
    path = make_path([0.0, 0.5, 1.2, 0.4, 0.9])
    table = {0: 0.1, 1: 1e16 / 3.0, 2: -1e16}
    expect = 0.0
    for site, count in ((0, 1), (1, 3), (2, 1)):
        expect += count * table[site]
    assert occupation_reward(profile_at(path), table_scenery(table)) == expect


def test_occupation_reward_matches_reward_series():
    walk = sample_walk(333, 0.65, spawn_rng(46))
    scenery = lambda sites: np.cos(1.7 * sites)
    for h in (0, 1, 100, 333):
        profile = profile_at(walk, n=h)
        step_by_step = reward_series(walk, scenery, n=h).values[-1]
        assert occupation_reward(profile, scenery) == pytest.approx(step_by_step, rel=1e-12, abs=1e-12)


def test_reward_series_is_linear_in_scenery():
    walk = sample_walk(128, 0.75, spawn_rng(40))
    xi_a = lambda sites: np.sin(sites.astype(np.float64))
    xi_b = lambda sites: (sites % 3).astype(np.float64)
    combo = lambda sites: 2.0 * xi_a(sites) - 0.5 * xi_b(sites)
    za = reward_series(walk, xi_a).values
    zb = reward_series(walk, xi_b).values
    zc = reward_series(walk, combo).values
    np.testing.assert_allclose(zc, 2.0 * za - 0.5 * zb, rtol=1e-12, atol=1e-12)


def test_reward_series_respects_horizon_and_convention(make_path):
    path = make_path([0.0, 0.5, 1.2])
    scenery = table_scenery({0: 1.0, 1: 10.0})
    series = reward_series(path, scenery, n=1)
    np.testing.assert_array_equal(series.values, [1.0, 11.0])
    floor_series = reward_series(path, scenery, convention=SITE_FLOOR)
    np.testing.assert_array_equal(floor_series.values, [1.0, 2.0, 12.0])


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interpolate_hits_lattice_points_exactly():
    series = RewardSeries(n=3, values=np.array([1.0, -2.0, 0.5, 7.0]))
    for j in range(4):
        assert interpolate(series, j) == series.values[j]


def test_interpolate_midpoint_value():
    series = RewardSeries(n=2, values=np.array([5.0, 0.0, 4.0]))
    assert interpolate(series, 1.25) == pytest.approx(1.0, abs=1e-12)
    assert interpolate(series, 0.5) == pytest.approx(2.5, abs=1e-12)


def test_interpolate_upper_boundary_is_exact():
    series = RewardSeries(n=2, values=np.array([0.0, 1.0, -3.0]))
    assert interpolate(series, 2.0) == -3.0


def test_interpolate_accepts_arrays():
    series = RewardSeries(n=2, values=np.array([0.0, 2.0, 2.0]))
    out = interpolate(series, [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 2.0, 2.0], rtol=0, atol=1e-12)


def test_interpolate_rejects_out_of_range():
    series = RewardSeries(n=2, values=np.zeros(3))
    with pytest.raises(UsageError):
        interpolate(series, -0.1)
    with pytest.raises(UsageError):
        interpolate(series, 2.1)


def test_interpolate_is_linear_in_values():
    rng = spawn_rng(41)
    za = rng.standard_normal(11)
    zb = rng.standard_normal(11)
    s = np.linspace(0.0, 10.0, 37)
    a = interpolate(RewardSeries(n=10, values=za), s)
    b = interpolate(RewardSeries(n=10, values=zb), s)
    c = interpolate(RewardSeries(n=10, values=3.0 * za + 2.0 * zb), s)
    np.testing.assert_allclose(c, 3.0 * a + 2.0 * b, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Energy functional
# ---------------------------------------------------------------------------


def test_functional_reduces_to_self_intersections():
    # beta = 2, single time t = 1: the statistic is n**(-2 delta) V_n.
    model = ModelParams(hurst=0.5, beta=2.0)
    walk = sample_walk(250, 0.5, spawn_rng(42))
    profile = profile_at(walk)
    got = local_time_functional([profile], [1.0], [1.0], 250, model)
    expected = 250.0 ** (-2.0 * model.delta) * self_intersections(profile)
    assert got == pytest.approx(expected, rel=1e-12)


def test_functional_matches_bruteforce_two_times():
    model = ModelParams(hurst=0.7, beta=1.5)
    n = 200
    walk = sample_walk(n, 0.7, spawn_rng(43))
    times = (0.5, 1.0)
    horizons = [int(np.floor(n * t + 1e-9)) for t in times]
    profiles = [profile_at(walk, n=h) for h in horizons]
    thetas = (0.8, -1.3)

    acc: dict[int, float] = {}
    for theta, profile in zip(thetas, profiles):
        for site, count in zip(profile.sites.tolist(), profile.counts.tolist()):
            acc[site] = acc.get(site, 0.0) + theta * count
    brute = float(n) ** (-model.delta * model.beta) * sum(
        abs(v) ** model.beta for v in acc.values()
    )

    got = local_time_functional(profiles, thetas, times, n, model)
    assert got == pytest.approx(brute, rel=1e-12)


def test_functional_zero_thetas_gives_zero():
    model = ModelParams(hurst=0.6, beta=1.0)
    walk = sample_walk(100, 0.6, spawn_rng(44))
    profile = profile_at(walk)
    assert local_time_functional([profile], [0.0], [1.0], 100, model) == 0.0


def test_functional_validates_alignment():
    model = ModelParams(hurst=0.5, beta=2.0)
    walk = sample_walk(100, 0.5, spawn_rng(45))
    profile = profile_at(walk)
    half = profile_at(walk, n=50)
    with pytest.raises(UsageError):
        local_time_functional([profile], [1.0, 2.0], [1.0], 100, model)
    with pytest.raises(UsageError):
        local_time_functional([], [], [], 100, model)
    with pytest.raises(UsageError):
        # profile computed at the wrong horizon for the declared time
        local_time_functional([half], [1.0], [1.0], 100, model)
