"""Tests for fractional Gaussian noise sampling and the derived walk/grid types."""

import numpy as np
import pytest

from rwrs import (
    NumericalError,
    UsageError,
    fgn_covariance,
    sample_fbm,
    sample_fgn,
    sample_walk,
)
from rwrs.streams import spawn_rng


# ---------------------------------------------------------------------------
# Covariance function
# ---------------------------------------------------------------------------


def test_covariance_lag_zero_is_unit_variance():
    for hurst in (0.3, 0.5, 0.75, 0.9):
        assert fgn_covariance(0, hurst) == pytest.approx(1.0, abs=1e-15)


def test_covariance_known_value():
    # 0.5 * (2^{1.5} - 2) at lag 1, hurst 0.75.
    assert fgn_covariance(1, 0.75) == pytest.approx(0.41421356237309515, abs=1e-12)


def test_covariance_is_even_in_lag():
    lags = np.arange(-16, 17)
    for hurst in (0.55, 0.7, 0.9):
        values = fgn_covariance(lags, hurst)
        assert np.allclose(values, values[::-1], atol=1e-15)


def test_covariance_vanishes_for_white_noise():
    lags = np.arange(1, 20)
    assert np.allclose(fgn_covariance(lags, 0.5), 0.0, atol=1e-15)


@pytest.mark.parametrize("hurst", [0.5, 0.6, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256])
def test_covariance_double_sum_matches_power_law(n, hurst):
    # Var(S_n) = sum_{i,j<n} r(i-j) must equal n^{2H} exactly: the covariance
    # telescopes because r is the second difference of 0.5 * |k|^{2H}.
    lags = np.arange(n).reshape(1, -1) - np.arange(n).reshape(-1, 1)
    total = fgn_covariance(lags, hurst).sum()
    assert total == pytest.approx(float(n) ** (2.0 * hurst), rel=1e-9)


# ---------------------------------------------------------------------------
# Increment sampling
# ---------------------------------------------------------------------------


def test_sample_fgn_shape_and_determinism():
    rng_a = spawn_rng(11)
    rng_b = spawn_rng(11)
    x = sample_fgn(64, 0.7, rng_a)
    y = sample_fgn(64, 0.7, rng_b)
    assert x.shape == (64,)
    assert x.dtype == np.float64
    np.testing.assert_array_equal(x, y)


def test_sample_fgn_validates_arguments():
    rng = spawn_rng(12)
    with pytest.raises(UsageError):
        sample_fgn(0, 0.7, rng)
    with pytest.raises(UsageError):
        sample_fgn(16, 0.0, rng)
    with pytest.raises(UsageError):
        sample_fgn(16, 1.0, rng)


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_sample_fgn_partial_sum_variance(hurst):
    # Monte Carlo check of Var(S_n) = n^{2H} for a couple of horizons.
    replicates = 2000
    n = 256
    finals_full = np.empty(replicates)
    finals_half = np.empty(replicates)
    for i in range(replicates):
        increments = sample_fgn(n, hurst, spawn_rng(13, i))
        finals_half[i] = increments[: n // 2].sum()
        finals_full[i] = increments.sum()
    for finals, length in ((finals_half, n // 2), (finals_full, n)):
        ratio = finals.var(ddof=1) / float(length) ** (2.0 * hurst)
        # Var of the sample variance of a Gaussian gives se(ratio) ~ sqrt(2/M).
        assert abs(ratio - 1.0) <= 3.0 * np.sqrt(2.0 / (replicates - 1))


def test_sample_fgn_lag_covariances():
    # Empirical lag-k covariances against the model covariance, pooled across
    # positions within each replicate.
    hurst = 0.8
    n = 512
    replicates = 400
    max_lag = 8
    sums = np.zeros(max_lag + 1)
    counts = np.zeros(max_lag + 1)
    draws = np.empty((replicates, n))
    for i in range(replicates):
        draws[i] = sample_fgn(n, hurst, spawn_rng(14, i))
    for lag in range(max_lag + 1):
        prods = draws[:, : n - lag] * draws[:, lag:] if lag else draws * draws
        sums[lag] = prods.mean(axis=1).sum()
        counts[lag] = replicates
    means = sums / counts
    targets = fgn_covariance(np.arange(max_lag + 1), hurst)
    # Within-replicate averages are correlated, so use a conservative scale
    # from the observed replicate-to-replicate spread.
    for lag in range(max_lag + 1):
        prods = draws[:, : n - lag] * draws[:, lag:] if lag else draws * draws
        per_rep = prods.mean(axis=1)
        se = per_rep.std(ddof=1) / np.sqrt(replicates)
        assert abs(means[lag] - targets[lag]) <= 4.0 * se


def test_sample_fgn_white_noise_shortcut_is_gaussian():
    draws = sample_fgn(4096, 0.5, spawn_rng(15))
    assert abs(draws.mean()) <= 4.0 / np.sqrt(4096.0)
    assert abs(draws.var(ddof=1) - 1.0) <= 4.0 * np.sqrt(2.0 / 4095.0)


def test_fast_length_is_minimal_five_smooth():
    from rwrs.fgn import _fast_length

    for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 64, 720, 2048, 2160, 4096):
        assert _fast_length(n) == n
    assert _fast_length(2049) == 2160
    assert _fast_length(4097) == 4320
    assert _fast_length(683) == 720
    assert _fast_length(7) == 8


def _half_spectrum_draw(eig, n, rng):
    # the N + 1 non-redundant weights of the order-2N circulant, from two
    # draws of N normals, through a Hermitian FFT
    order = len(eig)
    size = order // 2
    scale = np.sqrt(np.maximum(eig, 0.0) / order)
    g_re = rng.standard_normal(size)
    g_im = rng.standard_normal(size)
    weights = np.empty(size + 1, dtype=np.complex128)
    weights[0] = scale[0] * g_re[0]
    weights[1:size] = scale[1:size] / np.sqrt(2.0) * (g_re[1:] + 1j * g_im[1:])
    weights[size] = scale[size] * g_im[0]
    return np.fft.hfft(weights, order)[:n]


def _complex_spectrum_draw(eig, n, rng):
    # the full conjugate-symmetric weight vector through a complex FFT, as
    # built before the half-spectrum transform
    order = len(eig)
    size = order // 2
    scale = np.sqrt(np.maximum(eig, 0.0) / order)
    g_re = rng.standard_normal(size)
    g_im = rng.standard_normal(size)
    weights = np.empty(order, dtype=np.complex128)
    weights[0] = scale[0] * g_re[0]
    weights[1:size] = scale[1:size] / np.sqrt(2.0) * (g_re[1:] + 1j * g_im[1:])
    weights[size] = scale[size] * g_im[0]
    weights[size + 1 :] = np.conj(weights[1:size][::-1])
    return np.fft.fft(weights)[:n].real


def _sample_fgn_order_2n(n, hurst, rng):
    # the embedding of order exactly 2n, as built before padding to a
    # 5-smooth length
    row = fgn_covariance(np.arange(n + 1), hurst)
    eig = np.fft.fft(np.concatenate([row, row[n - 1 : 0 : -1]])).real
    return _half_spectrum_draw(eig, n, rng)


@pytest.mark.parametrize("n", [64, 4096])
def test_sample_fgn_five_smooth_length_matches_order_2n_embedding(n):
    out = sample_fgn(n, 0.7, spawn_rng(16, n))
    expected = _sample_fgn_order_2n(n, 0.7, spawn_rng(16, n))
    assert out.tobytes() == expected.tobytes()


def _sample_fgn_per_call_scale(n, hurst, rng):
    # the spectral draw with its scale recomputed and two normal draws
    from rwrs.fgn import _embedding_eigenvalues

    return _half_spectrum_draw(_embedding_eigenvalues(n, hurst), n, rng)


@pytest.mark.parametrize("n", [64, 2049, 4096])
def test_sample_fgn_cached_scale_matches_per_call_formula(n):
    rng, reference_rng = spawn_rng(26, n), spawn_rng(26, n)
    for _ in range(3):
        out = sample_fgn(n, 0.7, rng)
        expected = _sample_fgn_per_call_scale(n, 0.7, reference_rng)
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hurst", [0.3, 0.7])
@pytest.mark.parametrize("n", [64, 2049, 4096])
def test_sample_fgn_half_spectrum_matches_complex_construction(n, hurst):
    # same normals, same weights: the two transforms differ only by rounding
    from rwrs.fgn import _embedding_eigenvalues

    rng, reference_rng = spawn_rng(27, n), spawn_rng(27, n)
    for _ in range(3):
        out = sample_fgn(n, hurst, rng)
        expected = _complex_spectrum_draw(_embedding_eigenvalues(n, hurst), n, reference_rng)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


def test_sample_fgn_padded_prefix_lag_covariances():
    # n = 2049 is padded to N = 2160; the kept prefix must still carry the
    # exact fGn covariance at every lag and the exact Var(S_n).
    hurst = 0.7
    n = 2049
    replicates = 400
    max_lag = 8
    draws = np.empty((replicates, n))
    for i in range(replicates):
        draws[i] = sample_fgn(n, hurst, spawn_rng(25, i))
    targets = fgn_covariance(np.arange(max_lag + 1), hurst)
    for lag in range(max_lag + 1):
        per_rep = (draws[:, : n - lag] * draws[:, lag:]).mean(axis=1)
        se = per_rep.std(ddof=1) / np.sqrt(replicates)
        assert abs(per_rep.mean() - targets[lag]) <= 4.0 * se
    ratio = draws.sum(axis=1).var(ddof=1) / float(n) ** (2.0 * hurst)
    assert abs(ratio - 1.0) <= 3.0 * np.sqrt(2.0 / (replicates - 1))


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------


def test_sample_walk_anchors_at_zero_and_cumsums():
    walk = sample_walk(128, 0.6, spawn_rng(17))
    assert walk.n == 128
    assert walk.sums.shape == (129,)
    assert walk.sums[0] == 0.0
    assert walk.sums[1:].tobytes() == np.cumsum(sample_fgn(128, 0.6, spawn_rng(17))).tobytes()


def test_sample_walk_scaling_of_terminal_variance():
    replicates = 2000
    for hurst in (0.5, 0.7):
        finals = np.empty(replicates)
        for i in range(replicates):
            finals[i] = sample_walk(128, hurst, spawn_rng(18, i)).sums[-1]
        ratio = finals.var(ddof=1) / 128.0 ** (2.0 * hurst)
        assert abs(ratio - 1.0) <= 3.0 * np.sqrt(2.0 / (replicates - 1))


# ---------------------------------------------------------------------------
# Limit-process grid
# ---------------------------------------------------------------------------


def test_sample_fbm_starts_at_zero_and_has_expected_length():
    grid = sample_fbm(256, 1.0, 0.7, spawn_rng(19))
    assert grid.values[0] == 0.0
    # floor(m * horizon) + 1 points including the origin.
    assert grid.values.shape == (257,)
    times = grid.times
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_sample_fbm_horizon_beyond_unit_interval():
    grid = sample_fbm(128, 1.5, 0.6, spawn_rng(20))
    assert grid.values.shape == (193,)
    assert grid.times[-1] == pytest.approx(1.5, abs=1e-12)


def test_sample_fbm_validates_arguments():
    rng = spawn_rng(21)
    with pytest.raises(UsageError):
        sample_fbm(1, 1.0, 0.7, rng)
    with pytest.raises(UsageError):
        sample_fbm(256, 0.0, 0.7, rng)
    with pytest.raises(UsageError):
        sample_fbm(4, 0.1, 0.7, rng)  # fewer than one step


@pytest.mark.parametrize("hurst", [0.5, 0.75])
def test_sample_fbm_variance_ratio_between_times(hurst):
    # Var B(t) = t^{2H}; check Var B(1) / Var B(1/2) = 2^{2H} without needing
    # the absolute normalization.
    replicates = 2000
    m = 128
    at_half = np.empty(replicates)
    at_one = np.empty(replicates)
    for i in range(replicates):
        grid = sample_fbm(m, 1.0, hurst, spawn_rng(22, i))
        at_half[i] = grid.values[m // 2]
        at_one[i] = grid.values[m]
    ratio = at_one.var(ddof=1) / at_half.var(ddof=1)
    target = 2.0 ** (2.0 * hurst)
    assert abs(ratio / target - 1.0) <= 0.2


def test_sample_fbm_finite_dimensional_law():
    # Exact covariance of (B(t1), B(t2), B(t3)) on the grid: since the grid
    # value at index j is m^{-H} S_j and Cov(S_j, S_k) is known in closed
    # form, the empirical covariance must match it.
    hurst = 0.7
    m = 64
    replicates = 3000
    idx = np.array([16, 32, 64])
    draws = np.empty((replicates, idx.size))
    for i in range(replicates):
        draws[i] = sample_fbm(m, 1.0, hurst, spawn_rng(23, i)).values[idx]
    emp = np.cov(draws.T, ddof=1)

    j = idx.reshape(-1, 1).astype(float)
    k = idx.reshape(1, -1).astype(float)
    exact = 0.5 * (j ** (2 * hurst) + k ** (2 * hurst) - np.abs(j - k) ** (2 * hurst))
    exact /= float(m) ** (2.0 * hurst)
    # Relative tolerance driven by the Monte Carlo error of second moments.
    tol = 5.0 * np.sqrt(2.0 / replicates)
    assert np.all(np.abs(emp / exact - 1.0) <= tol)


def test_spectral_embedding_eigenvalues_are_nonnegative():
    from rwrs.fgn import _embedding_eigenvalues, _fast_length

    for n in (683, 1024, 2049, 4097):
        for hurst in (0.1, 0.3, 0.45, 0.51, 0.6, 0.75, 0.9, 0.99):
            eig = _embedding_eigenvalues(n, hurst)
            assert eig.shape == (2 * _fast_length(n),)
            assert eig.min() >= -1e-9 * eig.max()


def test_dense_fallback_size_guard(break_embedding):
    # The shipped covariance embeds cleanly for every H, so simulate a
    # failed embedding: there is no rescue path, even at small n.
    break_embedding()
    with pytest.raises(NumericalError):
        sample_fgn(64, 0.7, spawn_rng(24))


# ---------------------------------------------------------------------------
# Row blocks
# ---------------------------------------------------------------------------


def _block_rows(n, hurst, rngs, walk=False):
    from rwrs.fgn import _fgn_blocks

    # each yielded block is overwritten by the next, so copy it out
    return np.concatenate([block.copy() for block in _fgn_blocks(n, hurst, rngs, walk=walk)])


@pytest.mark.parametrize("rows", ["one", "three", "block+1", "thirty-two"])
@pytest.mark.parametrize("n", [64, 2049, 4096])
@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_fgn_rows_match_one_row_bytes(hurst, n, rows):
    from rwrs.fgn import _ROW_BLOCK

    count = {"one": 1, "three": 3, "block+1": _ROW_BLOCK + 1, "thirty-two": 32}[rows]
    seeds = [(29, n, i) for i in range(count)]
    got = _block_rows(n, hurst, [spawn_rng(*s) for s in seeds])
    expect = np.stack([sample_fgn(n, hurst, spawn_rng(*s)) for s in seeds])
    assert got.shape == (count, n)
    assert got.tobytes() == expect.tobytes()
    sums = _block_rows(n, hurst, [spawn_rng(*s) for s in seeds], walk=True)
    expect_sums = np.stack([sample_walk(n, hurst, spawn_rng(*s)).sums for s in seeds])
    assert sums.tobytes() == expect_sums.tobytes()


@pytest.mark.parametrize("hurst", [0.5, 0.7])
def test_fbm_rows_match_sample_fbm_bytes(hurst):
    from rwrs.fgn import _ROW_BLOCK, _fbm_blocks

    count = 2 * _ROW_BLOCK + 1
    got = np.concatenate(
        [b.copy() for b in _fbm_blocks(100, 1.5, hurst, [spawn_rng(30, i) for i in range(count)])]
    )
    expect = np.stack([sample_fbm(100, 1.5, hurst, spawn_rng(30, i)).values for i in range(count)])
    assert got.tobytes() == expect.tobytes()
