"""Exact sampling of fractional Gaussian noise and its partial-sum walk.

Increments are stationary centered Gaussians with covariance

    r(k) = 0.5 * (|k+1|**(2H) - 2|k|**(2H) + |k-1|**(2H)),

so the walk S_n = X_1 + ... + X_n has Var(S_n) = n**(2H) exactly for
every n; no asymptotic constant enters anywhere downstream.  Sampling
uses the Davies-Harte circulant embedding (Davies & Harte 1987; Dieker
2004): the covariance row is embedded in a circulant of order 2N, where
N >= n is the smallest 5-smooth length (2**a * 3**b * 5**c), and its FFT
gives the spectral weights.  The random weights are conjugate symmetric,
so only the N + 1 non-redundant ones are built and one real inverse FFT
of order 2N transforms them.  The embedding yields N stationary
increments; the first n of them are kept, and a prefix of an exact
stationary sample is itself exact (Wood & Chan 1994).  For this
covariance the eigenvalues are nonnegative for all H in (0, 1); if
rounding ever produces a negative one, sampling fails loudly.  The check
runs once per (n, H) and its verdict is cached with the eigenvalues it
checked.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import NumericalError, UsageError

__all__ = ["fgn_covariance", "sample_fgn", "sample_walk", "WalkPath", "sample_fbm", "FbmGrid"]

# relative slack for calling an embedding eigenvalue negative
_EIG_TOL = 1e-9


def _check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise UsageError(f"hurst must lie in (0, 1), got {hurst}")


def fgn_covariance(lag, hurst: float) -> np.ndarray:
    """Covariance r(k) of fractional Gaussian noise at integer lags."""
    _check_hurst(hurst)
    k = np.abs(np.asarray(lag, dtype=np.float64))
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer 2**a * 3**b * 5**c that is at least n."""
    best = 1 << max(n - 1, 0).bit_length()
    # try every odd part 3**b * 5**c below the best length so far, doubled
    # up to n
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        power5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the order-2N circulant, N = _fast_length(n), cached per (n, H)."""
    size = _fast_length(n)
    row = fgn_covariance(np.arange(size + 1), hurst)
    circ = np.concatenate([row, row[size - 1 : 0 : -1]])
    eig = np.fft.fft(circ).real
    eig.flags.writeable = False
    return eig


def _spectral_scale(eig: np.ndarray, n: int, hurst: float) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(max(eig, 0) / order) of a nonnegative embedding, and its [1, N) slice over sqrt(2)."""
    if eig.min() < -_EIG_TOL * eig.max():
        raise NumericalError(
            f"circulant embedding not nonnegative for n={n}, hurst={hurst} "
            f"(min eigenvalue {eig.min():.3e})"
        )
    scale = np.sqrt(np.maximum(eig, 0.0) / len(eig))
    half = scale[1 : len(eig) // 2] / np.sqrt(2.0)
    scale.flags.writeable = False
    half.flags.writeable = False
    return scale, half


@functools.lru_cache(maxsize=8)
def _checked_spectrum(n: int, hurst: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The embedding's eigenvalues, which passed the check, and the scales derived from them."""
    eig = _embedding_eigenvalues(n, hurst)
    return (eig, *_spectral_scale(eig, n, hurst))


def _sample_fgn_spectral(
    n: int, scale: np.ndarray, half: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    # one complex weight per circulant frequency; the weights are
    # conjugate symmetric, so their transform is real (Dieker 2004,
    # section 2.1.3) and the half up to N determines it
    order = len(scale)
    size = order // 2
    # one draw of 2N normals is the same stream as two draws of N
    g = rng.standard_normal(order)
    g_re, g_im = g[:size], g[size:]
    # the half-spectrum is stored conjugated: the unscaled inverse real FFT
    # of the conjugated half is the forward FFT of the whole weight vector
    # (np.fft.hfft, without the conjugated copy it makes).  Parts are
    # written in place: temporaries of the embedding's size cost time and
    # make the heap grow and shrink on every draw
    weights = np.empty(size + 1, dtype=np.complex128)
    weights[0] = scale[0] * g_re[0]
    np.multiply(half, g_re[1:], out=weights.real[1:size])
    np.multiply(half, g_im[1:], out=weights.imag[1:size])
    np.negative(weights.imag[1:size], out=weights.imag[1:size])
    weights[size] = scale[size] * g_im[0]
    return np.fft.irfft(weights, order, norm="forward")[:n]


def sample_fgn(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n fractional Gaussian noise increments with unit lattice step."""
    _check_hurst(hurst)
    if n < 1:
        raise UsageError(f"n must be a positive integer, got {n}")
    if hurst == 0.5:
        return rng.standard_normal(n)
    eig = _embedding_eigenvalues(n, hurst)
    checked, scale, half = _checked_spectrum(n, hurst)
    # the verdict is cached with the eigenvalues it checked: eigenvalues
    # that are not those are checked afresh
    if checked is not eig:
        scale, half = _spectral_scale(eig, n, hurst)
    return _sample_fgn_spectral(n, scale, half, rng)


@dataclasses.dataclass(frozen=True)
class WalkPath:
    """A walk started at 0 with its generating increments.

    ``sums`` has length n + 1 with ``sums[0] == 0`` and
    ``sums[k] - sums[k-1] == increments[k-1]``.
    """

    hurst: float
    increments: np.ndarray
    sums: np.ndarray

    @property
    def n(self) -> int:
        return len(self.increments)


def sample_walk(n: int, hurst: float, rng: np.random.Generator) -> WalkPath:
    """Draw a length-n fractional Gaussian walk, S_0 = 0 included."""
    increments = sample_fgn(n, hurst, rng)
    sums = np.empty(n + 1, dtype=np.float64)
    sums[0] = 0.0
    np.cumsum(increments, out=sums[1:])
    return WalkPath(hurst=hurst, increments=increments, sums=sums)


@dataclasses.dataclass(frozen=True)
class FbmGrid:
    """Fractional Brownian motion sampled on the grid j/m, j = 0..floor(m*T).

    Marginals are exact: Var(values[j]) = (j/m)**(2*hurst).
    """

    hurst: float
    m: int
    horizon: float
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.m


def sample_fbm(m: int, horizon: float, hurst: float, rng: np.random.Generator) -> FbmGrid:
    """Draw fractional Brownian motion on {0, 1/m, ..., floor(m*T)/m}.

    Rescales an exact fractional Gaussian walk by m**(-hurst); the grid
    must contain at least one step, i.e. m * horizon >= 1.
    """
    if m < 2:
        raise UsageError(f"m must be at least 2, got {m}")
    if horizon <= 0.0:
        raise UsageError(f"horizon must be positive, got {horizon}")
    steps = int(np.floor(m * horizon + 1e-9))
    if steps < 1:
        raise UsageError(f"horizon {horizon} shorter than one grid step 1/{m}")
    walk = sample_walk(steps, hurst, rng)
    values = walk.sums * float(m) ** (-hurst)
    return FbmGrid(hurst=hurst, m=m, horizon=float(horizon), values=values)
