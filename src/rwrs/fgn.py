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
runs once per (n, H), and only the scales derived from eigenvalues that
passed it are cached.

Many paths are drawn in blocks of sixteen rows: each row takes its
normals from its own generator, the weights of the whole block are built
in place, and one multi-row inverse FFT transforms them, which costs
markedly less per row than one FFT per path.  A block's fixed cost, its
FFT call and the few dozen numpy calls downstream that take the block
whole, is spread over its rows; the block's workspace, 4N + 2 floats
per row, is what a larger block costs.  Every element sees the same
arithmetic as when its path is drawn alone, so a row is byte for byte
that path; ``sample_fgn``, ``sample_walk`` and ``sample_fbm`` are the
one-row case.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericalError, UsageError
from .model import check_hurst, check_sizes, grid_floor

__all__ = ["fgn_covariance", "sample_fgn", "sample_walk", "WalkPath", "sample_fbm", "FbmGrid"]

# relative slack for calling an embedding eigenvalue negative
_EIG_TOL = 1e-9
# paths drawn together: one multi-row inverse FFT transforms a block.  A
# block's fixed cost falls per row as it grows, and its workspace grows
_ROW_BLOCK = 16


def fgn_covariance(lag, hurst: float) -> np.ndarray:
    """Covariance r(k) of fractional Gaussian noise at integer lags."""
    check_hurst(hurst)
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


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the order-2N circulant, N = _fast_length(n)."""
    size = _fast_length(n)
    row = fgn_covariance(np.arange(size + 1), hurst)
    circ = np.concatenate([row, row[size - 1 : 0 : -1]])
    return np.fft.fft(circ).real


@functools.lru_cache(maxsize=8)
def _spectrum(n: int, hurst: float) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(eig / order) of the embedding and its [1, N) slice over sqrt(2), checked once per (n, H)."""
    eig = _embedding_eigenvalues(n, hurst)
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


def _fgn_blocks(
    n: int, hurst: float, rngs: Sequence[np.random.Generator], walk: bool = False
) -> Iterator[np.ndarray]:
    """Increments of one fGn path per generator, drawn a block of rows at a time.

    Yields (rows, n) arrays of at most ``_ROW_BLOCK`` rows, in the order
    of ``rngs``; with ``walk``, (rows, n + 1) arrays of the partial sums
    S_0 = 0, ..., S_n instead, the one place a walk is summed.  Each
    row's normals come from that row's own generator, in the order
    ``sample_fgn`` draws them, and every element sees the same
    arithmetic, so each row is byte for byte the path its generator
    gives alone.  A yielded block is a view of a workspace that the next
    block overwrites.
    """
    check_hurst(hurst)
    check_sizes(n=n)
    rows = max(min(len(rngs), _ROW_BLOCK), 1)
    # at H = 1/2 the increments are independent, so a row's n normals are
    # its increments and the spectral step is skipped
    spectral = hurst != 0.5
    if spectral:
        scale, half = _spectrum(n, hurst)
    order = len(scale) if spectral else n
    size = order // 2
    # one workspace per call holds the block's normals, then its weights,
    # and the partial sums once the weights are spent: fresh temporaries
    # of the embedding's size cost page faults on every block
    workspace = np.empty(rows * (2 * order + 2), dtype=np.float64)
    normals = workspace[: rows * order].reshape(rows, order)
    spare = workspace[rows * order :]
    if spectral:
        # one complex weight per circulant frequency; the weights are
        # conjugate symmetric, so their transform is real (Dieker 2004,
        # section 2.1.3) and the half up to N determines it
        weights = spare.view(np.complex128).reshape(rows, size + 1)
    for start in range(0, len(rngs), rows):
        block = rngs[start : start + rows]
        g = normals[: len(block)]
        # one draw per row: at H != 1/2, 2N normals, the real parts and
        # then the imaginary
        for row, rng in zip(g, block):
            rng.standard_normal(out=row)
        if spectral:
            w = weights[: len(block)]
            # the half-spectrum is stored conjugated: the unscaled inverse real
            # FFT of the conjugated half is the forward FFT of the whole weight
            # vector (np.fft.hfft, without the conjugated copy it makes)
            w[:, 0] = scale[0] * g[:, 0]
            np.multiply(half, g[:, 1:size], out=w.real[:, 1:size])
            np.multiply(half, g[:, size + 1 :], out=w.imag[:, 1:size])
            np.negative(w.imag[:, 1:size], out=w.imag[:, 1:size])
            w[:, size] = scale[size] * g[:, size]
            # the normals are spent, so the transform overwrites them; the
            # weights are spent after it, so the partial sums overwrite those
            np.fft.irfft(w, order, norm="forward", out=g)
        if not walk:
            yield g[:, :n]
            continue
        s = spare[: len(block) * (n + 1)].reshape(len(block), n + 1)
        s[:, 0] = 0.0
        np.cumsum(g[:, :n], axis=1, out=s[:, 1:])
        yield s


def sample_fgn(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Draw n fractional Gaussian noise increments with unit lattice step."""
    # the copy lets the one-row workspace go
    return next(_fgn_blocks(n, hurst, [rng]))[0].copy()


@dataclasses.dataclass(frozen=True)
class WalkPath:
    """The positions S_0 = 0, S_1, ..., S_n of a walk; ``sums`` has length n + 1."""

    hurst: float
    sums: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sums) - 1


def _walk_paths(n: int, hurst: float, rngs: Sequence[np.random.Generator]) -> Iterator[WalkPath]:
    """The length-n walk of each generator in turn, its fGn drawn a block of rows at a time.

    Each walk is byte for byte the one its generator gives alone.
    """
    for block in _fgn_blocks(n, hurst, rngs, walk=True):
        for sums in block:
            yield WalkPath(hurst=hurst, sums=sums.copy())


def sample_walk(n: int, hurst: float, rng: np.random.Generator) -> WalkPath:
    """Draw a length-n fractional Gaussian walk, S_0 = 0 included."""
    return next(_walk_paths(n, hurst, [rng]))


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


def _grid_steps(m: int, horizon: float) -> int:
    check_sizes(m=m)
    steps = grid_floor(m * horizon) if math.isfinite(m * horizon) else 0
    if steps < 1:
        raise UsageError(f"horizon {horizon} is not finite or shorter than one grid step 1/{m}")
    return steps


def _fbm_blocks(
    m: int, horizon: float, hurst: float, rngs: Sequence[np.random.Generator]
) -> Iterator[np.ndarray]:
    """Values of one fBm grid path per generator, a block of rows at a time.

    Yields (rows, floor(m*T) + 1) arrays, each row byte for byte the
    ``values`` that ``sample_fbm`` draws from its generator; a yielded
    block is overwritten by the next.
    """
    steps = _grid_steps(m, horizon)
    scale = float(m) ** (-hurst)
    for sums in _fgn_blocks(steps, hurst, rngs, walk=True):
        sums *= scale
        yield sums


def sample_fbm(m: int, horizon: float, hurst: float, rng: np.random.Generator) -> FbmGrid:
    """Draw fractional Brownian motion on {0, 1/m, ..., floor(m*T)/m}.

    Rescales an exact fractional Gaussian walk by m**(-hurst); the grid
    must contain at least one step, i.e. m * horizon >= 1.
    """
    values = next(_fbm_blocks(m, horizon, hurst, [rng]))[0].copy()
    return FbmGrid(hurst=hurst, m=m, horizon=float(horizon), values=values)
