"""Monte Carlo oracle for the local-time fractional stable motion.

The limit of the reward schema is, conditionally on a fractional
Brownian motion B with Hurst index H, a stable integral of the local
time of B.  Nothing here has a closed form, so the oracle pipeline is

    fBm grid  ->  box-count local time L_t(x)  ->  either
      (a) the beta-energy  X = int |sum_j theta_j L_{t_j}(x)|**beta dx,
          whose Monte Carlo mean fixes the limit characteristic
          function exp(-sigma**beta |u|**beta E[X])  at level t = 1, or
      (b) one draw  Delta(t) = int L_t(x) dW(x)  against an independent
          beta-stable noise, and normalized sums of independent copies
          of Delta, which converge to the same limit process.

Local time is estimated by occupation counts over a uniform spatial
grid spanning the path's range, with one guard bin on each side:
bin width h = range / (bins - 2).  The estimator conserves occupation
mass exactly: sum_x L_t(x) * h = (floor(m t) + 1) / m.

Paths are drawn, box-counted and integrated in blocks of rows: each
row's bins are offset onto their own slots so that one ``bincount`` per
time counts the whole block, and the noises of a block go through one
stable transform.  Each row gets the same bytes as one path at a time;
``fbm_local_time`` and ``sample_local_time_integral`` are the one-row
case.  The oracle maps fixed blocks of replicate indices through
``streams.replicate_blocks``, so its output does not depend on the
worker count.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from .errors import UsageError
from .fgn import FbmGrid, _fbm_blocks
from .model import ModelParams, check_beta, check_error_replicates, check_sizes, check_times, grid_floor
from .stable import StableParams, _stable_rows
from .streams import ROLE_NOISE, ROLE_ORACLE, ROLE_WALK, SeededRngs, replicate_blocks, stream_words

# the walk and noise roles of one copy's substreams
_ROLES = np.array([ROLE_WALK, ROLE_NOISE], dtype=np.uint64)

__all__ = [
    "LocalTimeGrid",
    "fbm_local_time",
    "local_time_power_integral",
    "power_integral_draws",
    "estimate_power_integral_mean",
    "limit_cf_target",
    "sample_local_time_integral",
    "sample_stable_motion",
]


@dataclasses.dataclass(frozen=True)
class LocalTimeGrid:
    """Box-count local times of one path at several times.

    ``densities[j, b]`` estimates L_{times[j]} on spatial bin b; bins
    cover ``origin + b*h`` to ``origin + (b+1)*h``.  ``degenerate``
    flags a constant path, where the spatial range collapses and a unit
    floor width is substituted for h.
    """

    times: np.ndarray
    origin: float
    bin_width: float
    densities: np.ndarray
    degenerate: bool

    @property
    def bins(self) -> int:
        return self.densities.shape[1]


def _box_counts(values: np.ndarray, m: int, times: np.ndarray, bins: int) -> list[LocalTimeGrid]:
    """Box-count local times of each row of a (rows, steps + 1) block of grid paths.

    Row r's counts sit on the slots [r*bins, (r+1)*bins), so one
    ``bincount`` per time counts every row; each row gets exactly the
    grid that it gets alone.  ``values`` is used as scratch and
    overwritten; ``times`` must already be checked.
    """
    rows = len(values)
    ends = grid_floor(m * times)
    values = values[:, : ends[-1] + 1]
    low = values.min(axis=1)
    span = values.max(axis=1) - low
    degenerate = span <= 0.0
    # guard bin on each side keeps boundary hits strictly interior
    width = np.where(degenerate, 1.0, span / (bins - 2))
    origin = low - width
    # bin index floor((x - origin) / width), computed in place
    values -= origin[:, np.newaxis]
    values /= width[:, np.newaxis]
    idx = np.floor(values, out=values).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    idx += np.arange(0, rows * bins, bins)[:, np.newaxis]
    densities = np.empty((rows, times.size, bins), dtype=np.float64)
    counts = np.zeros(rows * bins, dtype=np.int64)
    per_row = counts.reshape(rows, bins)
    mass = (m * width)[:, np.newaxis]
    prev = -1
    for j, end in enumerate(ends):
        counts += np.bincount(idx[:, prev + 1 : end + 1].ravel(), minlength=rows * bins)
        prev = int(end)
        np.divide(per_row, mass, out=densities[:, j])
    return [
        LocalTimeGrid(times=times, origin=float(o), bin_width=float(w), densities=d, degenerate=bool(g))
        for o, w, d, g in zip(origin, width, densities, degenerate)
    ]


def fbm_local_time(path: FbmGrid, times: Sequence[float], bins: int) -> LocalTimeGrid:
    """Estimate the local time field of a gridded path by box counting."""
    check_sizes(bins=bins)
    times = np.asarray(check_times(times, path.horizon))
    return _box_counts(path.values[np.newaxis].copy(), path.m, times, bins)[0]


def local_time_power_integral(grid: LocalTimeGrid, thetas: Sequence[float], beta: float) -> float:
    """Beta-energy int |sum_j theta_j L_{t_j}(x)|**beta dx of a grid."""
    check_beta(beta)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (grid.densities.shape[0],):
        raise UsageError("need one theta per grid time")
    combined = thetas @ grid.densities
    return float(np.sum(np.abs(combined) ** beta) * grid.bin_width)


def _power_integral_block(
    indices: np.ndarray,
    hurst: float,
    beta: float,
    thetas: tuple[float, ...],
    times: tuple[float, ...],
    m: int,
    bins: int,
    seed: int,
) -> np.ndarray:
    paths = SeededRngs(stream_words(seed, indices, ROLE_ORACLE))
    checked = np.asarray(times, dtype=np.float64)
    draws = []
    for values in _fbm_blocks(m, times[-1], hurst, paths):
        for grid in _box_counts(values, m, checked, bins):
            draws.append(local_time_power_integral(grid, thetas, beta))
    return np.asarray(draws, dtype=np.float64)


def power_integral_draws(
    hurst: float,
    beta: float,
    thetas: Sequence[float],
    times: Sequence[float],
    m: int,
    bins: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """Independent beta-energy draws, one per fBm path.

    Replicate i draws its path from the substream
    ``(seed, i, oracle-role)``, so results are reproducible and
    worker-count independent.  Replicates are mapped in fixed blocks by
    ``replicate_blocks``, and each block's paths are drawn and
    box-counted a block of rows at a time.
    """
    check_sizes(bins=bins)
    draw = functools.partial(
        _power_integral_block,
        hurst=hurst,
        beta=beta,
        thetas=tuple(float(x) for x in thetas),
        times=check_times(times),
        m=m,
        bins=bins,
        seed=seed,
    )
    return replicate_blocks(draw, replicates, jobs=jobs)


def estimate_power_integral_mean(
    hurst: float,
    beta: float,
    thetas: Sequence[float],
    times: Sequence[float],
    m: int,
    bins: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the beta-energy of fBm.

    This is the scalar that parametrizes the limit characteristic
    function at one time slice.
    """
    check_error_replicates("replicates", replicates)
    values = power_integral_draws(hurst, beta, thetas, times, m, bins, replicates, seed, jobs=jobs)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(replicates))


def limit_cf_target(u, model: ModelParams, energy_mean: float, energy_se: float = 0.0):
    """Limit characteristic function exp(-sigma**beta |u|**beta E) with error.

    ``energy_mean`` is an estimate of the beta-energy mean E (from
    ``estimate_power_integral_mean``); the returned ``target_se``
    propagates its standard error through the exponential by the delta
    method.  Both arrays align with ``u``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    base = model.sigma**model.beta * np.abs(u) ** model.beta
    target = np.exp(-base * energy_mean)
    return target, target * base * energy_se


def _local_time_integrals(
    grids: Sequence[LocalTimeGrid], noise: StableParams, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Delta(t) of each grid against a noise drawn from its own generator, one row per grid."""
    draws = _stable_rows(noise, rngs, grids[0].bins)
    out = np.empty((len(grids), grids[0].times.size), dtype=np.float64)
    for row, grid, bin_draws in zip(out, grids, draws):
        row[...] = grid.densities @ (grid.bin_width ** (1.0 / noise.beta) * bin_draws)
        row[grid.times == 0.0] = 0.0
    return out


def sample_local_time_integral(
    path: FbmGrid,
    times: Sequence[float],
    bins: int,
    noise: StableParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw of Delta(t) = int L_t(x) dW(x) for all requested times.

    W is an independent beta-stable noise with scale ``noise.sigma``;
    a bin of width h contributes h**(1/beta) times a standard draw, the
    exact scaling of a stable measure with Lebesgue control.  Entries
    with t == 0 are exactly zero since L_0 has no mass.
    """
    return _local_time_integrals([fbm_local_time(path, times, bins)], noise, [rng])[0]


def sample_stable_motion(
    copies: int,
    times: Sequence[float],
    model: ModelParams,
    m: int,
    bins: int,
    seed: int,
) -> np.ndarray:
    """One draw of the normalized superposition of local-time integrals.

        copies**(-1/beta) * sum_{i<copies} Delta_i(t),

    with each Delta_i built from an independent fBm path and noise.
    This converges in law, as copies grows, to the local-time
    fractional stable motion that the reward schema also targets;
    copies = 1 is a single Delta draw.  The copies' paths are drawn,
    box-counted and integrated a block of rows at a time, each copy
    from its own streams, with the same values as one copy at a time.
    """
    check_sizes(copies=copies, bins=bins)
    times = np.asarray(check_times(times))
    noise = StableParams(beta=model.beta, sigma=model.sigma)
    rows = np.empty((copies, times.size), dtype=np.float64)
    words = stream_words(seed, np.arange(copies, dtype=np.uint64)[:, np.newaxis], _ROLES)
    walks, noises = SeededRngs(words[:, 0]), SeededRngs(words[:, 1])
    start = 0
    for values in _fbm_blocks(m, float(times[-1]), model.hurst, walks):
        stop = start + len(values)
        grids = _box_counts(values, m, times, bins)
        rows[start:stop] = _local_time_integrals(grids, noise, noises[start:stop])
        start = stop
    return float(copies) ** (-1.0 / model.beta) * rows.sum(axis=0)
