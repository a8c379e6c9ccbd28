"""Monte Carlo oracle for the local-time fractional stable motion.

The limit of the reward schema is, conditionally on a fractional
Brownian motion B with Hurst index H, a stable integral of the local
time of B.  Below beta = 2 its energy has a closed form only at
H = 1/2, so the oracle pipeline is

    fBm grid  ->  box-count local time L_t(x)  ->  either
      (a) the beta-energy  X = int |sum_j theta_j L_{t_j}(x)|**beta dx,
          whose Monte Carlo mean fixes the limit characteristic
          function exp(-sigma**beta |u|**beta E[X])  at level t = 1, or
      (b) one draw  Delta(t) = int L_t(x) dW(x)  against an independent
          beta-stable noise, and normalized sums of independent copies
          of Delta, which converge to the same limit process.

At beta = 2 the energy mean (a) is exact at every H: B_u - B_v has
density (2 pi)**(-1/2) |u - v|**(-H) at 0, so

    E int L_s(x) L_t(x) dx = (2 pi)**(-1/2) [g(s) + g(t) - g(|t - s|)],
    g(x) = x**(2 - H) / ((1 - H)(2 - H)),

which ``exact_energy`` sums over pairs of times.
``estimate_power_integral_mean`` returns it there with standard error
0 and draws no path.  At H = 1/2 ``brownian_energy`` gives the mean at
every beta, for theta with one nonzero entry or two opposite ones.
``power_integral_draws`` stays the raw box count at every beta, so the
box count can be checked against both.  ``_oracle_args`` is the one
check of the oracle's inputs: the estimate, the draws and the
experiments that compare against them run it before they draw anything.

Local time is estimated by occupation counts over a uniform spatial
grid spanning the path's range, with one more bin on each side: bin
width h = range / (bins - 2), origin min - h.  These outer bins do not
keep the extremes interior: the minimum and maximum fall exactly on the
edge between an outer bin and its neighbour, and rounding picks the
side, so most paths put a point in an outer bin (ROADMAP item 1 holds
the mid-bin fix, which changes every box-count byte).  The estimator
conserves occupation mass exactly: sum_x L_t(x) * h = (floor(m t) + 1) / m.

Paths are drawn, box-counted and integrated in blocks of rows.
``_box_counts`` returns a block's arrays: bin origins and widths of
shape (rows,), and densities of shape (rows, times, bins), counted by one
``bincount`` per time.  The energies (a) of a block are one array
expression, and so are its integrals (b), whose noises go through one
stable transform.  Each row gets the bytes it gets alone:
``fbm_local_time``, ``local_time_power_integral`` and
``sample_local_time_integral`` are the one-row case.  ``_mean_se`` is
the one estimate of the energy's mean and standard error, and
``experiments.limit_cf_check`` the one comparison of a sample against
the limit CF that it fixes.  ``_motion_rows`` draws the copies of a
block of stable-motion draws, the twin of the schema's copy rows, and
``sample_stable_motion`` is its one-seed case; ``_motion_args`` checks
its inputs, which a pooled driver does before any pool starts.  The
oracle maps fixed blocks of replicate indices through
``streams.replicate_blocks``, so its output does not depend on the
worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from .errors import NumericalError, UsageError
from .fgn import FbmGrid, _fbm_blocks, _grid_steps
from .model import (
    ModelParams, check_beta, check_error_replicates, check_finite, check_hurst, check_sizes, check_times,
    grid_floor,
)
from .schema import superpose
from .stable import StableParams, _stable_rows
from .streams import ROLE_NOISE, ROLE_ORACLE, SeededRngs, _copy_words, replicate_blocks, stream_words

__all__ = [
    "LocalTimeGrid",
    "fbm_local_time",
    "local_time_power_integral",
    "power_integral_draws",
    "exact_energy",
    "brownian_energy",
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


def _box_counts(values: np.ndarray, m: int, times: np.ndarray, bins: int):
    """Box-count local times of each row of a (rows, steps + 1) block of grid paths.

    Returns the block's ``origin``, ``width`` and ``degenerate`` flags, of
    shape (rows,), and its ``densities``, of shape (rows, len(times), bins),
    the fields of one ``LocalTimeGrid`` per row.  Row r's counts sit on the
    slots [r*bins, (r+1)*bins), so one ``bincount`` per time counts every
    row; each row gets exactly the grid that it gets alone.  ``values`` is
    used as scratch and overwritten; ``times`` must already be checked.
    """
    rows = len(values)
    ends = grid_floor(m * times)
    values = values[:, : ends[-1] + 1]
    low = values.min(axis=1)
    span = values.max(axis=1) - low
    degenerate = span <= 0.0
    # one more bin on each side; the extremes land on its inner edge, where
    # rounding picks the side, so they are not kept interior (ROADMAP item 1)
    width = np.where(degenerate, 1.0, span / (bins - 2))
    origin = low - width
    # bin index floor((x - origin) / width), computed in place and cast to
    # int64 in the same memory a row at a time: a one-row cast in place
    # needs no temporary, where a whole-block cast makes a block-sized one
    values -= origin[:, np.newaxis]
    values /= width[:, np.newaxis]
    np.floor(values, out=values)
    for row in values:
        np.copyto(row.view(np.int64), row, casting="unsafe")
    idx = values.view(np.int64)
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
    return origin, width, degenerate, densities


def fbm_local_time(path: FbmGrid, times: Sequence[float], bins: int) -> LocalTimeGrid:
    """Estimate the local time field of a gridded path by box counting."""
    check_sizes(bins=bins)
    times = np.asarray(check_times(times, path.horizon))
    origin, width, degenerate, densities = _box_counts(path.values[np.newaxis].copy(), path.m, times, bins)
    return LocalTimeGrid(
        times=times, origin=float(origin[0]), bin_width=float(width[0]), densities=densities[0],
        degenerate=bool(degenerate[0]),
    )


def local_time_power_integral(grid: LocalTimeGrid, thetas: Sequence[float], beta: float) -> float:
    """Beta-energy int |sum_j theta_j L_{t_j}(x)|**beta dx of a grid."""
    check_beta(beta)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.shape != (grid.densities.shape[0],):
        raise UsageError("need one theta per grid time")
    combined = thetas @ grid.densities
    return float(np.sum(np.abs(combined) ** beta) * grid.bin_width)


def _power_integral_block(
    indices: np.ndarray, hurst: float, beta: float, thetas: tuple, times: tuple, m: int, bins: int, seed: int
) -> np.ndarray:
    """The beta-energy of each replicate's oracle path, a block of rows at a time."""
    paths = SeededRngs(stream_words(seed, indices, ROLE_ORACLE))
    checked, weights = np.asarray(times), np.asarray(thetas)
    draws = []
    for values in _fbm_blocks(m, times[-1], hurst, paths):
        _, width, _, densities = _box_counts(values, m, checked, bins)
        draws.append(np.sum(np.abs(weights @ densities) ** beta, axis=-1) * width)
    return np.concatenate(draws)


def _energy_args(thetas: Sequence[float], times: Sequence[float]) -> tuple[tuple, tuple]:
    """Checked (thetas, times) of an energy functional, as tuples of floats."""
    thetas, times = tuple(float(x) for x in thetas), check_times(times)
    if len(thetas) != len(times):
        raise UsageError("need one theta per grid time")
    return thetas, times


def _oracle_args(
    hurst: float, beta: float, thetas: Sequence[float], times: Sequence[float], m: int, bins: int,
    replicates: int, jobs: int, mean: bool = False,
) -> tuple[tuple, tuple]:
    """Checked (thetas, times) of an oracle call, as tuples of floats.

    The one check of the oracle's inputs, in the order in which the draws
    would meet them; with ``mean``, the replicates must first give a
    standard error.
    """
    if mean:
        check_error_replicates("replicates", replicates)
    check_sizes(bins=bins)
    check_beta(beta)
    thetas, times = _energy_args(thetas, times)
    check_sizes(replicates=replicates, jobs=jobs)
    _grid_steps(m, times[-1])
    check_hurst(hurst)
    return thetas, times


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
    box-counted a block of rows at a time.  These are the raw box counts
    at every beta, beta = 2 included.
    """
    thetas, times = _oracle_args(hurst, beta, thetas, times, m, bins, replicates, jobs)
    draw = functools.partial(
        _power_integral_block, hurst=hurst, beta=beta, thetas=thetas, times=times, m=m, bins=bins, seed=seed
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
    """Mean and standard error of the beta-energy of fBm.

    This is the scalar that parametrizes the limit characteristic
    function at one time slice.  Below beta = 2 it is the Monte Carlo
    mean of ``power_integral_draws`` and its standard error.  At
    beta = 2 it is ``(exact_energy(hurst, thetas, times), 0.0)`` and no
    path is drawn; bad input fails alike at every beta.
    """
    thetas, times = _oracle_args(hurst, beta, thetas, times, m, bins, replicates, jobs, mean=True)
    if beta == 2.0:
        return exact_energy(hurst, thetas, times), 0.0
    return _mean_se(power_integral_draws(hurst, beta, thetas, times, m, bins, replicates, seed, jobs=jobs))


def exact_energy(hurst: float, thetas: Sequence[float], times: Sequence[float]) -> float:
    """The exact beta = 2 energy mean E int (sum_j theta_j L_{t_j}(x))**2 dx of fBm.

    (2 pi)**(-1/2) sum_{j,k} theta_j theta_k [g(t_j) + g(t_k) - g(|t_j - t_k|)]
    with g(x) = x**(2 - H) / ((1 - H)(2 - H)), in O(k**2) for k times;
    8 / (3 sqrt(2 pi)) at H = 1/2, theta = (1,) and t = 1.  A non-finite
    theta, or an energy that overflows, raises ``NumericalError``.
    """
    check_hurst(hurst)
    weights, times = map(np.asarray, _energy_args(thetas, times))
    exponent = 2.0 - hurst
    g = lambda x: x**exponent / ((1.0 - hurst) * exponent)
    ends = g(times)
    pairs = ends[:, np.newaxis] + ends - g(np.abs(times[:, np.newaxis] - times))
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(weights @ pairs @ weights) / math.sqrt(2.0 * math.pi)
    if not math.isfinite(energy):
        raise NumericalError(f"non-finite beta = 2 energy for thetas {weights.tolist()}")
    return energy


def brownian_energy(beta: float, thetas: Sequence[float], times: Sequence[float]) -> float:
    """The exact energy E int |sum_j theta_j L_{t_j}(x)|**beta dx of Brownian motion, H = 1/2.

    L_tau(x) has the law of (|B_tau| - |x|)+ (Levy's theorem and the
    strong Markov property at the hitting time of x), so

        E int L_tau(x)**beta dx
            = 2**((beta + 3)/2) Gamma(beta/2 + 1) tau**((beta + 1)/2) / ((beta + 1) sqrt(pi)).

    A theta with one nonzero entry a, at time t, has |a|**beta times this
    at tau = t; one with two nonzero entries a and -a, at times s < t,
    has it at tau = t - s, since L_t - L_s is the local time of the path
    after s.  Any other theta raises ``UsageError``.  At beta = 2 this is
    ``exact_energy(0.5, thetas, times)``.
    """
    check_beta(beta)
    thetas, times = _energy_args(check_finite("thetas", thetas), times)
    terms = [(theta, t) for theta, t in zip(thetas, times) if theta != 0.0]
    if len(terms) == 1:
        [(a, tau)] = terms
    elif len(terms) == 2 and terms[0][0] == -terms[1][0]:
        a, tau = terms[0][0], terms[1][1] - terms[0][1]
    else:
        raise UsageError(f"need one nonzero theta or two opposite ones, got {list(thetas)}")
    try:
        scale = abs(a) ** beta * 2.0 ** ((beta + 3.0) / 2.0) * math.gamma(beta / 2.0 + 1.0)
    except OverflowError:
        raise NumericalError(f"non-finite beta = {beta} energy for thetas {list(thetas)}") from None
    return scale * tau ** ((beta + 1.0) / 2.0) / ((beta + 1.0) * math.sqrt(math.pi))


def _mean_se(draws: np.ndarray) -> tuple[float, float]:
    """Mean of the energy draws and its standard error."""
    return float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(len(draws)))


def limit_cf_target(u, model: ModelParams, energy_mean: float, energy_se: float = 0.0):
    """Limit characteristic function exp(-sigma**beta |u|**beta E) with error.

    ``energy_mean`` is the beta-energy mean E from
    ``estimate_power_integral_mean``: the closed form at beta = 2, with
    ``energy_se`` 0 and so a ``target_se`` of 0, and a Monte Carlo
    estimate below.  ``target_se`` propagates ``energy_se`` through the
    exponential by the delta method.  Both arrays align with ``u``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    base = model.sigma**model.beta * np.abs(u) ** model.beta
    target = np.exp(-base * energy_mean)
    return target, target * base * energy_se


def _local_time_integrals(
    width: np.ndarray, densities: np.ndarray, times: np.ndarray, noise: StableParams, rngs: Sequence
) -> np.ndarray:
    """Delta(t) of each row of a box-count block against a noise drawn from its own generator."""
    draws = _stable_rows(noise, rngs, densities.shape[-1])
    # each row's h**(1/beta) is a Python float power, as a path alone gets it
    draws *= np.asarray([h ** (1.0 / noise.beta) for h in width.tolist()])[:, np.newaxis]
    out = np.matmul(densities, draws[..., np.newaxis])[..., 0]
    out[:, times == 0.0] = 0.0
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
    grid = fbm_local_time(path, times, bins)
    width, densities = np.array([grid.bin_width]), grid.densities[np.newaxis]
    return _local_time_integrals(width, densities, grid.times, noise, [rng])[0]


def _motion_args(copies: int, times: Sequence[float], m: int, bins: int) -> tuple[float, ...]:
    """Checked times of a stable-motion draw, in the order in which its paths would meet the checks."""
    check_sizes(copies=copies, bins=bins)
    times = check_times(times)
    _grid_steps(m, times[-1])
    return times


def _motion_rows(
    seeds: Sequence[int], copies: int, times: Sequence[float], model: ModelParams, m: int, bins: int
) -> np.ndarray:
    """Delta(t) of ``copies`` copies of each draw seed, shape (len(seeds), copies, len(times)).

    The twin of ``schema._copy_rows``: the walk and noise streams of every
    copy of every seed are derived in one ``_copy_words`` pass, and the
    paths of all of them are drawn, box-counted and integrated a block of
    rows at a time, each row with the values it has alone.
    """
    times = np.asarray(_motion_args(copies, times, m, bins))
    noise = StableParams(beta=model.beta, sigma=model.sigma)
    words = _copy_words(seeds, range(copies), ROLE_NOISE)
    walks, noises = SeededRngs(words[:, 0]), SeededRngs(words[:, 1])
    rows = np.empty((len(words), times.size), dtype=np.float64)
    start = 0
    for values in _fbm_blocks(m, float(times[-1]), model.hurst, walks):
        stop = start + len(values)
        _, width, _, densities = _box_counts(values, m, times, bins)
        rows[start:stop] = _local_time_integrals(width, densities, times, noise, noises[start:stop])
        start = stop
    return rows.reshape(len(seeds), copies, times.size)


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
    copies = 1 is a single Delta draw.  It is the one-seed case of
    ``_motion_rows``, superposed as the schema superposes its copies.
    """
    return superpose(_motion_rows([seed], copies, times, model, m, bins)[0], model.beta)
