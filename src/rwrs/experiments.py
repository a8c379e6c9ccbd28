"""Replicate-level Monte Carlo drivers shared by the CLI and the tests.

Every experiment maps a module-level worker over fixed blocks of
replicate indices via ``streams.replicate_blocks``, with the stream
layout set out there, and reduces the per-replicate rows in index
order, so every experiment is a pure function of (config, seed)
regardless of worker count.  Each checks every input its workers would
meet before it maps them, so a bad input starts no process pool.  Monte
Carlo means rely on numpy's pairwise summation, which keeps rounding
error logarithmic in the number of heavy-tailed terms.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Sequence

import numpy as np

from .fgn import WalkPath, _walk_paths
from .local_times import (
    SITE_CEIL,
    check_convention,
    local_time_functional,
    local_time_profiles,
    max_local_time,
    range_count,
    self_intersections,
)
from .limit import (
    _mean_se, _motion_args, _motion_rows, _oracle_args, estimate_power_integral_mean, limit_cf_target,
    power_integral_draws,
)
from .model import (
    ModelParams, SchemaConfig, check_error_replicates, check_hurst, check_sizes, delta_exponent, grid_floor,
)
from .schema import _copy_rows, superpose
from .stable import SceneryKind, check_scenery_kind
from .stats import CfComparison, EcfEstimate, SlopeFit, cf_compare, ecf, ks_distance, slope_fit
from .streams import ROLE_WALK, SeededRngs, replicate_blocks, stream_words

__all__ = [
    "WalkVarianceResult",
    "walk_variance",
    "schema_copy_samples",
    "schema_samples",
    "stable_motion_samples",
    "ScalingResult",
    "scaling_experiment",
    "FunctionalResult",
    "functional_experiment",
    "EcfCheckResult",
    "limit_cf_check",
    "schema_ecf_check",
]

# grids for the scaling experiment: slopes are fitted over the dyadic
# window 2**8..2**13, the rescaled-maximum medians are tracked along the
# sparser ladder up to 2**14
SLOPE_GRID = tuple(2**k for k in range(8, 14))
MEDIAN_GRID = (2**8, 2**10, 2**12, 2**14)

# acceptance window of the occupation exponents: each fitted slope within
# 0.1 of its target
SLOPE_TOLERANCE = 0.1


def _walk_block(indices: np.ndarray, statistic: Callable, seed: int, steps: int, hurst: float, **params):
    """``statistic(walk, **params)`` of the walk of each replicate in ``indices``, one row each.

    Replicate r's walk of ``steps`` steps is drawn from the stream (seed,
    r, walk role).
    """
    walks = _walk_paths(steps, hurst, SeededRngs(stream_words(seed, indices, ROLE_WALK)))
    return np.asarray([statistic(walk, **params) for walk in walks], dtype=np.float64)


# --- walk normalization -------------------------------------------------


def _final_position(walk: WalkPath) -> float:
    return float(walk.sums[-1])


@dataclasses.dataclass(frozen=True)
class WalkVarianceResult:
    n: int
    hurst: float
    replicates: int
    finals: np.ndarray
    variance: float
    ratio: float
    se_ratio: float


def walk_variance(n: int, hurst: float, replicates: int, seed: int, jobs: int = 1) -> WalkVarianceResult:
    """Sample variance of S_n against the exact value n**(2*hurst)."""
    check_error_replicates("replicates", replicates)
    check_hurst(hurst)
    check_sizes(n=n)
    worker = functools.partial(_walk_block, statistic=_final_position, seed=seed, steps=n, hurst=hurst)
    finals = replicate_blocks(worker, replicates, jobs)
    variance = float(finals.var(ddof=1))
    ratio = variance / float(n) ** (2.0 * hurst)
    # Gaussian sample variance has relative SD sqrt(2/(M-1))
    se_ratio = ratio * float(np.sqrt(2.0 / (replicates - 1)))
    return WalkVarianceResult(
        n=n, hurst=hurst, replicates=replicates, finals=finals,
        variance=variance, ratio=ratio, se_ratio=se_ratio,
    )


# --- trajectory samples -------------------------------------------------


def _keyed_block(indices: np.ndarray, seed: int, rows: Callable) -> np.ndarray:
    """``rows(keys)`` of a block of replicates: replicate r draws from the seed stream_key(seed, r)."""
    return rows(stream_words(seed, indices)[:, 0])


def schema_copy_samples(
    model: ModelParams,
    n: int,
    copies: int,
    times: Sequence[float],
    replicates: int,
    seed: int,
    jobs: int = 1,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
    convention: str = SITE_CEIL,
) -> np.ndarray:
    """The copies' D_n behind each schema draw, shape (M, copies, k).

    ``superpose`` turns them into ``schema_samples``; its first c copies
    give the c-copy schema of the same replicates.
    """
    config = SchemaConfig(n=n, copies=copies, times=tuple(times))
    check_convention(convention)
    check_scenery_kind(kind, model.beta)
    rows = functools.partial(
        _copy_rows, copies=range(copies), config=config, model=model, kind=kind,
        scenery_for_copy=None, convention=convention,
    )
    return replicate_blocks(functools.partial(_keyed_block, seed=seed, rows=rows), replicates, jobs)


def schema_samples(
    model: ModelParams,
    n: int,
    copies: int,
    times: Sequence[float],
    replicates: int,
    seed: int,
    jobs: int = 1,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
    convention: str = SITE_CEIL,
) -> np.ndarray:
    """Independent draws of the superposed schema, shape (M, k).

    Replicate r is ``sample_reward_schema`` seeded by ``stream_key(seed,
    r)``, the ``superpose`` of its ``schema_copy_samples`` rows;
    ``copies = 1`` gives draws of the rescaled reward process D_n.
    """
    rows = schema_copy_samples(model, n, copies, times, replicates, seed, jobs, kind, convention)
    return superpose(rows, model.beta)


def stable_motion_samples(
    model: ModelParams,
    copies: int,
    times: Sequence[float],
    m: int,
    bins: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
) -> np.ndarray:
    """Independent draws of the limit-side superposition, shape (M, k).

    Replicate r is ``sample_stable_motion`` seeded by ``stream_key(seed,
    r)``; ``copies = 1`` gives raw local-time stable integrals.
    """
    times = _motion_args(copies, times, m, bins)
    rows = functools.partial(_motion_rows, copies=copies, times=times, model=model, m=m, bins=bins)
    draws = replicate_blocks(functools.partial(_keyed_block, seed=seed, rows=rows), replicates, jobs)
    return superpose(draws, model.beta)


# --- occupation scaling -------------------------------------------------


def _occupation_stats(walk: WalkPath, horizons: tuple[int, ...], convention: str) -> np.ndarray:
    """V, R and the maximum local time of the walk at each horizon, one row per horizon."""
    profiles = local_time_profiles(walk, horizons, convention)
    return np.asarray(
        [
            (self_intersections(profiles[h]), range_count(profiles[h]), max_local_time(profiles[h]))
            for h in horizons
        ],
        dtype=np.float64,
    )


@dataclasses.dataclass(frozen=True)
class ScalingResult:
    """Occupation statistics against horizon, with exponent fits.

    Arrays align with ``horizons``; the slope fits use the
    ``slope_grid`` subset and ``median_scaled`` applies the
    delta-normalization n**(-delta) to the per-horizon median of the
    maximum local time.
    """

    hurst: float
    beta: float
    replicates: int
    horizons: tuple[int, ...]
    mean_v: np.ndarray
    se_v: np.ndarray
    mean_r: np.ndarray
    se_r: np.ndarray
    median_scaled: np.ndarray
    slope_grid: tuple[int, ...]
    median_grid: tuple[int, ...]
    v_fit: SlopeFit
    r_fit: SlopeFit

    def median_ladder(self) -> np.ndarray:
        pick = [self.horizons.index(n) for n in self.median_grid]
        return self.median_scaled[pick]

    def windows(self) -> dict[str, bool]:
        """Each acceptance window by name, and whether it holds: the V and R
        slopes within ``SLOPE_TOLERANCE`` of 2 - H and H, and a strictly
        decreasing median ladder."""
        v_deviation = abs(self.v_fit.slope - (2.0 - self.hurst))
        return {
            f"V slope within {SLOPE_TOLERANCE:g} of 2 - H": v_deviation <= SLOPE_TOLERANCE,
            f"R slope within {SLOPE_TOLERANCE:g} of H": abs(self.r_fit.slope - self.hurst) <= SLOPE_TOLERANCE,
            "median ladder decreasing": bool(np.all(np.diff(self.median_ladder()) < 0.0)),
        }


def scaling_experiment(
    hurst: float,
    beta: float,
    replicates: int,
    seed: int,
    jobs: int = 1,
    slope_grid: Sequence[int] = SLOPE_GRID,
    median_grid: Sequence[int] = MEDIAN_GRID,
    convention: str = SITE_CEIL,
) -> ScalingResult:
    """Growth of self-intersections, range and maximum local time.

    One walk per replicate, checkpointed at every horizon in the union
    of the two grids; V and R get log-log slope fits over
    ``slope_grid``, the maximum local time a delta-rescaled median
    ladder over ``median_grid``.
    """
    check_error_replicates("replicates", replicates)
    check_convention(convention)
    slope_grid = tuple(sorted(int(n) for n in slope_grid))
    median_grid = tuple(sorted(int(n) for n in median_grid))
    horizons = tuple(sorted(set(slope_grid) | set(median_grid)))
    delta = delta_exponent(hurst, beta)
    worker = functools.partial(
        _walk_block, statistic=_occupation_stats, seed=seed, steps=max(horizons), hurst=hurst,
        horizons=horizons, convention=convention,
    )
    raw = replicate_blocks(worker, replicates, jobs)
    v, r, top = raw[:, :, 0], raw[:, :, 1], raw[:, :, 2]
    scale = np.asarray(horizons, dtype=np.float64) ** (-delta)
    root_m = np.sqrt(replicates)
    pick = [horizons.index(n) for n in slope_grid]
    mean_v = v.mean(axis=0)
    mean_r = r.mean(axis=0)
    return ScalingResult(
        hurst=hurst,
        beta=beta,
        replicates=replicates,
        horizons=horizons,
        mean_v=mean_v,
        se_v=v.std(axis=0, ddof=1) / root_m,
        mean_r=mean_r,
        se_r=r.std(axis=0, ddof=1) / root_m,
        median_scaled=np.median(top, axis=0) * scale,
        slope_grid=slope_grid,
        median_grid=median_grid,
        v_fit=slope_fit(np.asarray(slope_grid, dtype=np.float64), mean_v[pick]),
        r_fit=slope_fit(np.asarray(slope_grid, dtype=np.float64), mean_r[pick]),
    )


# --- discrete functional against the limit energy -----------------------


def _walk_functional(
    walk: WalkPath,
    horizons: tuple[int, ...],
    n: int,
    thetas: tuple[float, ...],
    times: tuple[float, ...],
    model: ModelParams,
    convention: str,
) -> float:
    profiles = local_time_profiles(walk, horizons, convention)
    return local_time_functional([profiles[h] for h in horizons], thetas, times, n, model)


@dataclasses.dataclass(frozen=True)
class FunctionalResult:
    """Discrete occupation functional draws against limit-energy draws."""

    discrete: np.ndarray
    limit: np.ndarray
    ks: float
    mean_discrete: float
    energy_mean: float
    energy_se: float

    @property
    def relative_mean_error(self) -> float:
        return abs(self.mean_discrete - self.energy_mean) / self.energy_mean


def functional_experiment(
    model: ModelParams,
    n: int,
    thetas: Sequence[float],
    times: Sequence[float],
    m: int,
    bins: int,
    replicates: int,
    seed: int,
    jobs: int = 1,
    convention: str = SITE_CEIL,
) -> FunctionalResult:
    """Weak-convergence check of the walk functional toward the energy.

    Draws the normalized occupation functional of the walk at scale n
    and, from disjoint streams, the beta-energy of fBm local time; the
    two samples are compared by KS distance and by relative mean error.
    The oracle's inputs are checked before any walk is drawn.
    """
    thetas, times = _oracle_args(model.hurst, model.beta, thetas, times, m, bins, replicates, jobs, mean=True)
    check_convention(convention)
    horizons = tuple(grid_floor(n * t) for t in times)
    worker = functools.partial(
        _walk_block, statistic=_walk_functional, seed=seed, steps=max(max(horizons), 1), hurst=model.hurst,
        horizons=horizons, n=n, thetas=thetas, times=times, model=model, convention=convention,
    )
    discrete = replicate_blocks(worker, replicates, jobs)
    limit = power_integral_draws(model.hurst, model.beta, thetas, times, m, bins, replicates, seed, jobs=jobs)
    energy_mean, energy_se = _mean_se(limit)
    return FunctionalResult(
        discrete=discrete, limit=limit, ks=ks_distance(discrete, limit), mean_discrete=float(discrete.mean()),
        energy_mean=energy_mean, energy_se=energy_se,
    )


# --- characteristic-function checks -------------------------------------


@dataclasses.dataclass(frozen=True)
class EcfCheckResult:
    """ECF of a process sample at unit time against the limit CF target."""

    estimate: EcfEstimate
    target: np.ndarray
    target_se: np.ndarray
    comparison: CfComparison
    energy_mean: float
    energy_se: float

    def rows(self) -> list[tuple[float, float, float, float, float]]:
        return [
            (float(u), float(re), float(se), float(tg), float(z))
            for u, re, se, tg, z in zip(
                self.estimate.u, self.estimate.re, self.estimate.se, self.target, self.comparison.z
            )
        ]


def limit_cf_check(
    samples: np.ndarray, model: ModelParams, u: Sequence[float], energy_mean: float, energy_se: float
) -> EcfCheckResult:
    """ECF of a sample of G(1) against the limit CF target of an energy estimate.

    The one path from an oracle estimate to a verdict: ``ecf`` of the
    sample, ``limit_cf_target`` of ``energy_mean`` +- ``energy_se`` at the
    same frequencies, and ``cf_compare`` of the two.
    """
    estimate = ecf(samples, u)
    target, target_se = limit_cf_target(estimate.u, model, energy_mean, energy_se)
    comparison = cf_compare(estimate, target, target_se)
    return EcfCheckResult(estimate, target, target_se, comparison, energy_mean, energy_se)


def schema_ecf_check(
    model: ModelParams,
    n: int,
    copies: int,
    u: Sequence[float],
    m: int,
    bins: int,
    replicates: int,
    oracle_replicates: int,
    seed: int,
    jobs: int = 1,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
    convention: str = SITE_CEIL,
) -> EcfCheckResult:
    """ECF of the schema at time 1 against the limit CF target, the oracle's inputs checked first."""
    _oracle_args(model.hurst, model.beta, [1.0], [1.0], m, bins, oracle_replicates, jobs, mean=True)
    samples = schema_samples(
        model, n, copies, [1.0], replicates, seed, jobs=jobs, kind=kind, convention=convention
    )[:, 0]
    energy = estimate_power_integral_mean(
        model.hurst, model.beta, [1.0], [1.0], m, bins, oracle_replicates, seed, jobs=jobs
    )
    return limit_cf_check(samples, model, u, *energy)
