"""Site occupation counts and scenery-weighted reward sums along a walk.

The walk lives on the real line; rewards are collected on the integer
lattice through a site map.  The default map is the ceiling, so the
occupied site of a position s is the smallest integer >= s; a floor
variant is available for sensitivity checks.  All statistics here are
exact integer bookkeeping, randomness enters only through the path and
the scenery.

Rewards are collected step by step as a running sum (``reward_series``),
or as the scenery against the occupation counts, Z_n = sum_x N_n(x)
xi(x) (Kesten & Spitzer 1979), which needs each visited site once
(``occupation_reward``).  The schema uses the second form for blocks of
walks at once: each block of rows is reduced to the occupation counts
of the stretches of steps between the horizons it needs, the scenery is
looked up once per visited site for a group of rows, and Z at a horizon
is the sum of the stretches' rewards up to it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import UsageError
from .fgn import WalkPath
from .model import ModelParams, check_finite, check_horizon, grid_floor
from .stable import Scenery

__all__ = [
    "site_of",
    "SITE_CEIL",
    "SITE_FLOOR",
    "LocalTimeProfile",
    "local_time_profiles",
    "max_local_time",
    "self_intersections",
    "range_count",
    "RewardSeries",
    "reward_series",
    "occupation_reward",
    "interpolate",
    "local_time_functional",
]

SITE_CEIL = "ceil"
SITE_FLOOR = "floor"

SceneryLike = Union[Scenery, Callable[[np.ndarray], np.ndarray]]


def check_convention(convention: str) -> None:
    if convention not in (SITE_CEIL, SITE_FLOOR):
        raise UsageError(f"unknown site convention {convention!r}")


def site_of(position, convention: str = SITE_CEIL) -> np.ndarray:
    """Integer site occupied at a real position."""
    check_convention(convention)
    position = np.asarray(position, dtype=np.float64)
    return (np.ceil if convention == SITE_CEIL else np.floor)(position).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class LocalTimeProfile:
    """Occupation counts N_n(x) = #{0 <= k <= n : site(S_k) = x}.

    ``sites`` is sorted and holds only visited sites, so
    ``counts.sum() == n + 1`` and ``counts >= 1`` everywhere.
    """

    n: int
    sites: np.ndarray
    counts: np.ndarray


def local_time_profiles(
    path: WalkPath, horizons: Sequence[int], convention: str = SITE_CEIL
) -> dict[int, LocalTimeProfile]:
    """Occupation profiles of one path over steps 0..h for each horizon h, in one sweep.

    Counts each step once, which matters when horizons ladder up a
    single long path.
    """
    horizons = sorted({check_horizon(h, path.n) for h in horizons})
    all_sites = site_of(path.sums[: horizons[-1] + 1], convention)
    lo = int(all_sites.min())
    width = int(all_sites.max()) - lo + 1
    dense = np.zeros(width, dtype=np.int64)
    out: dict[int, LocalTimeProfile] = {}
    prev = -1
    for h in horizons:
        seg = all_sites[prev + 1 : h + 1] - lo
        dense += np.bincount(seg, minlength=width)
        prev = h
        occupied = np.flatnonzero(dense)
        out[h] = LocalTimeProfile(n=h, sites=occupied + lo, counts=dense[occupied].copy())
    return out


def max_local_time(profile: LocalTimeProfile) -> int:
    """L_n, the most visits any single site received."""
    return int(profile.counts.max())


def self_intersections(profile: LocalTimeProfile) -> int:
    """V_n = sum_x N_n(x)**2, the number of self-intersection pairs."""
    return int(np.sum(profile.counts**2))


def range_count(profile: LocalTimeProfile) -> int:
    """R_n, the number of distinct sites visited."""
    return int(profile.sites.size)


def _scenery_values(scenery: SceneryLike, sites: np.ndarray) -> np.ndarray:
    if isinstance(scenery, Scenery):
        return scenery.values_at(sites)
    return np.asarray(scenery(sites), dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class RewardSeries:
    """Cumulative rewards Z_j = sum_{k<=j} xi(site(S_k)) for j = 0..n."""

    n: int
    values: np.ndarray


def reward_series(
    path: WalkPath,
    scenery: SceneryLike,
    n: int | None = None,
    convention: str = SITE_CEIL,
) -> RewardSeries:
    """Accumulate scenery rewards along the walk.

    ``scenery`` may be a keyed ``Scenery`` or a callable taking a site
    array.  Each visited site's value is looked up once.
    """
    n = check_horizon(n, path.n)
    visited, step_site = np.unique(site_of(path.sums[: n + 1], convention), return_inverse=True)
    return RewardSeries(n=n, values=np.cumsum(_scenery_values(scenery, visited)[step_site]))


# slots in the ranges of a group of walks' stretches, whose visited sites
# are looked up in the scenery at once: a cap on the group's arrays and the
# hash's temporaries, which grow with them.  A stretch spans only the sites
# near its own steps, so the slots do not multiply with the horizons.
_GROUP_SLOTS = 1 << 12


def _row_sums(rows: np.ndarray, counts: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum of counts * values over the pairs of each row, added in pair order.

    ``bincount`` adds its weights one at a time in input order, so a
    row's sum depends only on its own pairs, whatever other rows share
    the call.
    """
    return np.bincount(rows, weights=counts * values, minlength=n_rows)


def occupation_reward(profile: LocalTimeProfile, scenery: SceneryLike) -> float:
    """Z_n = sum_x N_n(x) xi(x), the reward sum as scenery against occupation counts.

    This is the reward series' last value, summed site by site in
    increasing site order rather than step by step, which is how the
    schema sums the visits of each stretch of steps between the times it
    needs.
    """
    values = _scenery_values(scenery, profile.sites)
    return float(_row_sums(np.zeros(profile.sites.size, dtype=np.intp), profile.counts, values, 1)[0])


def _block_counts(
    positions: np.ndarray, starts: np.ndarray, lengths: np.ndarray, convention: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupation counts of each stretch of steps of each row of a block of walk positions.

    Stretch j of a row is its ``lengths[j]`` steps from ``starts[j]``.
    Returns ``(counts, lo, width)`` with ``lo`` and ``width`` of shape
    (rows, stretches): the sites of stretch j of row i lie in [lo[i, j],
    lo[i, j] + width[i, j]), and these ranges, in row-major order, are
    laid end to end as the slots of ``counts``.  One ``bincount`` counts
    every stretch of every row, however many stretches there are.
    """
    sites = site_of(positions[:, : starts[-1] + lengths[-1]], convention)
    lo = np.minimum.reduceat(sites, starts, axis=1)
    width = np.maximum.reduceat(sites, starts, axis=1) - lo + 1
    end = width.cumsum().reshape(width.shape)
    sites -= np.repeat(lo - (end - width), lengths, axis=1)
    return np.bincount(sites.ravel(), minlength=end[-1, -1]), lo, width


def _group_rewards(group: list, values_at: Callable, start: int) -> np.ndarray:
    """Z of the rows of a group of blocks from their stretches' counts, one column per horizon.

    The blocks' slots are joined end to end, so the visited (stretch,
    site) pairs of the whole group come out ordered by row, stretch, then
    site.  Each distinct visited (row, site) pair is looked up once.  A
    stretch's reward is its counts against the scenery, summed in site
    order, and Z at a horizon is the sum of the stretches up to it, added
    in time order.  ``group`` is emptied once joined, so the blocks'
    arrays are freed before the scenery lookup makes its temporaries.
    """
    counts, lo, width = (np.concatenate(part) for part in zip(*group))
    group.clear()
    slots = counts.nonzero()[0]
    # the rows' whole ranges, laid end to end as well, hold the sites to look up
    row_lo = lo.min(axis=1)
    row_width = (lo + width).max(axis=1) - row_lo
    row_start = row_width.cumsum() - row_width
    if lo.shape[1] == 1:
        # one stretch per row: its slots are its row's, each visited once
        row_slots = visited = slots
    else:
        # stretch p of the flattened (row, stretch) grid owns width[p] slots; a
        # site visited in several stretches of a row has one slot in the row's range
        stretch = np.repeat(np.arange(lo.size), width.ravel())[slots]
        shift = (lo - (row_lo - row_start)[:, np.newaxis]).ravel() - (width.cumsum() - width.ravel())
        row_slots = slots + shift[stretch]
        seen = np.zeros(row_width.sum(), dtype=bool)
        seen[row_slots] = True
        visited = seen.nonzero()[0]
        del seen
    rows = np.repeat(np.arange(start, start + len(row_lo)), row_width)[visited]
    values = values_at(rows, visited + np.repeat(row_lo - row_start, row_width)[visited])
    if row_slots is visited:
        stretch = rows - start
    else:
        table = np.empty(row_width.sum(), dtype=np.float64)
        table[visited] = values
        values = table[row_slots]
    return _row_sums(stretch, counts[slots], values, lo.size).reshape(lo.shape).cumsum(axis=1)


def _walk_rewards(
    blocks: Iterable[np.ndarray],
    horizons: np.ndarray,
    values_at: Callable[[np.ndarray, np.ndarray], np.ndarray],
    convention: str,
) -> Iterator[tuple[int, np.ndarray]]:
    """Z_h = sum_x N_h(x) xi(x) of each walk at each horizon, a group of walks at a time.

    ``blocks`` yields (rows, >= horizons[-1] + 1) blocks of walk
    positions.  Each block is reduced at once to the occupation counts of
    the stretches of steps between consecutive horizons, [0, horizons[0]]
    and then (horizons[j - 1], horizons[j]]; the counts of whole blocks
    are gathered into groups of about ``_GROUP_SLOTS`` slots, and each
    group's visited (row, site) pairs get their scenery values from one
    ``values_at(rows, sites)`` call, with rows numbered from 0 across all
    blocks.  Yields ``(start, z)`` for each group, z of shape (rows,
    horizons) for the rows from ``start``.  No per-step array is built,
    and the number of numpy calls per block and per group does not depend
    on the number of horizons.
    """
    starts = np.concatenate(([0], horizons[:-1] + 1))
    lengths = np.diff(horizons, prepend=-1)
    group: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pending = start = stop = 0  # the group holds the rows [start, stop)
    for positions in blocks:
        counts, lo, width = _block_counts(positions, starts, lengths, convention)
        group.append((counts, lo, width))
        stop += len(positions)
        pending += counts.size
        if pending >= _GROUP_SLOTS:
            yield start, _group_rewards(group, values_at, start)
            start, pending = stop, 0
    if pending:
        yield start, _group_rewards(group, values_at, start)


def _row_values(sceneries: Sequence[SceneryLike], rows: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Scenery values at (row, site) pairs ordered by row, row i from ``sceneries[i]``.

    Each row's scenery is called once, on that row's visited sites.
    """
    first_row, last_row = int(rows[0]), int(rows[-1])
    bounds = rows.searchsorted(np.arange(first_row, last_row + 2))
    return np.concatenate([
        _scenery_values(sceneries[r], sites[start:stop])
        for r, start, stop in zip(range(first_row, last_row + 1), bounds[:-1], bounds[1:])
    ])


def interpolate(series: RewardSeries, s) -> np.ndarray:
    """Linear time interpolation of the reward series at real s in [0, n].

    ``series.values`` may also hold several series as rows; each row is
    interpolated at every s.
    """
    s = np.asarray(s, dtype=np.float64)
    if (s < 0.0).any() or (s > series.n).any():
        raise UsageError(f"interpolation time outside [0, {series.n}]")
    j = np.floor(s).astype(np.int64)
    frac = s - j
    j_lo = np.minimum(j, max(series.n - 1, 0))
    z = series.values
    z_lo = z.take(j_lo, axis=-1)
    z_hi = z.take(np.minimum(j_lo + 1, series.n), axis=-1)
    out = np.where(frac == 0.0, z.take(j, axis=-1), z_lo + frac * (z_hi - z_lo))
    return out if out.shape else float(out)


def local_time_functional(
    profiles: Sequence[LocalTimeProfile],
    thetas: Sequence[float],
    times: Sequence[float],
    n: int,
    model: ModelParams,
) -> float:
    """Normalized beta-energy of a theta-combination of occupation counts.

        n**(-delta*beta) * sum_x | sum_j theta_j N_{floor(n t_j)}(x) |**beta

    The profiles must come from one common path, evaluated at horizons
    floor(n * t_j); this is checked against ``times``.  The statistic is
    the discrete counterpart of the beta-energy of fractional Brownian
    local time and drives the characteristic function of the limit.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    times = check_finite("times", times)
    if len(profiles) != len(thetas) or len(profiles) != len(times):
        raise UsageError("profiles, thetas and times must have equal length")
    if len(profiles) == 0:
        raise UsageError("need at least one profile")
    for profile, t in zip(profiles, times):
        expect = grid_floor(n * t)
        if profile.n != expect:
            raise UsageError(f"profile horizon {profile.n} != floor(n*t) = {expect} at t={t}")
    lo = min(int(p.sites[0]) for p in profiles)
    hi = max(int(p.sites[-1]) for p in profiles)
    acc = np.zeros(hi - lo + 1, dtype=np.float64)
    for theta, profile in zip(thetas, profiles):
        acc[profile.sites - lo] += theta * profile.counts
    energy = float(np.sum(np.abs(acc) ** model.beta))
    return float(n) ** (-model.delta * model.beta) * energy
