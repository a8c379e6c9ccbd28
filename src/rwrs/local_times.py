"""Site occupation counts and scenery-weighted reward sums along a walk.

The walk lives on the real line; rewards are collected on the integer
lattice through a site map.  The default map is the ceiling, so the
occupied site of a position s is the smallest integer >= s; a floor
variant is available for sensitivity checks.  All statistics here are
exact integer bookkeeping, randomness enters only through the path and
the scenery.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import MissingSceneryError, UsageError
from .fgn import WalkPath
from .model import ModelParams
from .stable import Scenery, _keyed_values

__all__ = [
    "site_of",
    "LocalTimeProfile",
    "local_times",
    "local_time_profiles",
    "max_local_time",
    "self_intersections",
    "range_count",
    "RewardSeries",
    "reward_series",
    "interpolate",
    "local_time_functional",
]

SITE_CEIL = "ceil"
SITE_FLOOR = "floor"

SceneryLike = Union[Scenery, Mapping[int, float], Callable[[np.ndarray], np.ndarray]]


def site_of(position, convention: str = SITE_CEIL) -> np.ndarray:
    """Integer site occupied at a real position."""
    position = np.asarray(position, dtype=np.float64)
    if convention == SITE_CEIL:
        return np.ceil(position).astype(np.int64)
    if convention == SITE_FLOOR:
        return np.floor(position).astype(np.int64)
    raise UsageError(f"unknown site convention {convention!r}")


@dataclasses.dataclass(frozen=True)
class LocalTimeProfile:
    """Occupation counts N_n(x) = #{0 <= k <= n : site(S_k) = x}.

    ``sites`` is sorted and holds only visited sites, so
    ``counts.sum() == n + 1`` and ``counts >= 1`` everywhere.
    """

    n: int
    sites: np.ndarray
    counts: np.ndarray


def _check_horizon(path: WalkPath, n) -> int:
    n = path.n if n is None else int(n)
    if not 0 <= n <= path.n:
        raise UsageError(f"horizon {n} outside [0, {path.n}]")
    return n


def local_times(path: WalkPath, n: int | None = None, convention: str = SITE_CEIL) -> LocalTimeProfile:
    """Occupation counts of the walk over steps 0..n (defaults to all)."""
    n = _check_horizon(path, n)
    sites, counts = np.unique(site_of(path.sums[: n + 1], convention), return_counts=True)
    return LocalTimeProfile(n=n, sites=sites, counts=counts)


def local_time_profiles(
    path: WalkPath, horizons: Sequence[int], convention: str = SITE_CEIL
) -> dict[int, LocalTimeProfile]:
    """Occupation profiles at several horizons of one path, in one sweep.

    Equivalent to ``{h: local_times(path, h) for h in horizons}`` but
    counts each step once, which matters when horizons ladder up a
    single long path.
    """
    horizons = sorted({_check_horizon(path, h) for h in horizons})
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
    if isinstance(scenery, Mapping):
        try:
            return np.asarray([scenery[int(s)] for s in sites], dtype=np.float64)
        except KeyError as exc:
            raise MissingSceneryError(f"no scenery value at site {exc.args[0]}") from exc
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

    ``scenery`` may be a keyed ``Scenery``, a mapping from sites to
    values (which must cover every visited site), or a callable taking
    a site array.  Each visited site's value is looked up once.
    """
    n = _check_horizon(path, n)
    sites = site_of(path.sums[: n + 1], convention)
    return RewardSeries(n=n, values=_reward_rows(sites[np.newaxis], [scenery])[0])


def _reward_rows(sites: np.ndarray, sceneries: Sequence[SceneryLike]) -> np.ndarray:
    """Cumulative rewards along each row of an int64 (rows, steps + 1) site array.

    Row i collects ``sceneries[i]``.  Each row's site range is shifted
    onto its own block of slots, so one ``bincount`` finds the visited
    (row, site) pairs of all rows, ordered by row, then site.  The
    rewards are written over ``sites``, which is returned reinterpreted.
    When every scenery is keyed with one kind and law, all pairs are
    hashed in one pass; otherwise each scenery is called once on its
    row's visited sites.
    """
    lo = sites.min(axis=1)
    hi = sites.max(axis=1) + 1
    end = (hi - lo).cumsum()  # row i owns the slots [end[i] - (hi - lo)[i], end[i])
    shift = hi - end
    sites -= shift[:, np.newaxis]
    slots = np.bincount(sites.ravel()).nonzero()[0]
    first = sceneries[0]
    if all(
        isinstance(s, Scenery) and s.kind is first.kind and s.params == first.params
        for s in sceneries
    ):
        rows = end.searchsorted(slots, side="right")
        values = _keyed_values(sceneries, rows, slots + shift[rows])
    else:
        bounds = slots.searchsorted(end)
        values = np.concatenate([
            _scenery_values(scenery, slots[start:stop] + offset)
            for scenery, start, stop, offset in zip(sceneries, [0, *bounds[:-1]], bounds, shift)
        ])
    # one value per slot; only visited slots are ever read back
    dense = np.empty(end[-1], dtype=np.float64)
    dense[slots] = values
    # gather over the site array itself: output j overwrites only its own
    # index j, and "clip" mode (a no-op here) writes without a buffer
    rewards = sites.view(np.float64)
    np.take(dense, sites, out=rewards, mode="clip")
    return rewards.cumsum(axis=1, out=rewards)


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
    if len(profiles) != len(thetas) or len(profiles) != len(times):
        raise UsageError("profiles, thetas and times must have equal length")
    if len(profiles) == 0:
        raise UsageError("need at least one profile")
    for profile, t in zip(profiles, times):
        expect = int(np.floor(n * float(t) + 1e-9))
        if profile.n != expect:
            raise UsageError(f"profile horizon {profile.n} != floor(n*t) = {expect} at t={t}")
    lo = min(int(p.sites[0]) for p in profiles)
    hi = max(int(p.sites[-1]) for p in profiles)
    acc = np.zeros(hi - lo + 1, dtype=np.float64)
    for theta, profile in zip(thetas, profiles):
        acc[profile.sites - lo] += theta * profile.counts
    energy = float(np.sum(np.abs(acc) ** model.beta))
    return float(n) ** (-model.delta * model.beta) * energy
