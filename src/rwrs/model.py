"""Model parameter bundles and the one definition of each parameter domain.

The model couples a memory parameter ``hurst`` (H) for the Gaussian walk
with a tail index ``beta`` and scale ``sigma`` for the scenery.  The
normalization exponent for cumulative rewards,

    delta = 1 - H + H / beta,

is derived once here and reused everywhere; it is the unique exponent
that balances the walk's range growth (order n**H sites, each visited
about n**(1-H) times) against the beta-stable scaling of site rewards.

Every layer checks its parameters with the ``check_*`` functions below,
so each domain rule is written, and worded, in one place only.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

import numpy as np

from .errors import UsageError

__all__ = ["ModelParams", "SchemaConfig", "delta_exponent"]

# smallest value of each integer size: a grid needs two steps per unit
# time, and a box count one bin between its two outer bins, which the
# path's extremes sit on the edges of (ROADMAP item 1)
_MINIMUM = {"n": 1, "copies": 1, "replicates": 1, "jobs": 1, "m": 2, "bins": 3}


def check_hurst(hurst: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise UsageError(f"hurst must lie in (0, 1), got {hurst}")


def check_beta(beta: float) -> None:
    if not 0.0 < beta <= 2.0:
        raise UsageError(f"beta must lie in (0, 2], got {beta}")


def check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise UsageError(f"sigma must be positive and finite, got {sigma}")


def check_pareto_beta(beta: float) -> None:
    """The pure x**-2 Pareto tail is not attracted to the Gaussian (``stable.pareto_scale``)."""
    if beta >= 2.0:
        raise UsageError(f"pareto scenery requires beta < 2, got {beta}")


def check_sizes(**sizes: int) -> None:
    """Each named size at least its minimum: n, copies, replicates and jobs 1, m 2, bins 3."""
    for name, value in sizes.items():
        if value < _MINIMUM[name]:
            raise UsageError(f"{name} must be at least {_MINIMUM[name]}, got {value}")


def check_error_replicates(name: str, replicates: int) -> None:
    """A mean with a standard error needs two replicates."""
    if replicates < 2:
        raise UsageError(f"{name} must be at least 2, got {replicates}")


def check_finite(name: str, values: Iterable[float]) -> tuple[float, ...]:
    """``values`` as a tuple of floats, every one finite."""
    values = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{name} must be finite, got {list(values)}")
    return values


def check_times(times: Iterable[float], horizon: float = math.inf) -> tuple[float, ...]:
    """Evaluation times as floats: nonempty, finite, nonnegative, strictly
    increasing and at most ``horizon``."""
    times = check_finite("times", times)
    if not times:
        raise UsageError("times must not be empty")
    if times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise UsageError(f"times must be nonnegative and strictly increasing, got {list(times)}")
    if times[-1] > horizon + 1e-12:
        raise UsageError(f"time {times[-1]} beyond path horizon {horizon}")
    return times


def check_horizon(n: int | None, steps: int) -> int:
    """A horizon within the ``steps`` steps of a path, ``steps`` itself when ``n`` is None."""
    n = steps if n is None else int(n)
    if not 0 <= n <= steps:
        raise UsageError(f"horizon {n} outside [0, {steps}]")
    return n


def grid_floor(x):
    """The grid horizon floor(x) of a finite product x = n * t, the one rule for every grid.

    A product can land a hair below the integer it stands for (49 * (1/49)
    is 0.9999999999999999), so a slack is added before flooring.  Returns
    an int for a scalar and an int64 array for an array.
    """
    index = np.floor(np.asarray(x, dtype=np.float64) + 1e-9).astype(np.int64)
    return int(index) if index.ndim == 0 else index


def delta_exponent(hurst: float, beta: float) -> float:
    """Reward-sum normalization exponent ``1 - hurst + hurst / beta``."""
    check_hurst(hurst)
    check_beta(beta)
    return 1.0 - hurst + hurst / beta


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Joint walk/scenery parameters with the derived exponent attached."""

    hurst: float
    beta: float
    sigma: float = 1.0
    delta: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        check_sigma(self.sigma)
        object.__setattr__(self, "delta", delta_exponent(self.hurst, self.beta))


@dataclasses.dataclass(frozen=True)
class SchemaConfig:
    """Sizes for the superposition schema: walk length and copy count.

    ``times`` are the rescaled evaluation times, checked by
    ``check_times`` so that every consumer can rely on a canonical
    ordering.
    """

    n: int
    copies: int
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        check_sizes(n=self.n, copies=self.copies)
        object.__setattr__(self, "times", check_times(self.times))
