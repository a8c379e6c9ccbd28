"""Model parameter bundles shared by the walk, scenery and limit layers.

The model couples a memory parameter ``hurst`` (H) for the Gaussian walk
with a tail index ``beta`` and scale ``sigma`` for the scenery.  The
normalization exponent for cumulative rewards,

    delta = 1 - H + H / beta,

is derived once here and reused everywhere; it is the unique exponent
that balances the walk's range growth (order n**H sites, each visited
about n**(1-H) times) against the beta-stable scaling of site rewards.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import UsageError


def delta_exponent(hurst: float, beta: float) -> float:
    """Reward-sum normalization exponent ``1 - hurst + hurst / beta``."""
    if not 0.0 < hurst < 1.0:
        raise UsageError(f"hurst must lie in (0, 1), got {hurst}")
    if not 0.0 < beta <= 2.0:
        raise UsageError(f"beta must lie in (0, 2], got {beta}")
    return 1.0 - hurst + hurst / beta


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Joint walk/scenery parameters with the derived exponent attached."""

    hurst: float
    beta: float
    sigma: float = 1.0
    delta: float = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise UsageError(f"sigma must be positive and finite, got {self.sigma}")
        delta = delta_exponent(self.hurst, self.beta)
        # guard against mis-wiring: delta - (1 - H) = H/beta never exceeds 1/beta
        assert 1.0 / self.beta >= delta - (1.0 - self.hurst) - 1e-12
        object.__setattr__(self, "delta", delta)


@dataclasses.dataclass(frozen=True)
class SchemaConfig:
    """Sizes for the superposition schema: walk length and copy count.

    ``times`` are the rescaled evaluation times; they must be finite,
    sorted, strictly increasing and nonnegative so that every consumer
    can rely on a canonical ordering.
    """

    n: int
    copies: int
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError(f"n must be a positive integer, got {self.n}")
        if self.copies < 1:
            raise UsageError(f"copies must be a positive integer, got {self.copies}")
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise UsageError("times must not be empty")
        if not all(math.isfinite(t) for t in times):
            raise UsageError(f"times must be finite, got {times}")
        if times[0] < 0.0:
            raise UsageError(f"times must be nonnegative, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise UsageError(f"times must be strictly increasing, got {times}")
        object.__setattr__(self, "times", times)
