"""Estimation utilities: empirical characteristic functions, power-law
slope fits and two-sample distances.

Everything here is deterministic given its input sample arrays; Monte
Carlo drivers hand in per-replicate results already ordered by
replicate index, so all reductions are reproducible bit for bit no
matter how the replicates were scheduled.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import NumericalError, UsageError

__all__ = ["EcfEstimate", "ecf", "CfComparison", "cf_compare", "SlopeFit", "slope_fit", "ks_distance"]

# acceptance window of a CF comparison: max|z| at most 3
Z_WINDOW = 3.0


@dataclasses.dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic function on a grid of frequencies.

    ``re[j] +- se[j]`` estimates E[cos(u_j X)] and ``im`` the sine part;
    standard errors are sample standard deviations over the draws
    divided by sqrt(count).
    """

    u: np.ndarray
    re: np.ndarray
    im: np.ndarray
    se: np.ndarray
    se_im: np.ndarray
    count: int


def ecf(samples, u) -> EcfEstimate:
    """Empirical characteristic function of a sample at frequencies u."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size < 2:
        raise UsageError(f"need at least 2 samples for an ECF, got {samples.size}")
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    count = samples.size
    angles = np.outer(u, samples)
    cos_part = np.cos(angles)
    sin_part = np.sin(angles)
    return EcfEstimate(
        u=u,
        re=cos_part.mean(axis=1),
        im=sin_part.mean(axis=1),
        se=cos_part.std(axis=1, ddof=1) / np.sqrt(count),
        se_im=sin_part.std(axis=1, ddof=1) / np.sqrt(count),
        count=count,
    )


@dataclasses.dataclass(frozen=True)
class CfComparison:
    """Z-scores of an ECF against a target curve with its own error.

    ``flagged`` marks the frequencies where |z| exceeds ``Z_WINDOW``.
    """

    z: np.ndarray
    max_abs_z: float
    flagged: np.ndarray

    def windows(self) -> dict[str, bool]:
        """Each acceptance window by name, and whether it holds."""
        return {f"max|z| <= {Z_WINDOW:g}": self.max_abs_z <= Z_WINDOW}


def cf_compare(estimate: EcfEstimate, target, target_se=None) -> CfComparison:
    """Deviation of the ECF real part from a target, in combined SEs.

    ``target_se`` carries the target's own Monte Carlo error when the
    target was itself estimated; combined variance is the sum.  A zero
    combined SE with a nonzero deviation has no finite z-score and
    raises; matching values under zero SE compare as z = 0.
    """
    try:
        target = np.broadcast_to(np.asarray(target, dtype=np.float64), estimate.re.shape)
        if target_se is None:
            target_se = np.zeros_like(target)
        target_se = np.broadcast_to(np.asarray(target_se, dtype=np.float64), estimate.re.shape)
    except ValueError as exc:
        raise UsageError(f"target grid does not match the ECF grid: {exc}") from exc
    combined = np.sqrt(estimate.se**2 + target_se**2)
    deviation = estimate.re - target
    exact = combined == 0.0
    if np.any(exact & (deviation != 0.0)):
        raise NumericalError("nonzero ECF deviation with zero combined standard error")
    z = np.where(exact, 0.0, deviation / np.where(exact, 1.0, combined))
    return CfComparison(z=z, max_abs_z=float(np.max(np.abs(z))), flagged=np.abs(z) > Z_WINDOW)


@dataclasses.dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log y)."""

    slope: float
    intercept: float
    stderr: float
    r2: float


def slope_fit(x, y) -> SlopeFit:
    """Fit log y = intercept + slope * log x by least squares.

    Inputs must be positive; at least three points are required so the
    residual degrees of freedom stay positive.  ``stderr`` is the
    standard error of the slope, ``r2`` the coefficient of
    determination (defined as 1.0 for an exactly flat response).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise UsageError(f"need at least 3 points for a slope fit, got {x.size}")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise UsageError("slope fit requires strictly positive x and y")
    lx = np.log(x)
    ly = np.log(y)
    dx = lx - lx.mean()
    sxx = float(np.sum(dx**2))
    if sxx == 0.0:
        raise UsageError("x values must not all coincide")
    slope = float(np.sum(dx * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((ly - ly.mean()) ** 2))
    stderr = float(np.sqrt(rss / (x.size - 2) / sxx))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return SlopeFit(slope=slope, intercept=intercept, stderr=stderr, r2=r2)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise UsageError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))
