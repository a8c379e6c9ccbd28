"""Symmetric beta-stable variates and lazy i.i.d. random sceneries.

Two scenery flavours are supported.  ``EXACT_STABLE`` draws each site
value from the symmetric stable law itself, via the Chambers-Mallows-
Stuck transform, so normalized partial sums are stable at every n.
``SYMMETRIC_PARETO`` draws from a two-sided pure Pareto law whose tail
is calibrated so that n**(-1/beta) times a sum of n values converges to
the same stable law; it exercises the domain-of-attraction half of the
theory rather than the fixed point.

Site values are not stored.  A scenery is a pure hash of
``(key, site)``, so a walk over 10**7 distinct sites costs no memory
and two walks over the same keyed scenery always agree.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Sequence

import numpy as np

from .model import check_beta, check_pareto_beta, check_sigma

__all__ = [
    "StableParams",
    "SceneryKind",
    "Scenery",
    "sample_stable",
    "theoretical_cf",
    "pareto_scale",
]


@dataclasses.dataclass(frozen=True)
class StableParams:
    """Index ``beta`` in (0, 2] and scale ``sigma`` > 0.

    The characteristic function of the target law is
    ``exp(-sigma**beta * |u|**beta)``; beta = 2 is a centered Gaussian
    with variance 2 * sigma**2, beta = 1 a Cauchy law.
    """

    beta: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        check_beta(self.beta)
        check_sigma(self.sigma)


class SceneryKind(enum.Enum):
    EXACT_STABLE = "stable"
    SYMMETRIC_PARETO = "pareto"


def check_scenery_kind(kind: SceneryKind, beta: float) -> None:
    """A Pareto scenery needs beta < 2 (``pareto_scale``); a stable one takes every beta."""
    if kind is SceneryKind.SYMMETRIC_PARETO:
        check_pareto_beta(beta)


def theoretical_cf(u, params: StableParams) -> np.ndarray:
    """Characteristic function exp(-sigma**beta |u|**beta) on a grid."""
    u = np.asarray(u, dtype=np.float64)
    return np.exp(-(params.sigma**params.beta) * np.abs(u) ** params.beta)


def _cms(angle: np.ndarray, expo: np.ndarray, beta: float) -> np.ndarray:
    """Chambers-Mallows-Stuck transform for the symmetric case.

    ``angle`` is uniform on (-pi/2, pi/2) and ``expo`` unit exponential.
    See Chambers, Mallows & Stuck (1976); the symmetric branch needs no
    special-casing at beta = 1, where the tilt factor degenerates to 1
    and the draw reduces to tan(angle).
    """
    if beta == 2.0:
        # closed form: 2 sin(angle) sqrt(expo) is exactly N(0, 2)
        return 2.0 * np.sin(angle) * np.sqrt(expo)
    sin_part = np.sin(beta * angle) / np.cos(angle) ** (1.0 / beta)
    tilt = (np.cos((1.0 - beta) * angle) / expo) ** ((1.0 - beta) / beta)
    return sin_part * tilt


def _cms_inputs(rng: np.random.Generator, size):
    # every stable draw takes its angles from the stream, then its exponentials
    angle = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    return angle, rng.standard_exponential(size=size)


def sample_stable(params: StableParams, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw symmetric stable variates with cf exp(-sigma**beta |u|**beta)."""
    angle, expo = _cms_inputs(rng, size)
    return params.sigma * _cms(np.asarray(angle), np.asarray(expo), params.beta)


def _stable_rows(params: StableParams, rngs: Sequence[np.random.Generator], size: int) -> np.ndarray:
    """``sample_stable(params, rng, size)`` for each generator, as the rows of one transform."""
    angle = np.empty((len(rngs), size), dtype=np.float64)
    expo = np.empty((len(rngs), size), dtype=np.float64)
    for row, rng in enumerate(rngs):
        angle[row], expo[row] = _cms_inputs(rng, size)
    return params.sigma * _cms(angle, expo, params.beta)


def pareto_scale(params: StableParams) -> float:
    """Tail scale of the symmetric Pareto law attracted to ``params``.

    A two-sided Pareto magnitude with P(|xi| > x) = (s / x)**beta sums
    to the stable law of scale sigma when the tail constant matches

        s = sigma * C_beta**(1/beta),
        C_beta = (1 - beta) / (Gamma(2 - beta) cos(pi beta / 2)),

    with the beta = 1 limit C_1 = 2/pi.  C_beta -> 0 as beta -> 2, so
    the pure x**-2 tail is not attracted to the Gaussian under n**(1/2)
    norming and beta = 2 is rejected for this scenery kind.
    """
    beta = params.beta
    check_pareto_beta(beta)
    if beta == 1.0:
        c = 2.0 / math.pi
    else:
        c = (1.0 - beta) / (math.gamma(2.0 - beta) * math.cos(math.pi * beta / 2.0))
    return params.sigma * c ** (1.0 / beta)


# --- keyed site hashing -------------------------------------------------
#
# SplitMix64-style finalizer over (key, site, lane).  Every (key, site)
# pair yields two independent uniforms, one per lane, which feed the
# distribution transforms below.  All arithmetic is modulo 2**64.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANE = 0xD1B54A32D192ED03
_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """The finalizer, in place on the uint64 array ``z``; ``scratch`` has z's shape."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


# one offset per lane (1 and 2), with the finalizer's own golden step folded in
_LANE_OFFSETS = np.array(
    [(lane * _LANE + int(_GOLDEN)) & _MASK64 for lane in (1, 2)], dtype=np.uint64
)


def _site_uniforms(keys: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Uniforms on (0, 1) of lanes 1 and 2, stacked on a new leading axis.

    Each is a pure function of (key, site, lane); the uint64 ``keys``
    broadcast against the uint64 ``sites``.  The hash runs in place on
    one (2, m) buffer, which the uniforms then overwrite, with one
    lane-sized scratch array.
    """
    bits = np.empty((2, *np.broadcast_shapes(np.shape(keys), sites.shape)), dtype=np.uint64)
    np.multiply(sites, _GOLDEN, out=bits[1])
    bits[1] += keys
    np.add(bits[1], _LANE_OFFSETS[0], out=bits[0])
    bits[1] += _LANE_OFFSETS[1]
    scratch = np.empty_like(bits[0])
    shifted = scratch.view(np.float64)
    for lane in bits:
        _mix64(lane, scratch)
        _mix64(lane, scratch)
        # take the top 53 bits; the half-step offset keeps the value in the
        # open interval so both log and power transforms are safe
        lane >>= np.uint64(11)
        np.add(lane, 0.5, out=shifted)
        np.multiply(shifted, 2.0**-53, out=lane.view(np.float64))
    return bits.view(np.float64)


def _keyed_values(kind: SceneryKind, params: StableParams, keys, sites: np.ndarray) -> np.ndarray:
    """Values of keyed sceneries of one kind and law at the int64 ``sites``.

    Site j takes the scenery keyed by the uint64 ``keys[j]``; ``keys``
    may also be one key shared by every site.
    """
    u_main, u_aux = _site_uniforms(keys, sites.view(np.uint64))
    if kind is SceneryKind.EXACT_STABLE:
        # angle pi (u - 0.5) and exponential -log(u'), in place over the uniforms
        angle = np.multiply(np.subtract(u_main, 0.5, out=u_main), math.pi, out=u_main)
        expo = np.negative(np.log(u_aux, out=u_aux), out=u_aux)
        return params.sigma * _cms(angle, expo, params.beta)
    magnitude = pareto_scale(params) * u_main ** (-1.0 / params.beta)
    return np.where(u_aux < 0.5, -magnitude, magnitude)


@dataclasses.dataclass(frozen=True)
class Scenery:
    """Lazy i.i.d. random field over the integer sites.

    Values are materialized on demand from the 64-bit ``key``; distinct
    keys give independent sceneries, equal keys identical ones.
    """

    kind: SceneryKind
    params: StableParams
    key: int

    def __post_init__(self) -> None:
        check_scenery_kind(self.kind, self.params.beta)

    def values_at(self, sites) -> np.ndarray:
        key = np.uint64(int(self.key) & _MASK64)
        return _keyed_values(self.kind, self.params, key, np.ascontiguousarray(sites, dtype=np.int64))

    def __getitem__(self, site: int) -> float:
        return float(self.values_at(np.asarray([site]))[0])
