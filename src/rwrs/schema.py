"""The random rewards schema: rescaled reward processes and their sums.

One copy is a dependent Gaussian walk through a fresh random scenery,
rescaled in time by n and in size by n**(-delta):

    D_n(t) = n**(-delta) * Z_{n t},   delta = 1 - H + H/beta,

with Z linearly interpolated between integer steps.  The schema
superposes ``copies`` independent copies under stable norming,

    G_n(t) = copies**(-1/beta) * sum_i D_n^{(i)}(t),

which converges, as n then copies grow, to the local-time fractional
stable motion the oracle in ``limit`` samples directly.

Every copy draws its walk and its scenery key from its own substreams,
the same ones it uses when drawn alone; the substreams of a block of
copies are derived together, and the walks are drawn a block of rows at
a time by the fGn sampler.  The rewards of all copies are then
computed in one vectorised pass: one site count and one scenery
hash over every copy, and a running sum along each copy.  The values
are the same, byte for byte, as drawing the copies one at a time.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .fgn import _fgn_blocks
from .local_times import SITE_CEIL, RewardSeries, SceneryLike, _reward_rows, interpolate, site_of
from .model import ModelParams, SchemaConfig
from .stable import Scenery, SceneryKind, StableParams
from .streams import ROLE_SCENERY, ROLE_WALK, block_streams

__all__ = ["sample_reward_process", "sample_reward_schema"]

# walk positions held at once; copies beyond it are done in further blocks
_BLOCK_POSITIONS = 1 << 20


def _rescaled_rows(
    config: SchemaConfig,
    model: ModelParams,
    seed: int,
    copies: range,
    kind: SceneryKind,
    scenery_for_copy: Callable[[int], SceneryLike] | None,
    convention: str,
) -> np.ndarray:
    """D_n at ``config.times`` for each copy index in ``copies``, one row per copy.

    The streams of a block of copies are derived together, each copy
    draws its walk from its own stream through the row-block fGn
    sampler, and the rewards of all copies in the block are then
    collected in one pass.
    """
    n = config.n
    steps = max(int(np.floor(n * config.times[-1] + 1e-9)) + 1, 1)
    s = n * np.asarray(config.times)
    params = StableParams(beta=model.beta, sigma=model.sigma)
    rows = np.empty((len(copies), len(config.times)), dtype=np.float64)
    per_block = max(_BLOCK_POSITIONS // (steps + 1), 1)
    for start in range(0, len(copies), per_block):
        block = copies[start : start + per_block]
        (walks,), (keys,) = block_streams(seed, block, rngs=(ROLE_WALK,), keys=(ROLE_SCENERY,))
        sites = np.empty((len(block), steps + 1), dtype=np.int64)
        row = 0
        for sums in _fgn_blocks(steps, model.hurst, list(walks), walk=True):
            sites[row : row + len(sums)] = site_of(sums, convention)
            row += len(sums)
        # the last block is a view of the walk workspace: let it go before
        # the reward pass allocates its own temporaries
        del sums
        if scenery_for_copy is None:
            sceneries = [Scenery(kind, params, key) for key in keys]
        else:
            sceneries = [scenery_for_copy(i) for i in block]
        series = RewardSeries(n=steps, values=_reward_rows(sites, sceneries))
        rows[start : start + len(block)] = interpolate(series, s)
    return float(n) ** (-model.delta) * rows


def sample_reward_process(
    n: int,
    times: Sequence[float],
    model: ModelParams,
    seed: int,
    copy: int = 0,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
    scenery: SceneryLike | None = None,
    convention: str = SITE_CEIL,
) -> np.ndarray:
    """One rescaled reward path D_n evaluated at the given times.

    The walk and the scenery of copy ``copy`` come from disjoint
    substreams of ``seed``, so copies are mutually independent and any
    copy can be regenerated in isolation.  Passing ``scenery``
    overrides the keyed scenery (for experiments with frozen or
    deterministic rewards); the walk stream is unaffected.
    """
    config = SchemaConfig(n=n, copies=1, times=tuple(times))
    injected = None if scenery is None else (lambda i: scenery)
    rows = _rescaled_rows(config, model, seed, range(copy, copy + 1), kind, injected, convention)
    return rows[0]


def sample_reward_schema(
    config: SchemaConfig,
    model: ModelParams,
    seed: int,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
    scenery_for_copy: Callable[[int], SceneryLike] | None = None,
    convention: str = SITE_CEIL,
) -> np.ndarray:
    """One draw of the schema G_n at ``config.times``.

    Copies never share a walk or a scenery stream.  With copies = 1
    this returns exactly the same values as ``sample_reward_process``
    on the same seed.  ``scenery_for_copy`` optionally injects a
    scenery per copy index, for controlled experiments.
    """
    rows = _rescaled_rows(config, model, seed, range(config.copies), kind, scenery_for_copy, convention)
    return float(config.copies) ** (-1.0 / model.beta) * rows.sum(axis=0)
