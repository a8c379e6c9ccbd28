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
the same ones it uses when drawn alone.  Draws are made a block at a
time: the substreams of every copy of a block of draws are derived
together, and the walks are drawn a block of rows at a time by the fGn
sampler.  Each block of rows is reduced at once to the occupation
counts of the stretches of steps between the integer steps the times
need, and the rewards are collected as Z_h = sum_x N_h(x) xi(x), the
scenery against the counts (Kesten & Spitzer 1979), summed stretch by
stretch, with one scenery hash for a group of rows.  A copy's
values do not depend on which other copies or draws share its block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fgn import _fgn_blocks
from .local_times import _walk_rewards
from .model import ModelParams, SchemaConfig, grid_floor
from .stable import SceneryKind, StableParams, _keyed_values
from .streams import ROLE_SCENERY, SeededRngs, _copy_words

__all__ = ["sample_reward_process", "sample_reward_schema", "superpose"]


def _copy_rows(
    seeds: Sequence[int],
    copies: Sequence[int],
    config: SchemaConfig,
    model: ModelParams,
    kind: SceneryKind,
) -> np.ndarray:
    """D_n at ``config.times`` of each copy index in ``copies`` of each draw seed.

    Returns shape (len(seeds), len(copies), len(times)).  The streams of
    every copy of every seed are derived in one ``_copy_words`` pass, as
    ``limit._motion_rows`` derives them; the walks are drawn through the
    row-block fGn sampler, each generator made when its row block needs
    it, and the rewards come from the occupation counts of the stretches
    between the integer steps around each n t.
    """
    n = config.n
    # each walk takes one step beyond the last time, as it always has: its
    # length fixes the fGn embedding, so dropping the step would change the walks
    steps = max(grid_floor(n * config.times[-1]) + 1, 1)
    s = n * np.asarray(config.times)
    below = np.floor(s)
    frac = s - below
    j = below.astype(np.int64)
    # Z is needed at floor(n t), and at floor(n t) + 1 where n t is off the lattice
    horizons, column = np.unique(np.concatenate([j, j + (frac != 0.0)]), return_inverse=True)
    words = _copy_words(seeds, copies, ROLE_SCENERY)
    n_rows = len(words)
    walks = SeededRngs(words[:, 0])
    params = StableParams(beta=model.beta, sigma=model.sigma)
    keys = words[:, 1, 0]
    values_at = lambda rows, sites: _keyed_values(kind, params, keys[rows], sites)
    blocks = _fgn_blocks(steps, model.hurst, walks, walk=True)
    d = np.empty((n_rows, len(s)), dtype=np.float64)
    for start, z in _walk_rewards(blocks, horizons, values_at):
        # the arithmetic of ``interpolate``, in place, one group of rows at a time
        z_lo, step = z.take(column[: len(s)], axis=1), z.take(column[len(s) :], axis=1)
        step -= z_lo
        step *= frac
        step += z_lo
        np.copyto(z_lo, step, where=frac != 0.0)
        z_lo *= float(n) ** (-model.delta)
        d[start : start + len(z)] = z_lo
    return d.reshape(len(seeds), len(copies), len(s))


def superpose(rows: np.ndarray, beta: float) -> np.ndarray:
    """G_n from the D_n rows of its copies: copies**(-1/beta) times their sum.

    ``rows`` is (copies, k) for one draw or (draws, copies, k) for many.
    The copies are summed in C order, whatever the layout of ``rows``, so
    a draw's value does not depend on the other draws stacked with it,
    and the first c rows of a draw give exactly its c-copy schema.
    """
    return float(rows.shape[-2]) ** (-1.0 / beta) * np.ascontiguousarray(rows).sum(axis=-2)


def sample_reward_process(
    n: int,
    times: Sequence[float],
    model: ModelParams,
    seed: int,
    copy: int = 0,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
) -> np.ndarray:
    """One rescaled reward path D_n evaluated at the given times.

    The walk and the scenery key of copy ``copy`` come from disjoint
    substreams of ``seed``, so copies are mutually independent and any
    copy can be regenerated in isolation.
    """
    config = SchemaConfig(n=n, copies=1, times=tuple(times))
    return _copy_rows([seed], [copy], config, model, kind)[0, 0]


def sample_reward_schema(
    config: SchemaConfig,
    model: ModelParams,
    seed: int,
    kind: SceneryKind = SceneryKind.EXACT_STABLE,
) -> np.ndarray:
    """One draw of the schema G_n at ``config.times``.

    Copies never share a walk or a scenery stream.  With copies = 1
    this returns exactly the same values as ``sample_reward_process``
    on the same seed.
    """
    rows = _copy_rows([seed], range(config.copies), config, model, kind)
    return superpose(rows[0], model.beta)
