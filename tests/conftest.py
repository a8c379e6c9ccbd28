import functools
import multiprocessing

import numpy as np
import pytest

from rwrs import fgn, schema
from rwrs.fgn import WalkPath


@pytest.fixture
def make_path():
    """Build a WalkPath from explicit positions S_0..S_n."""

    def build(sums, hurst: float = 0.5) -> WalkPath:
        sums = np.asarray(sums, dtype=np.float64)
        return WalkPath(hurst=hurst, sums=sums)

    return build


@pytest.fixture
def break_embedding(monkeypatch):
    """Call to give every fGn embedding a negative eigenvalue from then on.

    The spectrum cache is replaced by a fresh one, so a (n, H) whose
    spectrum was cached earlier meets the check again; the test's end
    restores both.
    """

    def broken_eigenvalues(n, hurst):
        eig = np.ones(2 * n)
        eig[-1] = -1.0
        return eig

    def apply():
        monkeypatch.setattr(fgn, "_embedding_eigenvalues", broken_eigenvalues)
        monkeypatch.setattr(fgn, "_spectrum", functools.lru_cache(maxsize=8)(fgn._spectrum.__wrapped__))

    return apply


@pytest.fixture
def fgn_blocks_drawn(monkeypatch):
    """The list of row blocks the fGn sampler yields from then on, walks and oracle paths alike.

    The sampler is wrapped wherever a module holds it, so a test can
    assert that a call failed before drawing anything.
    """
    drawn = []
    real = fgn._fgn_blocks

    def spy(*args, **kwargs):
        for block in real(*args, **kwargs):
            drawn.append(block.shape)
            yield block

    for module in (fgn, schema):
        monkeypatch.setattr(module, "_fgn_blocks", spy)
    return drawn


@pytest.fixture
def pools_started(monkeypatch):
    """The worker counts of the process pools started from then on.

    Each pool still starts and runs, so a test can assert that a call
    failed before starting any pool.
    """
    started = []
    real = multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        started.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    return started


@pytest.fixture
def fake_scenery(monkeypatch):
    """Call with ``values(keys, sites)`` to make the schema's keyed scenery lookup return it from then on.

    The schema looks up the scenery of many walks at once, site j under
    the uint64 scenery key ``keys[j]`` of its walk's copy; the fake gets
    those keys and int64 sites and returns one value per site.  The call
    returns the list of each lookup's ``(keys, sites)``, copied, which
    grows as the schema draws.
    """
    calls = []

    def apply(values):
        def fake(kind, params, keys, sites):
            calls.append((keys.copy(), sites.copy()))
            return np.asarray(values(keys, sites), dtype=np.float64)

        monkeypatch.setattr(schema, "_keyed_values", fake)
        return calls

    return apply
