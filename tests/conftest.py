import functools

import numpy as np
import pytest

from rwrs import fgn
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
