import numpy as np
import pytest

from rwrs.fgn import WalkPath


@pytest.fixture
def make_path():
    """Build a WalkPath from explicit positions S_0..S_n."""

    def build(sums, hurst: float = 0.5) -> WalkPath:
        sums = np.asarray(sums, dtype=np.float64)
        return WalkPath(hurst=hurst, sums=sums)

    return build
