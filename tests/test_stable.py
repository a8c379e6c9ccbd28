import math

import numpy as np
import pytest

from rwrs.errors import UsageError
from rwrs.stable import (
    Scenery,
    SceneryKind,
    StableParams,
    pareto_scale,
    sample_stable,
    theoretical_cf,
)
from rwrs import stable as stable_mod
from rwrs.stats import cf_compare, ecf
from rwrs.streams import spawn_rng


class StubRng:
    """Feeds fixed angle/exponential arrays into the stable transform."""

    def __init__(self, angle, expo):
        self._angle = np.asarray(angle, dtype=np.float64)
        self._expo = np.asarray(expo, dtype=np.float64)

    def uniform(self, low, high, size=None):
        return self._angle

    def standard_exponential(self, size=None):
        return self._expo


def test_theoretical_cf_values():
    assert theoretical_cf(0.0, StableParams(beta=1.3, sigma=2.0)) == 1.0
    assert theoretical_cf(1.0, StableParams(beta=2.0, sigma=1.0)) == pytest.approx(math.exp(-1.0))
    # symmetry folds u=-2 with sigma=0.5 onto exp(-1)
    assert theoretical_cf(-2.0, StableParams(beta=1.0, sigma=0.5)) == pytest.approx(math.exp(-1.0))


def test_theoretical_cf_even_and_bounded():
    p = StableParams(beta=1.7, sigma=0.8)
    u = np.linspace(-4.0, 4.0, 33)
    values = theoretical_cf(u, p)
    assert np.array_equal(values, theoretical_cf(-u, p))
    assert np.all(values > 0.0) and np.all(values <= 1.0)
    assert np.count_nonzero(values == 1.0) == 1  # only u = 0


@pytest.mark.parametrize("beta,sigma", [(0.0, 1.0), (2.1, 1.0), (-1.0, 1.0), (1.5, 0.0), (1.5, -2.0)])
def test_stable_params_rejects_bad_ranges(beta, sigma):
    with pytest.raises(UsageError):
        StableParams(beta=beta, sigma=sigma)


def test_transform_beta1_is_cauchy_tangent():
    angle = np.asarray([-1.2, -0.3, 0.0, 0.4, 1.5])
    stub = StubRng(angle, np.ones_like(angle))
    draws = sample_stable(StableParams(beta=1.0), stub, size=angle.size)
    assert draws == pytest.approx(np.tan(angle), rel=1e-12)


def test_transform_beta2_is_scaled_gaussian():
    angle = np.asarray([-1.0, 0.2, 0.9])
    expo = np.asarray([0.5, 1.0, 2.5])
    draws = sample_stable(StableParams(beta=2.0, sigma=1.5), StubRng(angle, expo), size=3)
    assert draws == pytest.approx(1.5 * 2.0 * np.sin(angle) * np.sqrt(expo), rel=1e-12)


def test_gaussian_variance_oracle():
    # beta=2 has CF exp(-u^2), a centered Gaussian with variance 2
    draws = sample_stable(StableParams(beta=2.0, sigma=1.0), spawn_rng(101), size=100_000)
    assert abs(draws.var(ddof=1) - 2.0) < 0.05
    assert abs(draws.mean()) < 0.02


def test_cauchy_median_oracle():
    # beta=1, sigma=1 is standard Cauchy; |X| has median 1
    draws = sample_stable(StableParams(beta=1.0, sigma=1.0), spawn_rng(102), size=100_000)
    assert abs(np.median(np.abs(draws)) - 1.0) < 0.02


def test_ecf_oracle_beta_three_halves():
    draws = sample_stable(StableParams(beta=1.5, sigma=1.0), spawn_rng(103), size=100_000)
    assert abs(np.cos(draws).mean() - math.exp(-1.0)) < 3.0 / math.sqrt(100_000)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_ecf_matches_cf_across_beta(beta):
    p = StableParams(beta=beta, sigma=1.0)
    draws = sample_stable(p, spawn_rng(104, int(10 * beta)), size=100_000)
    estimate = ecf(draws, [0.25, 0.5, 1.0, 2.0])
    assert cf_compare(estimate, theoretical_cf(estimate.u, p)).max_abs_z <= 3.0
    # symmetry: imaginary part consistent with zero
    assert np.all(np.abs(estimate.im) <= 3.0 * estimate.se_im)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_stability_under_pairwise_sums(beta):
    p = StableParams(beta=beta, sigma=1.0)
    rng = spawn_rng(105, int(10 * beta))
    x1 = sample_stable(p, rng, size=100_000)
    x2 = sample_stable(p, rng, size=100_000)
    combined = (x1 + x2) / 2.0 ** (1.0 / beta)
    estimate = ecf(combined, [0.5, 1.0, 2.0])
    assert cf_compare(estimate, theoretical_cf(estimate.u, p)).max_abs_z <= 3.0


def test_scenery_determinism_and_key_independence():
    p = StableParams(beta=1.5, sigma=1.0)
    sites = np.arange(-50, 50)
    for kind in SceneryKind:
        a = Scenery(kind, p, key=99).values_at(sites)
        b = Scenery(kind, p, key=99).values_at(sites)
        assert np.array_equal(a, b)
        other = Scenery(kind, p, key=100).values_at(sites)
        assert not np.array_equal(a, other)


def test_scenery_getitem_matches_bulk():
    scenery = Scenery(SceneryKind.EXACT_STABLE, StableParams(beta=1.2), key=5)
    bulk = scenery.values_at([-3, 0, 11])
    assert [scenery[-3], scenery[0], scenery[11]] == pytest.approx(list(bulk), rel=0)


@pytest.mark.parametrize("kind", list(SceneryKind))
def test_keyed_values_over_key_array_match_values_at(kind):
    # one hashed pass over (row, site) pairs of several keys, keys wrapping
    # modulo 2**64, gives each key's values_at byte for byte
    p = StableParams(beta=1.3, sigma=0.8)
    keys = [2**64 - 1, 2**64 - 2, 0, 12345, 2**63]
    sceneries = [Scenery(kind, p, key=k) for k in keys]
    sites = np.arange(-40, 41, dtype=np.int64)
    rows = np.repeat(np.arange(len(keys)), sites.size)
    key_array = np.asarray(keys, dtype=np.uint64)[rows]
    got = stable_mod._keyed_values(kind, p, key_array, np.tile(sites, len(keys)))
    expect = np.concatenate([s.values_at(sites) for s in sceneries])
    assert got.tobytes() == expect.tobytes()
    # a key is taken modulo 2**64
    assert Scenery(kind, p, key=-1).values_at(sites).tobytes() == expect[: sites.size].tobytes()


def _mix64_reference(z):
    # the SplitMix64 finalizer written out with fresh temporaries
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def test_site_uniforms_key_array_match_scalar_key_hash():
    # the hash written per lane with a Python-int key, as a per-key reference
    sites = np.arange(-40, 41, dtype=np.int64).view(np.uint64)
    keys = [2**64 - 1, 2**64 - 3, 7]
    got = stable_mod._site_uniforms(
        np.repeat(np.asarray(keys, dtype=np.uint64), sites.size), np.tile(sites, len(keys))
    )
    for lane in (1, 2):
        for i, key in enumerate(keys):
            base = np.uint64((key + lane * stable_mod._LANE) & (2**64 - 1))
            z = base + sites * stable_mod._GOLDEN
            bits = _mix64_reference(_mix64_reference(z + stable_mod._GOLDEN))
            expect = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            assert got[lane - 1, i * sites.size : (i + 1) * sites.size].tobytes() == expect.tobytes()


def test_pareto_rejects_beta_two():
    with pytest.raises(UsageError):
        pareto_scale(StableParams(beta=2.0))
    with pytest.raises(UsageError):
        Scenery(SceneryKind.SYMMETRIC_PARETO, StableParams(beta=2.0), key=1)


def test_pareto_tail_exponent():
    # P(|xi| > x) = (s/x)^beta for x >= s, by construction of the inverse-power draw
    beta = 1.5
    p = StableParams(beta=beta, sigma=1.0)
    scale = pareto_scale(p)
    values = Scenery(SceneryKind.SYMMETRIC_PARETO, p, key=40).values_at(np.arange(200_000))
    magnitudes = np.abs(values)
    assert magnitudes.min() >= scale
    for factor in (2.0, 5.0):
        observed = np.mean(magnitudes > factor * scale)
        expected = factor**-beta
        se = math.sqrt(expected * (1.0 - expected) / magnitudes.size)
        assert abs(observed - expected) <= 3.5 * se
    # symmetric signs
    assert abs(np.mean(values > 0) - 0.5) <= 3.0 * math.sqrt(0.25 / values.size)


def _normalized_scenery_sums(kind, beta, n, replicates, key0):
    p = StableParams(beta=beta, sigma=1.0)
    sites = np.arange(n + 1)
    sums = np.empty(replicates)
    for i in range(replicates):
        sums[i] = Scenery(kind, p, key=key0 + i).values_at(sites).sum()
    return n ** (-1.0 / beta) * sums, p


@pytest.mark.parametrize(
    "kind,beta,n",
    [
        (SceneryKind.EXACT_STABLE, 1.0, 256),
        (SceneryKind.EXACT_STABLE, 2.0, 256),
        (SceneryKind.SYMMETRIC_PARETO, 1.0, 10_000),
        (SceneryKind.SYMMETRIC_PARETO, 1.5, 10_000),
    ],
)
def test_normalized_sums_attracted_to_stable_law(kind, beta, n):
    # n^(-1/beta) sums of scenery values over n+1 sites approach the
    # target stable law; exact sceneries hit it at every n, Pareto ones
    # only in the limit, so they get the larger n
    normalized, p = _normalized_scenery_sums(kind, beta, n, replicates=2000, key0=1_000)
    estimate = ecf(normalized, [0.5, 1.0, 2.0])
    assert cf_compare(estimate, theoretical_cf(estimate.u, p)).max_abs_z <= 3.0


@pytest.mark.parametrize("beta", [0.7, 1.0, 1.5, 2.0])
def test_stable_rows_match_per_generator_draws(beta):
    params = StableParams(beta=beta, sigma=1.3)
    got = stable_mod._stable_rows(params, [spawn_rng(41, i) for i in range(5)], 37)
    expect = np.stack([sample_stable(params, spawn_rng(41, i), size=37) for i in range(5)])
    assert got.tobytes() == expect.tobytes()
