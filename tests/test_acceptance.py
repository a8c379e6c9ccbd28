"""Acceptance suite: one test per headline claim, at fixed desk-scale configs.

Every test prints a single verdict line (bypassing capture) so a plain
``pytest -v`` run shows the measured numbers next to each criterion,
then asserts the stated tolerance.  All randomness is keyed off SEED,
so the suite is deterministic.  The windows do not share one level
across reseeding.  Criteria 2, 6 and 7 hold each z within 3 standard
errors.  Criterion 1's +-5% is about 1.6 sigma of the sample variance
of 2000 walks (seeds 0-29 miss it 5 times), and criterion 8's 10% is
about 1.7 sigma of the IQR ratio of 500 draws.  Sizing every window
from its own standard error is item 6 of ROADMAP.md.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from rwrs import (
    ModelParams,
    StableParams,
    brownian_energy,
    cf_compare,
    ecf,
    estimate_power_integral_mean,
    exact_energy,
    functional_experiment,
    limit_cf_check,
    power_integral_draws,
    sample_stable,
    scaling_experiment,
    schema_samples,
    stable_motion_samples,
    theoretical_cf,
    walk_variance,
)
from rwrs import experiments, limit, stats
from rwrs.streams import spawn_rng

SEED = 0

# limit-oracle discretization shared by the CF criteria (the anchor
# criterion below checks its raw box counts against the closed form)
ORACLE_M = 4096
ORACLE_BINS = 512
ORACLE_REPLICATES = 2000

CF_FREQS = (0.5, 1.0)
PAIRS = ((0.5, 2.0), (0.7, 1.5))


def announce(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}", flush=True)


@pytest.fixture(scope="module")
def energy_estimates():
    """Mean beta-energy of fBm local time, per (H, beta): exact at beta = 2."""
    return {
        (hurst, beta): estimate_power_integral_mean(
            hurst, beta, [1.0], [1.0], ORACLE_M, ORACLE_BINS, ORACLE_REPLICATES, SEED
        )
        for hurst, beta in PAIRS
    }


@pytest.fixture(scope="module")
def motion_half_one():
    """500 draws of the 32-copy limit superposition at t in {0.5, 1}."""
    model = ModelParams(hurst=0.5, beta=2.0)
    return stable_motion_samples(model, 32, [0.5, 1.0], ORACLE_M, ORACLE_BINS, 500, SEED)


def test_acceptance_windows_are_pinned():
    # criteria 2, 3, 6 and 7 read their windows from the result objects, so
    # the windows' values are pinned here: loosening one fails this test
    assert stats.Z_WINDOW == 3.0
    assert experiments.SLOPE_TOLERANCE == 0.1
    comparison = lambda z: stats.CfComparison(z=np.array([z]), max_abs_z=abs(z), flagged=np.array([abs(z) > 3.0]))
    assert all(comparison(-3.0).windows().values())
    assert not any(comparison(3.001).windows().values())
    assert not any(comparison(float("nan")).windows().values())

    result = scaling_experiment(0.5, 2.0, 4, SEED, slope_grid=(8, 16, 32), median_grid=(8, 16, 32))
    fit = lambda slope: dataclasses.replace(result.v_fit, slope=slope)
    windows = lambda v, r: list(dataclasses.replace(result, v_fit=fit(v), r_fit=fit(r)).windows().values())[:2]
    assert windows(1.59, 0.41) == [True, True]
    assert windows(1.41, 0.59) == [True, True]
    assert windows(1.61, 0.5) == [False, True]
    assert windows(1.5, 0.39) == [True, False]
    ladder = lambda values: dataclasses.replace(result, median_scaled=np.array(values)).windows()
    assert ladder([2.0, 1.0, 0.5])["median ladder decreasing"]
    assert not ladder([2.0, 1.0, 1.0])["median ladder decreasing"]


def test_criterion_1_walk_variance_normalization(capsys):
    ratios = {}
    for hurst in (0.3, 0.5, 0.7):
        ratios[hurst] = walk_variance(1024, hurst, 2000, SEED).ratio
    ok = all(0.95 <= r <= 1.05 for r in ratios.values())
    detail = ", ".join(f"H={h}: {r:.4f}" for h, r in ratios.items())
    announce(capsys, f"criterion 1 (walk variance / n^2H in [0.95, 1.05]): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, ratios


def test_criterion_2_stable_sampler_cf(capsys):
    u = [0.5, 1.0, 2.0]
    worst_re = worst_im = 0.0
    ok = True
    for beta in (1.0, 1.5, 2.0):
        params = StableParams(beta=beta, sigma=1.0)
        draws = sample_stable(params, spawn_rng(SEED, int(10 * beta)), 100_000)
        estimate = ecf(draws, u)
        real = cf_compare(estimate, theoretical_cf(estimate.u, params))
        # the symmetric law's CF is real: the sine part's target is 0
        imag = cf_compare(dataclasses.replace(estimate, re=estimate.im, se=estimate.se_im), 0.0)
        ok &= all(real.windows().values()) and all(imag.windows().values())
        worst_re = max(worst_re, real.max_abs_z)
        worst_im = max(worst_im, imag.max_abs_z)
    announce(capsys, f"criterion 2 (stable sampler ECF within 3 SE): "
                     f"{'PASS' if ok else 'FAIL'} [max|z| re={worst_re:.2f}, im={worst_im:.2f}]")
    assert ok, (worst_re, worst_im)


def test_criterion_3_occupation_scaling_exponents(capsys):
    slope_ok = True
    ladder_ok = True
    details = []
    for hurst, beta in ((0.3, 2.0),) + PAIRS:
        result = scaling_experiment(hurst, beta, 500, SEED)
        windows = result.windows()
        ladder_holds = windows.pop("median ladder decreasing")
        slope_ok &= all(windows.values())
        details.append(f"H={hurst}: V {result.v_fit.slope:.3f}, R {result.r_fit.slope:.3f}")
        if (hurst, beta) in PAIRS:
            ladder_ok &= ladder_holds
    ok = slope_ok and ladder_ok
    announce(capsys, f"criterion 3 (V_n, R_n exponents +-0.1; max-local-time ladder decreasing): "
                     f"{'PASS' if ok else 'FAIL'} [{'; '.join(details)}; ladders decreasing={ladder_ok}]")
    assert ok


def test_criterion_4_brownian_local_time_oracle(capsys):
    # independent check of the closed form 8/(3 sqrt(2 pi)) by midpoint
    # quadrature of 2 * int_0^1 int_0^u (2 pi (u - s))^(-1/2) ds du
    points = 4000
    w = (np.arange(points) + 0.5) / points
    inner_at_u = lambda u: np.sum((2.0 * np.pi * u * w) ** -0.5) * (u / points)
    grid = (np.arange(points) + 0.5) / points
    quadrature = 2.0 * np.mean([inner_at_u(u) for u in grid])
    closed_form = exact_energy(0.5, [1.0], [1.0])
    assert abs(quadrature - closed_form) / closed_form <= 5e-3

    # the raw box counts against the closed forms: the oracle's estimate at
    # beta = 2 is exact_energy, and at H = 1/2 brownian_energy holds at every beta
    details, biases = [], []
    for beta, exact in ((2.0, closed_form), (1.5, brownian_energy(1.5, [1.0], [1.0]))):
        draws = power_integral_draws(0.5, beta, [1.0], [1.0], ORACLE_M, ORACLE_BINS, ORACLE_REPLICATES, SEED)
        mean, se = limit._mean_se(draws)
        biases.append((mean - exact) / exact)
        details.append(f"beta={beta}: raw={mean:.4f} +- {se:.4f}, exact={exact:.4f}, "
                       f"rel bias={biases[-1]:+.3f}")
    ok = all(abs(bias) <= 0.10 for bias in biases)
    announce(capsys, f"criterion 4 (Brownian local-time energy box count within 10% of its closed form): "
                     f"{'PASS' if ok else 'FAIL'} [{'; '.join(details)}]")
    assert ok, details


def test_criterion_5_functional_distribution_convergence(capsys):
    # finer limit-side grid than the oracle anchor: the reference sample
    # should carry as little discretization bias as the budget allows
    result = functional_experiment(
        ModelParams(hurst=0.5, beta=2.0), 4096, [1.0], [1.0], 32768, 1024, 500, SEED
    )
    ok = result.ks < 0.12 and result.relative_mean_error < 0.15
    announce(capsys, f"criterion 5 (occupation functional vs limit energy, KS < 0.12, "
                     f"mean error < 0.15): {'PASS' if ok else 'FAIL'} "
                     f"[KS={result.ks:.4f}, rel mean={result.relative_mean_error:.4f}]")
    assert ok, (result.ks, result.relative_mean_error)


def test_criterion_6_limit_superposition_cf(capsys, energy_estimates, motion_half_one):
    zs = {}
    ok = True
    for hurst, beta in PAIRS:
        model = ModelParams(hurst=hurst, beta=beta)
        if (hurst, beta) == (0.5, 2.0):
            samples = motion_half_one[:, 1]
        else:
            samples = stable_motion_samples(model, 32, [1.0], ORACLE_M, ORACLE_BINS, 500, SEED)[:, 0]
        comparison = limit_cf_check(samples, model, CF_FREQS, *energy_estimates[(hurst, beta)]).comparison
        ok &= all(comparison.windows().values())
        zs[(hurst, beta)] = comparison.max_abs_z
    detail = ", ".join(f"(H,b)={k}: {v:.2f}" for k, v in zs.items())
    announce(capsys, f"criterion 6 (32-copy limit superposition CF within 3 SE): "
                     f"{'PASS' if ok else 'FAIL'} [max|z| {detail}]")
    assert ok, zs


def test_criterion_7_schema_cf(capsys, energy_estimates):
    criterion_z = {}
    ok = True
    for hurst, beta in PAIRS:
        model = ModelParams(hurst=hurst, beta=beta)
        samples = schema_samples(model, 2048, 32, [1.0], 500, SEED)[:, 0]
        comparison = limit_cf_check(samples, model, CF_FREQS, *energy_estimates[(hurst, beta)]).comparison
        ok &= all(comparison.windows().values())
        criterion_z[(hurst, beta)] = comparison.max_abs_z
    detail = ", ".join(f"(H,b)={k}: {v:.2f}" for k, v in criterion_z.items())
    announce(capsys, f"criterion 7 (reward schema CF at n=2048, c=32 within 3 SE): "
                     f"{'PASS' if ok else 'FAIL'} [max|z| {detail}]")
    assert ok, criterion_z


def test_criterion_8_limit_self_similarity(capsys, motion_half_one):
    def iqr(values):
        hi, lo = np.percentile(values, [75, 25])
        return hi - lo

    model = ModelParams(hurst=0.5, beta=2.0)
    ratio = iqr(motion_half_one[:, 0]) / iqr(motion_half_one[:, 1])
    target = 2.0 ** (-model.delta)
    rel = abs(ratio - target) / target
    ok = rel <= 0.10
    announce(capsys, f"criterion 8 (IQR self-similarity ratio within 10% of 2^-delta = "
                     f"{target:.4f}): {'PASS' if ok else 'FAIL'} [ratio={ratio:.4f}, rel={rel:.3f}]")
    assert ok, (ratio, target)


def test_criterion_9_cli_byte_determinism(capsys, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "RWRS_SEED"}

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "rwrs", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    # 40 replicates are three blocks of replicates, so --jobs 2 and 3
    # split them between workers
    checks = {}
    for args in (
        ("schema", "--n", "64", "--cn", "4", "--replicates", "40"),
        ("rwrs", "--n", "64", "--replicates", "40"),
        ("scaling", "--replicates", "10"),
        ("walk", "--n", "64", "--replicates", "40"),
        ("gamma", "--cn", "2", "--m", "64", "--bins", "16", "--replicates", "40"),
        ("ks-stat", "--n", "64", "--m", "64", "--bins", "16", "--replicates", "40"),
        ("delta", "--m", "64", "--bins", "16", "--replicates", "40"),
        ("ecf-check", "--n", "64", "--cn", "2", "--m", "64", "--bins", "16", "--replicates", "40",
         "--oracle-replicates", "40"),
    ):
        outputs = {jobs: run(*args, "--jobs", jobs) for jobs in ("1", "2", "3")}
        checks[args[0]] = outputs["1"] == outputs["2"] == outputs["3"]
    ok = all(checks.values())
    detail = ", ".join(f"{name}={same}" for name, same in checks.items())
    announce(capsys, f"criterion 9 (byte-identical CSV for any --jobs): "
                     f"{'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok
