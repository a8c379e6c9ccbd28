"""Dependent Gaussian walks in heavy-tailed random scenery.

Simulation of the random rewards schema (long-range-dependent walks
collecting beta-stable site rewards) together with a Monte Carlo oracle
for its limit (exact at beta = 2), the local-time fractional stable motion, and the
statistics needed to verify the convergence numerically.
"""

from .errors import NumericalError, UsageError
from .experiments import (
    EcfCheckResult,
    FunctionalResult,
    ScalingResult,
    WalkVarianceResult,
    functional_experiment,
    limit_cf_check,
    scaling_experiment,
    schema_copy_samples,
    schema_ecf_check,
    schema_samples,
    stable_motion_samples,
    walk_variance,
)
from .fgn import FbmGrid, WalkPath, fgn_covariance, sample_fbm, sample_fgn, sample_walk
from .limit import (
    LocalTimeGrid,
    estimate_power_integral_mean,
    exact_energy,
    fbm_local_time,
    limit_cf_target,
    local_time_power_integral,
    power_integral_draws,
    sample_local_time_integral,
    sample_stable_motion,
)
from .local_times import (
    LocalTimeProfile,
    RewardSeries,
    SITE_CEIL,
    SITE_FLOOR,
    interpolate,
    local_time_functional,
    local_time_profiles,
    max_local_time,
    occupation_reward,
    range_count,
    reward_series,
    self_intersections,
    site_of,
)
from .model import ModelParams, SchemaConfig, delta_exponent
from .schema import sample_reward_process, sample_reward_schema, superpose
from .stable import (
    Scenery,
    SceneryKind,
    StableParams,
    pareto_scale,
    sample_stable,
    theoretical_cf,
)
from .stats import CfComparison, EcfEstimate, SlopeFit, cf_compare, ecf, ks_distance, slope_fit

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "UsageError",
    "NumericalError",
    "ModelParams",
    "SchemaConfig",
    "delta_exponent",
    "StableParams",
    "SceneryKind",
    "Scenery",
    "sample_stable",
    "theoretical_cf",
    "pareto_scale",
    "fgn_covariance",
    "sample_fgn",
    "sample_walk",
    "WalkPath",
    "sample_fbm",
    "FbmGrid",
    "site_of",
    "SITE_CEIL",
    "SITE_FLOOR",
    "LocalTimeProfile",
    "local_time_profiles",
    "max_local_time",
    "self_intersections",
    "range_count",
    "RewardSeries",
    "reward_series",
    "occupation_reward",
    "interpolate",
    "local_time_functional",
    "LocalTimeGrid",
    "fbm_local_time",
    "local_time_power_integral",
    "power_integral_draws",
    "exact_energy",
    "estimate_power_integral_mean",
    "limit_cf_target",
    "sample_local_time_integral",
    "sample_stable_motion",
    "sample_reward_process",
    "sample_reward_schema",
    "superpose",
    "EcfEstimate",
    "ecf",
    "CfComparison",
    "cf_compare",
    "SlopeFit",
    "slope_fit",
    "ks_distance",
    "WalkVarianceResult",
    "walk_variance",
    "schema_copy_samples",
    "schema_samples",
    "stable_motion_samples",
    "ScalingResult",
    "scaling_experiment",
    "FunctionalResult",
    "functional_experiment",
    "EcfCheckResult",
    "limit_cf_check",
    "schema_ecf_check",
]
