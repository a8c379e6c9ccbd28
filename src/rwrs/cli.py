"""Command-line front end: configuration, orchestration, CSV emission.

Every subcommand resolves one flat configuration (defaults <- RWRS_SEED
environment override <- config file <- flags), runs a seeded experiment
and writes CSV with ``#``-prefixed header lines recording the resolved
configuration.  Worker count and output location are runtime knobs, not
configuration: they never appear in the header and never change a byte
of the emitted table.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 failed
acceptance check (``scaling``/``ecf-check`` under ``--assert``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, IO, Sequence

from . import __version__
from .errors import NumericalError, UsageError
from .experiments import (
    functional_experiment,
    scaling_experiment,
    schema_ecf_check,
    schema_samples,
    stable_motion_samples,
    walk_variance,
)
from .local_times import SITE_CEIL, SITE_FLOOR
from .model import (
    ModelParams, SchemaConfig, check_error_replicates, check_finite, check_pareto_beta, check_sizes,
)
from .stable import SceneryKind

__all__ = ["RunConfig", "parse_config", "run", "main"]

_COMMANDS = ("walk", "rwrs", "scaling", "ks-stat", "delta", "gamma", "schema", "ecf-check")

_CSV_DOC = {
    "walk": "replicate, s_n (final walk position)",
    "rwrs": "replicate, t, value (rescaled reward process D_n)",
    "scaling": "n, mean_Vn, se_Vn, mean_Rn, se_Rn, median_Ln_scaled",
    "ks-stat": "replicate, x_n, x_limit (walk functional and limit energy draws)",
    "delta": "replicate, t, value (local-time stable integral)",
    "gamma": "replicate, t, value (superposed local-time stable motion)",
    "schema": "replicate, t, value (superposed reward schema G_n)",
    "ecf-check": "u, ecf_re, ecf_se, target, z",
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; every field lands in the CSV header
    except the runtime knobs ``output``, ``jobs`` and ``assert_mode``."""

    command: str
    hurst: float = 0.5
    beta: float = 2.0
    sigma: float = 1.0
    n: int = 2048
    cn: int = 32
    m: int = 4096
    bins: int = 512
    replicates: int = 500
    oracle_replicates: int = 2000
    times: tuple[float, ...] = (0.25, 0.5, 1.0)
    u: tuple[float, ...] = (0.5, 1.0, 2.0)
    seed: int = 0
    scenery: str = "stable"
    site_convention: str = SITE_CEIL
    output: str | None = None
    jobs: int | None = None
    assert_mode: bool = False

    @property
    def model(self) -> ModelParams:
        return ModelParams(hurst=self.hurst, beta=self.beta, sigma=self.sigma)

    @property
    def kind(self) -> SceneryKind:
        return SceneryKind(self.scenery)

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)


def _parse_float_list(name: str, text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"{name}: expected comma-separated reals, got {text!r}") from exc
    if not values:
        raise UsageError(f"{name} must not be empty")
    return values


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError as exc:
        raise UsageError(f"{name}: expected an integer, got {text!r}") from exc


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"{name}: expected a real number, got {text!r}") from exc


# field name -> parser for config-file values
_FILE_FIELDS: dict[str, Callable[[str, str], object]] = {
    "hurst": _parse_float,
    "beta": _parse_float,
    "sigma": _parse_float,
    "n": _parse_int,
    "cn": _parse_int,
    "m": _parse_int,
    "bins": _parse_int,
    "replicates": _parse_int,
    "oracle_replicates": _parse_int,
    "times": _parse_float_list,
    "u": _parse_float_list,
    "seed": _parse_int,
    "scenery": lambda name, text: text,
    "site_convention": lambda name, text: text,
    "output": lambda name, text: text,
    "jobs": _parse_int,
}


def _read_config_file(path: str) -> dict[str, object]:
    """Flat ``key = value`` pairs, one per line, ``#`` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, text = body.partition("=")
        key = key.strip()
        if key not in _FILE_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _FILE_FIELDS[key](key, text.strip())
    return values


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage errors through UsageError
    (exit code 1) instead of argparse's default SystemExit(2)."""

    def error(self, message: str) -> None:
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rwrs", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rwrs {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("configuration (flag > config file > RWRS_SEED > default)")
    group.add_argument("--config", metavar="FILE", help="flat key = value config file, # comments")
    group.add_argument("--hurst", type=float, help="Hurst index in (0, 1), default 0.5")
    group.add_argument("--beta", type=float, help="stability index in (0, 2], default 2")
    group.add_argument("--sigma", type=float, help="stable scale > 0, default 1")
    group.add_argument("--n", type=int, help="walk time scale, default 2048")
    group.add_argument("--cn", type=int, help="number of superposed copies, default 32")
    group.add_argument("--m", type=int, help="fBm grid steps per unit time, default 4096")
    group.add_argument("--bins", type=int, help="local-time spatial bins, default 512")
    group.add_argument("--replicates", type=int, help="Monte Carlo replicates, default 500")
    group.add_argument(
        "--oracle-replicates", type=int, dest="oracle_replicates",
        help="replicates for the limit-energy oracle, default 2000",
    )
    group.add_argument("--times", type=str, help="comma-separated evaluation times, default 0.25,0.5,1")
    group.add_argument("--u", type=str, help="comma-separated CF frequencies, default 0.5,1,2")
    group.add_argument("--seed", type=int, help="master seed (64-bit), default 0 or RWRS_SEED")
    group.add_argument("--scenery", choices=["stable", "pareto"], help="scenery kind, default stable")
    group.add_argument(
        "--site-convention", choices=[SITE_CEIL, SITE_FLOOR], dest="site_convention",
        help="lattice site map applied to walk positions, default ceil",
    )
    group.add_argument("--output", metavar="FILE", help="CSV destination, default stdout")
    group.add_argument("--jobs", type=int, help="worker processes, default all cores; never affects results")

    sub = parser.add_subparsers(dest="command", metavar="command")
    descriptions = {
        "walk": "Sample the dependent Gaussian walk and report Var(S_n) / n**(2H).",
        "rwrs": "Sample rescaled reward processes D_n(t) = n**(-delta) Z_nt.",
        "scaling": "Fit growth exponents of self-intersections V_n and range R_n; "
        "track the rescaled maximum local time.",
        "ks-stat": "Compare the normalized occupation functional of the walk at theta = 1, "
        "t = max(times) against the limit beta-energy (KS distance, mean error).",
        "delta": "Sample the local-time stable integral at the given times.",
        "gamma": "Sample the normalized superposition of cn local-time stable integrals.",
        "schema": "Sample the superposed reward schema G_n at the given times.",
        "ecf-check": "Empirical CF of the schema at t = 1 against the limit CF target.",
    }
    for name in _COMMANDS:
        p = sub.add_parser(
            name,
            parents=[common],
            description=descriptions[name],
            epilog=f"CSV columns: {_CSV_DOC[name]}",
        )
        if name in ("scaling", "ecf-check"):
            p.add_argument(
                "--assert", action="store_true", dest="assert_mode",
                help="exit 3 unless the acceptance windows hold",
            )
    return parser


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """Resolve a run configuration from argv, file, environment, defaults."""
    namespace = _build_parser().parse_args(argv)
    if namespace.command is None:
        raise UsageError(f"missing command; choose one of {', '.join(_COMMANDS)}")
    values: dict[str, object] = {}
    env_seed = os.environ.get("RWRS_SEED")
    if env_seed is not None:
        values["seed"] = _parse_int("RWRS_SEED", env_seed)
    if namespace.config is not None:
        values.update(_read_config_file(namespace.config))
    for field in _FILE_FIELDS:
        flag_value = getattr(namespace, field)
        if flag_value is not None:
            values[field] = _parse_float_list(field, flag_value) if field in ("times", "u") else flag_value
    values["assert_mode"] = bool(getattr(namespace, "assert_mode", False))
    config = RunConfig(command=namespace.command, **values)
    _validate(config)
    return config


def _validate(cfg: RunConfig) -> None:
    # the model's domains come from rwrs.model; the rules below are the CLI's own
    cfg.model
    SchemaConfig(n=cfg.n, copies=cfg.cn, times=cfg.times)
    check_sizes(m=cfg.m, bins=cfg.bins)
    check_error_replicates("replicates", cfg.replicates)
    check_error_replicates("oracle_replicates", cfg.oracle_replicates)
    check_finite("u", cfg.u)
    if not 0 <= cfg.seed < 2**64:
        raise UsageError(f"seed must be a 64-bit nonnegative integer, got {cfg.seed}")
    if cfg.scenery not in ("stable", "pareto"):
        raise UsageError(f"scenery must be 'stable' or 'pareto', got {cfg.scenery!r}")
    if cfg.scenery == "pareto":
        check_pareto_beta(cfg.beta)
    if cfg.site_convention not in (SITE_CEIL, SITE_FLOOR):
        raise UsageError(f"site_convention must be 'ceil' or 'floor', got {cfg.site_convention!r}")
    if cfg.jobs is not None and cfg.jobs < 1:
        raise UsageError(f"jobs must be a positive integer, got {cfg.jobs}")


# --- CSV emission --------------------------------------------------------

_HEADER_FIELDS = (
    "command", "hurst", "beta", "sigma", "n", "cn", "m", "bins", "replicates",
    "oracle_replicates", "times", "u", "seed", "scenery", "site_convention",
)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _write_csv(stream: IO[str], cfg: RunConfig, columns: Sequence[str], rows) -> None:
    stream.write(f"# rwrs {__version__}\n")
    for field in _HEADER_FIELDS:
        stream.write(f"# {field}={_format_value(getattr(cfg, field))}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(cell) for cell in row) + "\n")


def _verdict(cfg: RunConfig, summary: str, windows: dict[str, bool]) -> tuple[str, int]:
    """The summary, naming the failed acceptance windows, and the exit code:
    3 under ``--assert`` when a window fails."""
    failed = [name for name, holds in windows.items() if not holds]
    if not failed:
        return summary, 0
    return f"{summary}; failed: {'; '.join(failed)}", 3 if cfg.assert_mode else 0


def _sample_rows(times: Sequence[float], samples) -> list[tuple[int, float, float]]:
    return [
        (int(i), float(t), float(samples[i, j]))
        for i in range(samples.shape[0])
        for j, t in enumerate(times)
    ]


# --- command runners -----------------------------------------------------


def _run_walk(cfg: RunConfig):
    result = walk_variance(cfg.n, cfg.hurst, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs())
    rows = [(i, float(v)) for i, v in enumerate(result.finals)]
    summary = (
        f"walk: Var(S_n)/n^(2H) = {result.ratio:.4f} +- {result.se_ratio:.4f} "
        f"(n={cfg.n}, H={cfg.hurst}, M={cfg.replicates})"
    )
    return ("replicate", "s_n"), rows, summary, 0


def _run_rwrs(cfg: RunConfig):
    # D_n is the one-copy schema
    samples = schema_samples(
        cfg.model, cfg.n, 1, cfg.times, cfg.replicates, cfg.seed,
        jobs=cfg.resolved_jobs(), kind=cfg.kind, convention=cfg.site_convention,
    )
    summary = (
        f"rwrs: {cfg.replicates} draws of D_n at {len(cfg.times)} times "
        f"(n={cfg.n}, H={cfg.hurst}, beta={cfg.beta}, scenery={cfg.scenery})"
    )
    return ("replicate", "t", "value"), _sample_rows(cfg.times, samples), summary, 0


def _run_scaling(cfg: RunConfig):
    result = scaling_experiment(
        cfg.hurst, cfg.beta, cfg.replicates, cfg.seed,
        jobs=cfg.resolved_jobs(), convention=cfg.site_convention,
    )
    rows = [
        (n, float(result.mean_v[i]), float(result.se_v[i]),
         float(result.mean_r[i]), float(result.se_r[i]), float(result.median_scaled[i]))
        for i, n in enumerate(result.horizons)
    ]
    summary = (
        f"scaling: V slope {result.v_fit.slope:.3f} (target {2.0 - cfg.hurst:.2f}), "
        f"R slope {result.r_fit.slope:.3f} (target {cfg.hurst:.2f})"
    )
    columns = ("n", "mean_Vn", "se_Vn", "mean_Rn", "se_Rn", "median_Ln_scaled")
    return (columns, rows, *_verdict(cfg, summary, result.windows()))


def _run_ks_stat(cfg: RunConfig):
    t_eval = cfg.times[-1]
    result = functional_experiment(
        cfg.model, cfg.n, [1.0], [t_eval], cfg.m, cfg.bins, cfg.replicates, cfg.seed,
        jobs=cfg.resolved_jobs(), convention=cfg.site_convention,
    )
    rows = [
        (i, float(a), float(b))
        for i, (a, b) in enumerate(zip(result.discrete, result.limit))
    ]
    summary = (
        f"ks-stat: KS = {result.ks:.4f}, mean X_n = {result.mean_discrete:.4f}, "
        f"limit energy = {result.energy_mean:.4f} +- {result.energy_se:.4f} "
        f"(theta=1, t={t_eval}, n={cfg.n})"
    )
    return ("replicate", "x_n", "x_limit"), rows, summary, 0


def _run_delta(cfg: RunConfig):
    samples = stable_motion_samples(
        cfg.model, 1, cfg.times, cfg.m, cfg.bins, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs()
    )
    summary = (
        f"delta: {cfg.replicates} draws of the local-time stable integral at "
        f"{len(cfg.times)} times (H={cfg.hurst}, beta={cfg.beta})"
    )
    return ("replicate", "t", "value"), _sample_rows(cfg.times, samples), summary, 0


def _run_gamma(cfg: RunConfig):
    samples = stable_motion_samples(
        cfg.model, cfg.cn, cfg.times, cfg.m, cfg.bins, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs()
    )
    summary = (
        f"gamma: {cfg.replicates} draws of the {cfg.cn}-copy stable motion at "
        f"{len(cfg.times)} times (H={cfg.hurst}, beta={cfg.beta})"
    )
    return ("replicate", "t", "value"), _sample_rows(cfg.times, samples), summary, 0


def _run_schema(cfg: RunConfig):
    samples = schema_samples(
        cfg.model, cfg.n, cfg.cn, cfg.times, cfg.replicates, cfg.seed,
        jobs=cfg.resolved_jobs(), kind=cfg.kind, convention=cfg.site_convention,
    )
    summary = (
        f"schema: {cfg.replicates} draws of G_n at {len(cfg.times)} times "
        f"(n={cfg.n}, cn={cfg.cn}, H={cfg.hurst}, beta={cfg.beta}, scenery={cfg.scenery})"
    )
    return ("replicate", "t", "value"), _sample_rows(cfg.times, samples), summary, 0


def _run_ecf_check(cfg: RunConfig):
    result = schema_ecf_check(
        cfg.model, cfg.n, cfg.cn, cfg.u, cfg.m, cfg.bins, cfg.replicates,
        cfg.oracle_replicates, cfg.seed,
        jobs=cfg.resolved_jobs(), kind=cfg.kind, convention=cfg.site_convention,
    )
    summary = (
        f"ecf-check: max |z| = {result.comparison.max_abs_z:.3f} over u={_format_value(cfg.u)} "
        f"(energy = {result.energy_mean:.4f} +- {result.energy_se:.4f})"
    )
    columns = ("u", "ecf_re", "ecf_se", "target", "z")
    return (columns, result.rows(), *_verdict(cfg, summary, result.comparison.windows()))


_RUNNERS = {
    "walk": _run_walk,
    "rwrs": _run_rwrs,
    "scaling": _run_scaling,
    "ks-stat": _run_ks_stat,
    "delta": _run_delta,
    "gamma": _run_gamma,
    "schema": _run_schema,
    "ecf-check": _run_ecf_check,
}


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    columns, rows, summary, code = _RUNNERS[cfg.command](cfg)
    if cfg.output is None:
        _write_csv(sys.stdout, cfg, columns, rows)
        print(summary, file=sys.stderr)
    else:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            _write_csv(handle, cfg, columns, rows)
        print(summary)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except UsageError as exc:
        print(f"rwrs: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"rwrs: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
