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
import functools
import math
import os
import re
import sys
from typing import Callable, IO, NamedTuple, Sequence

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
from .limit import exact_energy
from .model import ModelParams, SchemaConfig, check_error_replicates, check_finite, check_sizes
from .stable import SceneryKind, check_scenery_kind

__all__ = ["RunConfig", "parse_config", "run", "main"]


# --- configuration fields ------------------------------------------------


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


def _option(default, parse: Callable[[str, str], object], help: str, knob: bool = False):
    """A configuration field that is an option: the flag --name (underscores
    as dashes) and the config-file key name, whose text ``parse`` reads.
    --help shows ``help`` and the default.  A runtime ``knob`` stays out of
    the CSV header."""
    return dataclasses.field(default=default, metadata={"parse": parse, "help": help, "knob": knob})


def _choice(default: str, help: str, *choices: str):
    def parse(name: str, text: str) -> str:
        if text not in choices:
            raise UsageError(f"{name} must be {' or '.join(map(repr, choices))}, got {text!r}")
        return text

    return _option(default, parse, f"{help} ({' or '.join(choices)})")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration, and the one table of options: every
    field but ``command`` and ``assert_mode`` is one, and every field but
    the runtime knobs ``output``, ``jobs`` and ``assert_mode`` lands in the
    CSV header."""

    command: str
    hurst: float = _option(0.5, _parse_float, "Hurst index in (0, 1)")
    beta: float = _option(2.0, _parse_float, "stability index in (0, 2]")
    sigma: float = _option(1.0, _parse_float, "stable scale > 0")
    n: int = _option(2048, _parse_int, "walk time scale")
    cn: int = _option(32, _parse_int, "number of superposed copies")
    m: int = _option(4096, _parse_int, "fBm grid steps per unit time")
    bins: int = _option(512, _parse_int, "local-time spatial bins")
    replicates: int = _option(500, _parse_int, "Monte Carlo replicates")
    oracle_replicates: int = _option(
        2000, _parse_int, "replicates for the limit-energy oracle, used below beta = 2 only (exact at 2)"
    )
    times: tuple[float, ...] = _option(
        (0.25, 0.5, 1.0), _parse_float_list, "comma-separated evaluation times"
    )
    u: tuple[float, ...] = _option((0.5, 1.0, 2.0), _parse_float_list, "comma-separated CF frequencies")
    seed: int = _option(0, _parse_int, "64-bit master seed (RWRS_SEED overrides the default)")
    scenery: str = _choice(
        SceneryKind.EXACT_STABLE.value, "scenery kind", *(kind.value for kind in SceneryKind)
    )
    output: str | None = _option(
        None, lambda name, text: text, "CSV destination, default stdout", knob=True
    )
    jobs: int | None = _option(
        None, _parse_int,
        "worker processes, default the CPUs this process may run on; never affects results", knob=True,
    )
    assert_mode: bool = dataclasses.field(default=False, metadata={"knob": True})

    @property
    def model(self) -> ModelParams:
        return ModelParams(hurst=self.hurst, beta=self.beta, sigma=self.sigma)

    @property
    def kind(self) -> SceneryKind:
        return SceneryKind(self.scenery)

    def resolved_jobs(self) -> int:
        """``jobs``, by default the number of CPUs this process may run on."""
        if self.jobs is not None:
            return self.jobs
        # a cpuset or taskset can leave a process fewer CPUs than the machine has
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


# the options by name, in RunConfig order
_FIELDS = {field.name: field for field in dataclasses.fields(RunConfig) if "parse" in field.metadata}
# the configuration a table records, in RunConfig order
_HEADER = tuple(field.name for field in dataclasses.fields(RunConfig) if not field.metadata.get("knob"))


def _read_config_file(path: str) -> dict[str, object]:
    """Flat ``key = value`` pairs, one per line.  ``#`` starts a comment at
    the start of a line or after whitespace, so ``run#1.csv`` keeps its ``#``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        body = re.sub(r"(?:^|\s)#.*", "", line).strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, text = body.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _FIELDS[key].metadata["parse"](key, text.strip())
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
    config_help = "flat key = value config file; # starts a comment at line start or after whitespace"
    group.add_argument("--config", metavar="FILE", help=config_help)
    for name, field in _FIELDS.items():
        shown = "" if field.default is None else f", default {_format_value(field.default)}"
        group.add_argument("--" + name.replace("_", "-"), dest=name, help=field.metadata["help"] + shown)

    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(
            name,
            parents=[common],
            description=command.description,
            epilog=f"CSV columns: {', '.join(command.columns)}",
        )
        if command.asserts:
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
    for name, field in _FIELDS.items():
        text = getattr(namespace, name)
        if text is not None:
            values[name] = field.metadata["parse"](name, text)
    values["assert_mode"] = bool(getattr(namespace, "assert_mode", False))
    config = RunConfig(command=namespace.command, **values)
    _validate(config)
    return config


def _validate(cfg: RunConfig) -> None:
    # the domains come from rwrs.model; the seed range is the CLI's own rule
    cfg.model
    SchemaConfig(n=cfg.n, copies=cfg.cn, times=cfg.times)
    check_sizes(m=cfg.m, bins=cfg.bins)
    check_error_replicates("replicates", cfg.replicates)
    check_error_replicates("oracle_replicates", cfg.oracle_replicates)
    check_finite("u", cfg.u)
    if not 0 <= cfg.seed < 2**64:
        raise UsageError(f"seed must be a 64-bit nonnegative integer, got {cfg.seed}")
    check_scenery_kind(cfg.kind, cfg.beta)
    if cfg.jobs is not None:
        check_sizes(jobs=cfg.jobs)


# --- CSV emission --------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _write_csv(stream: IO[str], cfg: RunConfig, columns: Sequence[str], rows) -> None:
    stream.write(f"# rwrs {__version__}\n")
    for name in _HEADER:
        stream.write(f"# {name}={_format_value(getattr(cfg, name))}\n")
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


# --- commands ------------------------------------------------------------


def _run_walk(cfg: RunConfig):
    result = walk_variance(cfg.n, cfg.hurst, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs())
    rows = [(i, float(v)) for i, v in enumerate(result.finals)]
    summary = (
        f"Var(S_n)/n^(2H) = {result.ratio:.4f} +- {result.se_ratio:.4f} "
        f"(n={cfg.n}, H={cfg.hurst}, M={cfg.replicates})"
    )
    return rows, summary, {}


def _draw_schema(cfg: RunConfig, copies: int):
    return schema_samples(
        cfg.model, cfg.n, copies, cfg.times, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs(), kind=cfg.kind
    )


def _draw_motion(cfg: RunConfig, copies: int):
    return stable_motion_samples(
        cfg.model, copies, cfg.times, cfg.m, cfg.bins, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs()
    )


def _run_scaling(cfg: RunConfig):
    result = scaling_experiment(cfg.hurst, cfg.beta, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs())
    rows = [
        (n, float(result.mean_v[i]), float(result.se_v[i]),
         float(result.mean_r[i]), float(result.se_r[i]), float(result.median_scaled[i]))
        for i, n in enumerate(result.horizons)
    ]
    summary = (
        f"V slope {result.v_fit.slope:.3f} (target {2.0 - cfg.hurst:.2f}), "
        f"R slope {result.r_fit.slope:.3f} (target {cfg.hurst:.2f})"
    )
    return rows, summary, result.windows()


def _run_ks_stat(cfg: RunConfig):
    t_eval = cfg.times[-1]
    result = functional_experiment(
        cfg.model, cfg.n, [1.0], [t_eval], cfg.m, cfg.bins, cfg.replicates, cfg.seed, jobs=cfg.resolved_jobs()
    )
    rows = [
        (i, float(a), float(b))
        for i, (a, b) in enumerate(zip(result.discrete, result.limit))
    ]
    energy = f"limit energy = {result.energy_mean:.4f} +- {result.energy_se:.4f}"
    if cfg.beta == 2.0:
        # the draws stay raw box counts; the closed form shows their bias
        exact = exact_energy(cfg.hurst, [1.0], [t_eval])
        energy += f" (box count), exact {exact:.4f}, gap {result.energy_mean / exact - 1.0:+.2%}"
    summary = (
        f"KS = {result.ks:.4f}, mean X_n = {result.mean_discrete:.4f}, {energy} "
        f"(theta=1, t={t_eval}, n={cfg.n})"
    )
    return rows, summary, {}


def _run_ecf_check(cfg: RunConfig):
    result = schema_ecf_check(
        cfg.model, cfg.n, cfg.cn, cfg.u, cfg.m, cfg.bins, cfg.replicates,
        cfg.oracle_replicates, cfg.seed, jobs=cfg.resolved_jobs(), kind=cfg.kind,
    )
    # the target's source: the closed form at beta = 2, the oracle below
    source = "(exact)" if cfg.beta == 2.0 else f"+- {result.energy_se:.4f} (Monte Carlo)"
    summary = (
        f"max |z| = {result.comparison.max_abs_z:.3f} over u={_format_value(cfg.u)}, "
        f"energy = {result.energy_mean:.4f} {source}"
    )
    return result.rows(), summary, result.comparison.windows()


class _Command(NamedTuple):
    """One command: a runner returning the table rows, the summary after
    "<command>: " and the acceptance windows by name; the --help text; the
    CSV columns; and whether --assert makes a failed window exit 3."""

    run: Callable[[RunConfig], tuple[list, str, dict[str, bool]]]
    description: str
    columns: tuple[str, ...]
    asserts: bool = False


def _run_samples(cfg: RunConfig, draw: Callable, one_copy: bool, summary: str):
    samples = draw(cfg, 1 if one_copy else cfg.cn)
    rows = [
        (i, float(t), float(samples[i, j]))
        for i in range(samples.shape[0])
        for j, t in enumerate(cfg.times)
    ]
    return rows, summary.format(cfg=cfg, k=len(cfg.times)), {}


def _sample_command(description: str, draw: Callable, one_copy: bool, summary: str) -> _Command:
    """The (replicate, t, value) table of one copy or of ``cn`` copies;
    ``summary`` is formatted with ``cfg`` and the number of times ``k``."""
    run = functools.partial(_run_samples, draw=draw, one_copy=one_copy, summary=summary)
    return _Command(run, description, ("replicate", "t", "value"))


_COMMANDS = {
    "walk": _Command(
        _run_walk,
        "Sample the dependent Gaussian walk and report Var(S_n) / n**(2H); "
        "s_n is the final walk position.",
        ("replicate", "s_n"),
    ),
    "rwrs": _sample_command(
        "Sample rescaled reward processes D_n(t) = n**(-delta) Z_nt.",
        _draw_schema, one_copy=True,
        summary="{cfg.replicates} draws of D_n at {k} times "
            "(n={cfg.n}, H={cfg.hurst}, beta={cfg.beta}, scenery={cfg.scenery})",
    ),
    "scaling": _Command(
        _run_scaling,
        "Fit growth exponents of self-intersections V_n and range R_n; "
        "track the rescaled maximum local time.",
        ("n", "mean_Vn", "se_Vn", "mean_Rn", "se_Rn", "median_Ln_scaled"),
        asserts=True,
    ),
    "ks-stat": _Command(
        _run_ks_stat,
        "Compare the normalized occupation functional of the walk at theta = 1, "
        "t = max(times) against the limit beta-energy (KS distance, mean error); "
        "x_n and x_limit are the walk functional and limit-energy draws.",
        ("replicate", "x_n", "x_limit"),
    ),
    "delta": _sample_command(
        "Sample the local-time stable integral at the given times.",
        _draw_motion, one_copy=True,
        summary="{cfg.replicates} draws of the local-time stable integral at {k} times "
            "(H={cfg.hurst}, beta={cfg.beta})",
    ),
    "gamma": _sample_command(
        "Sample the normalized superposition of cn local-time stable integrals.",
        _draw_motion, one_copy=False,
        summary="{cfg.replicates} draws of the {cfg.cn}-copy stable motion at {k} times "
            "(H={cfg.hurst}, beta={cfg.beta})",
    ),
    "schema": _sample_command(
        "Sample the superposed reward schema G_n at the given times.",
        _draw_schema, one_copy=False,
        summary="{cfg.replicates} draws of G_n at {k} times "
            "(n={cfg.n}, cn={cfg.cn}, H={cfg.hurst}, beta={cfg.beta}, scenery={cfg.scenery})",
    ),
    "ecf-check": _Command(
        _run_ecf_check,
        "Empirical CF of the schema at t = 1 against the limit CF target.",
        ("u", "ecf_re", "ecf_se", "target", "z"),
        asserts=True,
    ),
}


def _write_file(path: str, mode: str, write: Callable[[IO[str]], None]) -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as handle:
            write(handle)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    command = _COMMANDS[cfg.command]
    if cfg.output is not None:
        # fail before any draw; appending nothing keeps an existing file as it is
        _write_file(cfg.output, "a", lambda handle: None)
    rows, summary, windows = command.run(cfg)
    # a non-finite value fails the run before anything is written
    for i, row in enumerate(rows):
        for name, cell in zip(command.columns, row):
            if isinstance(cell, float) and not math.isfinite(cell):
                raise NumericalError(f"non-finite {name} in table row {i}: {cell!r}")
    summary, code = _verdict(cfg, f"{cfg.command}: {summary}", windows)
    if cfg.output is None:
        _write_csv(sys.stdout, cfg, command.columns, rows)
        print(summary, file=sys.stderr)
    else:
        _write_file(cfg.output, "w", lambda handle: _write_csv(handle, cfg, command.columns, rows))
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
