"""End-to-end tests of the command-line interface.

Parsing and precedence are unit-tested in process; everything that
touches exit codes, streams, or byte-level determinism runs the real
``python -m rwrs`` in a subprocess.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from rwrs import NumericalError, UsageError
from rwrs.cli import RunConfig, main, parse_config

_FAST_WALK = ["walk", "--n", "64", "--replicates", "10"]


def run_cli(*args, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "RWRS_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rwrs", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


# ---------------------------------------------------------------------------
# Configuration resolution (in process)
# ---------------------------------------------------------------------------


def test_defaults_resolve():
    cfg = parse_config(["walk"])
    assert cfg.command == "walk"
    assert cfg.hurst == 0.5
    assert cfg.beta == 2.0
    assert cfg.sigma == 1.0
    assert cfg.n == 2048
    assert cfg.cn == 32
    assert cfg.m == 4096
    assert cfg.bins == 512
    assert cfg.replicates == 500
    assert cfg.oracle_replicates == 2000
    assert cfg.times == (0.25, 0.5, 1.0)
    assert cfg.u == (0.5, 1.0, 2.0)
    assert cfg.seed == 0
    assert cfg.scenery == "stable"
    assert cfg.site_convention == "ceil"
    assert cfg.output is None
    assert cfg.jobs is None
    assert cfg.assert_mode is False


def test_missing_command_is_usage_error():
    with pytest.raises(UsageError):
        parse_config([])


def test_flag_parsing_and_validation():
    cfg = parse_config(["schema", "--times", "0.5,1", "--beta", "1.5", "--seed", "9"])
    assert cfg.times == (0.5, 1.0)
    assert cfg.beta == 1.5
    assert cfg.seed == 9
    for bad in (
        ["walk", "--hurst", "1.2"],
        ["walk", "--hurst", "0"],
        ["walk", "--beta", "2.5"],
        ["walk", "--sigma", "-1"],
        ["walk", "--replicates", "1"],
        ["walk", "--n", "0"],
        ["walk", "--bins", "1"],
        ["walk", "--seed", "-3"],
        ["walk", "--times", "1.0,0.5"],
        ["walk", "--times", "-1,1"],
        ["walk", "--jobs", "0"],
        ["ecf-check", "--oracle-replicates", "1"],
        ["schema", "--scenery", "pareto", "--beta", "2.0"],
        ["walk", "--unknown-flag"],
        ["not-a-command"],
    ):
        with pytest.raises(UsageError):
            parse_config(bad)


def test_env_seed_applies_and_flags_win(monkeypatch):
    monkeypatch.setenv("RWRS_SEED", "41")
    assert parse_config(["walk"]).seed == 41
    assert parse_config(["walk", "--seed", "5"]).seed == 5
    monkeypatch.setenv("RWRS_SEED", "not-an-int")
    with pytest.raises(UsageError):
        parse_config(["walk"])


def test_config_file_layering(tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# experiment defaults\n"
        "hurst = 0.7\n"
        "beta = 1.5   # heavy tails\n"
        "times = 0.5,1\n"
        "seed = 17\n"
        "\n"
    )
    cfg = parse_config(["rwrs", "--config", str(config)])
    assert (cfg.hurst, cfg.beta, cfg.times, cfg.seed) == (0.7, 1.5, (0.5, 1.0), 17)
    # flags override the file
    cfg = parse_config(["rwrs", "--config", str(config), "--beta", "2.0", "--seed", "3"])
    assert (cfg.beta, cfg.seed) == (2.0, 3)
    # the file overrides the environment
    monkeypatch.setenv("RWRS_SEED", "99")
    assert parse_config(["rwrs", "--config", str(config)]).seed == 17


def test_config_hash_starts_a_comment_only_after_whitespace(tmp_path):
    target = tmp_path / "run#1.csv"
    config = tmp_path / "run.cfg"
    config.write_text(
        "#seed = 9\n"
        "  # an indented comment\n"
        f"output = {target}\n"
        "seed = 5\t# a tab before the comment\n"
        "hurst = 0.7  # note\n"
    )
    cfg = parse_config(["walk", "--config", str(config)])
    assert (cfg.output, cfg.seed, cfg.hurst) == (str(target), 5, 0.7)
    assert main(["walk", "--n", "16", "--replicates", "2", "--config", str(config)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run.cfg"]
    assert "# seed=5\n" in target.read_text()


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("hurts = 0.7\n")
    with pytest.raises(UsageError, match="unknown key"):
        parse_config(["walk", "--config", str(bad_key)])

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_config(["walk", "--config", str(bad_line)])

    with pytest.raises(UsageError, match="cannot read"):
        parse_config(["walk", "--config", str(tmp_path / "missing.cfg")])


def test_main_maps_numerical_failures_to_exit_2(monkeypatch):
    from rwrs import cli as cli_mod

    def boom(cfg):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli_mod._COMMANDS, "walk", cli_mod._COMMANDS["walk"]._replace(run=boom))
    assert main(_FAST_WALK) == 2


def test_default_jobs_count_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parse_config(["walk"]).resolved_jobs() == 1
    assert parse_config(["walk", "--jobs", "3"]).resolved_jobs() == 3


def test_one_table_each_for_fields_and_commands(tmp_path, capsys):
    from rwrs import cli as cli_mod

    names = [field.name for field in dataclasses.fields(RunConfig)]
    defaults = {field.name: field.default for field in dataclasses.fields(RunConfig)}
    configurable = [name for name in names if name not in ("command", "assert_mode")]
    # a value other than the default for every field, as flag or config-file text
    texts = {
        "hurst": "0.6", "beta": "1.5", "sigma": "2", "n": "100", "cn": "3", "m": "128",
        "bins": "16", "replicates": "7", "oracle_replicates": "9", "times": "0.5,1",
        "u": "1,3", "seed": "5", "scenery": "pareto", "site_convention": "floor",
        "output": "x.csv", "jobs": "3",
    }
    assert sorted(texts) == sorted(configurable)
    parser = cli_mod._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    assert list(commands) == list(cli_mod._COMMANDS)
    for command, sub in commands.items():
        flags = {}
        for action in sub._actions:
            if action.dest not in ("help", "config", "assert_mode"):
                flags.setdefault(action.dest, []).extend(action.option_strings)
        # exactly one flag per field
        assert flags == {name: ["--" + name.replace("_", "-")] for name in configurable}
        assert ("--assert" in sub._option_string_actions) == cli_mod._COMMANDS[command].asserts
        # --help shows each RunConfig default
        with pytest.raises(SystemExit):
            parse_config([command, "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        for name in configurable:
            if defaults[name] is not None:
                assert f"default {cli_mod._format_value(defaults[name])}" in shown, name
    # exactly one config key per field, read as its flag is
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{name} = {text}\n" for name, text in texts.items()))
    from_file = parse_config(["walk", "--config", str(config)])
    flags = [arg for name, text in texts.items() for arg in ("--" + name.replace("_", "-"), text)]
    assert parse_config(["walk", *flags]) == from_file
    assert all(getattr(from_file, name) != defaults[name] for name in configurable)
    # the header: every field but the runtime knobs, in RunConfig order
    assert main(["walk", "--n", "16", "--replicates", "2"]) == 0
    header = [line[2:].split("=", 1)[0] for line in capsys.readouterr().out.splitlines() if "=" in line]
    assert header == [name for name in names if name not in ("output", "jobs", "assert_mode")]


# ---------------------------------------------------------------------------
# Subprocess behavior: exit codes and stream layout
# ---------------------------------------------------------------------------


def test_cli_usage_errors_exit_1():
    assert run_cli().returncode == 1
    proc = run_cli("walk", "--hurst", "1.2")
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert run_cli("schema", "--scenery", "pareto", "--beta", "2.0").returncode == 1


def test_cli_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("rwrs ")


def test_cli_walk_csv_layout():
    proc = run_cli(*_FAST_WALK)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# rwrs ")
    header = [line for line in lines if line.startswith("# ") and "=" in line]
    keys = [line[2:].split("=", 1)[0] for line in header]
    assert keys == [
        "command", "hurst", "beta", "sigma", "n", "cn", "m", "bins", "replicates",
        "oracle_replicates", "times", "u", "seed", "scenery", "site_convention",
    ]
    assert "# command=walk" in lines
    assert "# n=64" in lines
    # runtime knobs never reach the header
    assert not any(k in ("output", "jobs", "assert_mode") for k in keys)
    column_line = lines[len(header) + 1]
    assert column_line == "replicate,s_n"
    data = lines[len(header) + 2 :]
    assert len(data) == 10
    for row in data:
        index, value = row.split(",")
        int(index)
        float(value)
    # human summary goes to stderr, CSV to stdout
    assert "Var(S_n)" in proc.stderr


def test_cli_sample_commands_emit_time_value_rows():
    for command, extra in (
        ("rwrs", ["--n", "64"]),
        ("schema", ["--n", "32", "--cn", "2"]),
        ("delta", ["--m", "64", "--bins", "16"]),
        ("gamma", ["--m", "64", "--bins", "16", "--cn", "2"]),
    ):
        proc = run_cli(command, "--replicates", "4", "--times", "0.5,1", *extra)
        assert proc.returncode == 0, proc.stderr
        lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
        assert lines[0] == "replicate,t,value"
        assert len(lines) == 1 + 4 * 2
        assert lines[1].startswith("0,0.5,")


def test_cli_ks_stat_smoke():
    proc = run_cli(
        "ks-stat", "--n", "256", "--m", "256", "--bins", "32", "--replicates", "20"
    )
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "replicate,x_n,x_limit"
    assert len(lines) == 21
    assert "KS =" in proc.stderr


def test_cli_ks_stat_checks_the_oracle_grid_before_any_walk(fgn_blocks_drawn, capsys):
    # 16 * 0.05 < 1 leaves the oracle's grid without a step; one job keeps
    # any walk drawn in this process, where the spy sees it
    assert main(["ks-stat", "--n", "64", "--times", "0.05", "--m", "16", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "rwrs: error: horizon 0.05 is not finite or shorter than one grid step 1/16" in err
    assert fgn_blocks_drawn == []


def test_cli_gamma_checks_its_grid_before_any_pool(pools_started, capsys):
    # 16 * 0.05 < 1 leaves the stable motion's grid without a step
    assert main(["gamma", "--m", "16", "--times", "0.05", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "rwrs: error: horizon 0.05 is not finite or shorter than one grid step 1/16" in err
    assert pools_started == []


def test_cli_scaling_csv_and_assert_pass():
    proc = run_cli("scaling", "--replicates", "50", "--assert")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,mean_Vn,se_Vn,mean_Rn,se_Rn,median_Ln_scaled"
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == sorted(set([2**k for k in range(8, 14)] + [2**14]))


def test_cli_ecf_check_assert_exit_codes():
    # far from the limit on purpose: n = 2 with a single copy fails the
    # 3-SE window, a near-default small run passes it
    failing = run_cli(
        "ecf-check", "--hurst", "0.7", "--beta", "1.0", "--n", "2", "--cn", "1",
        "--m", "128", "--bins", "32", "--replicates", "200",
        "--oracle-replicates", "100", "--assert",
    )
    assert failing.returncode == 3, failing.stderr
    passing = run_cli(
        "ecf-check", "--n", "256", "--cn", "8", "--m", "256", "--bins", "64",
        "--replicates", "150", "--oracle-replicates", "200", "--u", "0.5,1", "--assert",
    )
    assert passing.returncode == 0, passing.stderr
    lines = [l for l in passing.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "u,ecf_re,ecf_se,target,z"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "command, runner, break_result, window",
    [
        ("scaling", "scaling_experiment",
         lambda r: dataclasses.replace(r, v_fit=dataclasses.replace(r.v_fit, slope=9.0)),
         "V slope within 0.1 of 2 - H"),
        ("ecf-check", "schema_ecf_check",
         lambda r: dataclasses.replace(r, comparison=dataclasses.replace(r.comparison, max_abs_z=7.0)),
         "max|z| <= 3"),
    ],
)
def test_cli_assert_names_the_failed_window(command, runner, break_result, window, monkeypatch, capsys):
    from rwrs import cli as cli_mod

    real = getattr(cli_mod, runner)
    monkeypatch.setattr(cli_mod, runner, lambda *a, **k: break_result(real(*a, **k)))
    args = [command, *_SMALL, "--replicates", "4"]
    assert main([*args, "--assert"]) == 3
    failed = capsys.readouterr()
    assert f"; failed: {window}" in failed.err
    # without --assert the run succeeds, names the same window and writes the same CSV
    assert main(args) == 0
    plain = capsys.readouterr()
    assert plain.err == failed.err
    assert plain.out == failed.out


def test_cli_seed_sources_agree():
    via_env = run_cli(*_FAST_WALK, env_extra={"RWRS_SEED": "7"})
    via_flag = run_cli(*_FAST_WALK, "--seed", "7")
    flag_beats_env = run_cli(*_FAST_WALK, "--seed", "9", env_extra={"RWRS_SEED": "7"})
    plain_nine = run_cli(*_FAST_WALK, "--seed", "9")
    assert via_env.stdout == via_flag.stdout
    assert flag_beats_env.stdout == plain_nine.stdout
    assert via_flag.stdout != plain_nine.stdout


def test_cli_output_file_matches_stdout_bytes(tmp_path):
    target = tmp_path / "out.csv"
    to_stdout = run_cli("schema", "--n", "32", "--cn", "2", "--replicates", "6")
    to_file = run_cli(
        "schema", "--n", "32", "--cn", "2", "--replicates", "6", "--output", str(target)
    )
    assert to_file.returncode == 0
    assert target.read_text() == to_stdout.stdout
    # with --output the summary moves to stdout
    assert "schema:" in to_file.stdout


def test_cli_unwritable_output_is_a_usage_error(tmp_path):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        proc = run_cli(*_FAST_WALK, "--output", str(target))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"rwrs: error: cannot write {target}: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    if os.path.exists("/dev/full"):
        # the open succeeds and the write fails
        proc = run_cli(*_FAST_WALK, "--output", "/dev/full")
        assert proc.returncode == 1
        assert proc.stderr == "rwrs: error: cannot write /dev/full: No space left on device\n"


def test_output_is_checked_before_drawing_and_kept_on_failure(tmp_path, monkeypatch, capsys):
    from rwrs import cli as cli_mod

    def boom(cfg):
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli_mod._COMMANDS, "walk", cli_mod._COMMANDS["walk"]._replace(run=boom))
    assert main([*_FAST_WALK, "--output", str(tmp_path)]) == 1
    assert "cannot write" in capsys.readouterr().err
    existing = tmp_path / "kept.csv"
    existing.write_text("earlier table\n")
    assert main([*_FAST_WALK, "--output", str(existing)]) == 2
    assert existing.read_text() == "earlier table\n"


@pytest.mark.parametrize(
    "args", [["--beta", "0.01"], ["--scenery", "pareto", "--beta", "0.003"]], ids=["inf", "nan"]
)
def test_cli_non_finite_table_value_exits_2_and_writes_nothing(args, tmp_path):
    # these draws overflow, and the library rejects them; the RuntimeWarning
    # they raise would fail an in-process run, so the CLI runs in a subprocess
    command = ["schema", "--n", "256", "--cn", "8", "--replicates", "40", "--times", "1", *args]
    proc = run_cli(*command)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("rwrs: numerical failure: non-finite value in replicate ")
    existing = tmp_path / "kept.csv"
    existing.write_text("earlier table\n")
    assert run_cli(*command, "--output", str(existing)).returncode == 2
    assert existing.read_text() == "earlier table\n"


def test_cli_table_check_rejects_a_non_finite_row(monkeypatch, capsys):
    # superpose can overflow finite draws, so the table is checked as well
    from rwrs import cli as cli_mod

    def overflowed(cfg):
        return [(0, 1.0), (1, float("inf"))], "synthetic", {}

    monkeypatch.setitem(cli_mod._COMMANDS, "walk", cli_mod._COMMANDS["walk"]._replace(run=overflowed))
    assert main(_FAST_WALK) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rwrs: numerical failure: non-finite s_n in table row 1: inf\n"


def test_cli_byte_identical_across_jobs():
    one = run_cli("schema", "--n", "32", "--cn", "2", "--replicates", "8", "--jobs", "1")
    two = run_cli("schema", "--n", "32", "--cn", "2", "--replicates", "8", "--jobs", "2")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


# small sizes, so a value that slipped through validation still finishes fast
_SMALL = ["--n", "16", "--cn", "2", "--m", "64", "--bins", "16", "--replicates", "2",
          "--oracle-replicates", "4"]


@pytest.mark.parametrize(
    "args",
    [
        ["schema", "--sigma", "nan"],
        ["schema", "--sigma", "inf"],
        ["ecf-check", "--sigma", "nan"],
        ["ecf-check", "--u", "nan"],
        ["ecf-check", "--u", "0.5,inf"],
        ["schema", "--times", "nan"],
        ["schema", "--times", "inf"],
        ["rwrs", "--times", "0.5,inf"],
        ["delta", "--times", "inf"],
    ],
)
def test_cli_rejects_non_finite_flags(args, capsys):
    code = main([*args, *_SMALL])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("rwrs: error:")
    assert captured.out == ""


@pytest.mark.parametrize("line", ["sigma = nan", "sigma = inf", "times = 0.5,nan", "u = inf"])
def test_cli_rejects_non_finite_config_values(line, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = main(["ecf-check", "--config", str(config), *_SMALL])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("rwrs: error:")
    assert captured.out == ""


def test_cli_non_finite_sigma_exits_one_without_csv():
    proc = run_cli("schema", "--sigma", "nan", *_SMALL)
    assert proc.returncode == 1
    assert proc.stderr.startswith("rwrs: error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_rwrs_values_equal_one_copy_schema():
    # D_n is the one-copy schema: same table under each command's own header
    common = ["--n", "64", "--replicates", "20", "--times", "0.3,1", "--hurst", "0.7", "--beta", "1.5"]
    rwrs_run = run_cli("rwrs", *common)
    schema_run = run_cli("schema", *common, "--cn", "1")
    assert rwrs_run.returncode == schema_run.returncode == 0

    def table(proc):
        return "".join(l for l in proc.stdout.splitlines(keepends=True) if not l.startswith("#"))

    assert table(rwrs_run).encode() == table(schema_run).encode()
    assert "# command=rwrs\n" in rwrs_run.stdout
    assert "# cn=32\n" in rwrs_run.stdout
    assert len(table(rwrs_run).splitlines()) == 1 + 20 * 2


def test_cli_summaries_name_the_energy_source(capsys):
    # ecf-check's target is exact at beta = 2 and a Monte Carlo mean below;
    # ks-stat keeps its raw box-count draws and shows their gap to the exact
    # mean; the tables keep their columns
    columns = {}
    for command, beta, expected in (
        ("ecf-check", "2", "energy = 1.0638 (exact)"),
        ("ecf-check", "1.5", " (Monte Carlo)"),
        ("ks-stat", "2", "(box count), exact 1.0638, gap "),
    ):
        assert main([command, "--beta", beta, *_SMALL]) == 0
        captured = capsys.readouterr()
        assert expected in captured.err
        columns[command, beta] = [l for l in captured.out.splitlines() if not l.startswith("#")][0]
    assert columns["ecf-check", "2"] == columns["ecf-check", "1.5"] == "u,ecf_re,ecf_se,target,z"
    assert columns["ks-stat", "2"] == "replicate,x_n,x_limit"
    assert main(["ks-stat", "--beta", "1.5", *_SMALL]) == 0
    assert "exact" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--oracle-replicates", "1"], ["--m", "1"], ["--bins", "2"], ["--hurst", "1"]])
def test_cli_ecf_check_rejects_bad_oracle_input_at_every_beta(bad, capsys):
    errors = []
    for beta in ("1.5", "2"):
        assert main(["ecf-check", *_SMALL, "--beta", beta, *bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
