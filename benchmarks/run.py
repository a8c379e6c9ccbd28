"""Benchmark of the rwrs Monte Carlo verdict pipeline.

    python3 benchmarks/run.py --workload schema-lrd --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each repeat is a fresh interpreter
(``workload.py``) that imports ``rwrs`` from ``src/``, makes one draw
(set-up), then runs draws -> oracle -> ECF -> comparison and checks the
outputs.  Repeats run one after another until ``--seconds`` is used up
(at least three), and every figure is the median over repeats.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced repeats and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTS, LAYERS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

MIN_REPEATS = 3
RUN_LIMIT_S = 170  # a repeat still running then is killed and the run fails

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_verdict_s": "s",
    "draws_per_s": "1/s",
    "oracle_draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The oracle phase streams large power-of-two FFTs and swings with the
# host's memory contention more than the other phases: on a shared 2-vCPU
# VM its quartile spread over ten runs was 25 to 33% of the median where
# the others read about 10%.  Its rate is printed here but reported in
# JSON only with the per-layer metrics.
UNBOUNDED = ("oracle_draws_per_s",)


class ImportFailure(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, verify: bool, spans_out: Path | None,
              timeout: float) -> dict | None:
    """One repeat in a fresh interpreter; None if the program failed."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if verify:
        cmd.append("--verify")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode == 3:
        raise ImportFailure(proc.stderr.strip())
    if proc.returncode != 0:
        print(f"repeat failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeats(workload: str, seed: int, mode: str, seconds: float, spans_dir: Path | None) -> list[dict | None]:
    """Repeat until the next one would overrun ``seconds`` (at least MIN_REPEATS).

    The first repeat also verifies every energy draw (and, for a pooled
    workload, the jobs=1 replicates) after its timed section, and in a
    traced run writes its spans to ``spans_dir``.
    """
    results: list[dict | None] = []
    lengths: list[float] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        first = not results
        spans_out = spans_dir / f"{workload}-seed{seed}.json" if spans_dir and first else None
        timeout = RUN_LIMIT_S - (begun - start)
        results.append(run_child(workload, seed, mode, verify=first, spans_out=spans_out, timeout=timeout))
        lengths.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_REPEATS and elapsed + statistics.median(lengths) > seconds:
            return results


def tally(workload: str, results: list[dict | None]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over all repeats.

    An operation is one draw, one energy draw or one verdict.  Every
    repeat must reproduce the first repeat's outputs bit for bit; only
    the first checks each energy, so later repeats inherit its count.
    """
    w = WORKLOADS[workload]
    per_repeat = w.replicates + w.oracle_replicates + 1
    attempted = per_repeat * len(results)
    failed = 0
    reference = results[0]
    for result in results:
        if result is None or reference is None or result["digest"] != reference["digest"]:
            failed += per_repeat
            continue
        counts = dict(result["failed"])
        counts["energies"] = reference["failed"]["energies"]
        failed += sum(counts.values())
    return attempted, failed, failed == 0


def median(results: list[dict], key) -> float:
    return statistics.median(key(r) for r in results)


def end_to_end(workload: str, results: list[dict]) -> dict[str, list[float]]:
    """Per-repeat values of each end-to-end metric."""
    w = WORKLOADS[workload]
    return {
        "setup_s": [r["setup_s"] for r in results],
        "time_to_verdict_s": [r["time_to_verdict_s"] for r in results],
        "draws_per_s": [w.replicates / r["draw_s"] for r in results],
        "oracle_draws_per_s": [w.oracle_replicates / r["oracle_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def per_layer(workload: str, results: list[dict]) -> tuple[dict, dict, bool]:
    """Per-layer metrics with units, layer shares, and whether the calls
    and work counts were identical in every traced repeat."""
    w = WORKLOADS[workload]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median(results, lambda r: r["layers"][layer]["self_s"]), "s")
        metrics[f"{layer}.calls"] = (results[0]["layers"][layer]["calls"], "count")
    for name in COUNTS:
        metrics[name] = (results[0]["counts"][name], "count")
    metrics["streams.pool_overhead_s"] = (median(results, lambda r: r["pool_overhead_s"]), "s")
    metrics["trace_overhead_s"] = (median(results, lambda r: r["trace_overhead_s"]), "s")
    metrics["oracle_draws_per_s"] = (median(results, lambda r: w.oracle_replicates / r["untraced_oracle_s"]), "1/s")
    traced_verdict_s = median(results, lambda r: r["time_to_verdict_s"])
    shares = {layer: metrics[f"{layer}.self_s"][0] / traced_verdict_s for layer in LAYERS}
    shares["(benchmark)"] = median(results, lambda r: r["bench_self_s"]) / traced_verdict_s
    steady = all(r["counts"] == results[0]["counts"] and r["layers"][layer]["calls"] ==
                 results[0]["layers"][layer]["calls"] for r in results for layer in LAYERS)
    return metrics, shares, steady


def run_context() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rwrs" / "__init__.py").is_file():
        print(f"no rwrs package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    mode = "traced" if args.trace else "timed"
    spans_dir = ROOT / ".bench_trace" if args.trace else None
    try:
        results = repeats(args.workload, args.seed, mode, args.seconds, spans_dir)
    except ImportFailure as exc:
        print(exc, file=sys.stderr)
        return 2
    attempted, failed, correct = tally(args.workload, results)
    ok = [r for r in results if r is not None]
    if not ok:
        print("every repeat failed", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} repeats {len(results)}")
    print("context " + json.dumps(run_context(), sort_keys=True))
    print(f"verdict max|z| {ok[0]['max_abs_z']:.3f} (window 3) energy {ok[0]['energy_mean']:.6f} "
          f"+- {ok[0]['energy_se']:.6f} digest {ok[0]['digest'][:16]}")
    if args.trace:
        metrics, shares, steady = per_layer(args.workload, ok)
        correct = correct and steady
        print("share of traced time_to_verdict_s: " +
              ", ".join(f"{k} {100.0 * v:.1f}%" for k, v in shares.items()))
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}")
        reported = metrics
    else:
        metrics = {}
        for name, values in end_to_end(args.workload, ok).items():
            metrics[name] = (statistics.median(values), END_TO_END_UNITS[name])
            print(f"metric {name} {metrics[name][0]:.6g} {metrics[name][1]} (median of {len(values)}: "
                  + " ".join(f"{v:.4g}" for v in values) + ")")
        reported = {k: v for k, v in metrics.items() if k not in UNBOUNDED}
    print(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
