"""One benchmark repeat in a fresh interpreter; prints one JSON line.

Run by ``run.py``, never by hand:

    python3 benchmarks/workload.py --workload NAME --seed N --mode MODE --t0 T [--verify]

``--t0`` is the parent's CLOCK_MONOTONIC reading taken just before this
process was started, so ``setup_s`` covers interpreter start, ``import
rwrs`` and the first draw (with a cold embedding-eigenvalue cache).

Modes:
  timed   set-up, then one untraced verdict pipeline at the workload's jobs;
  traced  set-up, then an untraced pipeline at jobs=1, for limit-lrd a
          jobs=2 pipeline with only the pool fan-out timed, and a fully
          traced pipeline at jobs=1.

Exit code 3 means the package could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import LAYERS, Tracer  # noqa: E402

Z_WINDOW = 3.0  # the max|z| window of acceptance criteria 6 and 7
IDENTITY_PREFIX = 4  # replicates compared byte for byte across jobs and tracing


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    side: str  # "schema" draws G_n, "limit" draws the stable motion
    hurst: float
    beta: float
    replicates: int
    oracle_replicates: int
    jobs: int
    n: int = 2048
    copies: int = 32
    m: int = 4096
    bins: int = 512
    u: tuple[float, ...] = (0.5, 1.0)


# Cut-down acceptance criteria 7 (schema pairs) and 6 (limit side) at their
# model configurations; counts are sized so one repeat takes a few seconds
# and the oracle stays a minor share of the schema workloads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("schema-lrd", "schema", 0.7, 1.5, replicates=48, oracle_replicates=400, jobs=1),
        Workload("schema-iid", "schema", 0.5, 2.0, replicates=200, oracle_replicates=1000, jobs=1),
        Workload("limit-lrd", "limit", 0.7, 1.5, replicates=100, oracle_replicates=1000, jobs=2),
    )
}


def stream_seed(seed: int) -> int:
    """The only input the package receives beyond the fixed model config."""
    return random.Random(seed).getrandbits(63)


def import_rwrs():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rwrs
    except ImportError as exc:
        print(f"cannot import rwrs from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not Path(rwrs.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rwrs imported from {rwrs.__file__}, not from the checkout", file=sys.stderr)
        sys.exit(3)
    return rwrs


def draw(rwrs, w: Workload, seed: int, replicates: int, jobs: int) -> np.ndarray:
    model = rwrs.ModelParams(hurst=w.hurst, beta=w.beta)
    if w.side == "schema":
        return rwrs.schema_samples(model, w.n, w.copies, [1.0], replicates, seed, jobs=jobs)[:, 0]
    return rwrs.stable_motion_samples(model, w.copies, [1.0], w.m, w.bins, replicates, seed, jobs=jobs)[:, 0]


def pipeline(rwrs, w: Workload, seed: int, jobs: int, tracer: Tracer | None = None) -> dict:
    """Draws, oracle, ECF and comparison: the user's wait for a verdict."""
    model = rwrs.ModelParams(hurst=w.hurst, beta=w.beta)
    span = tracer.span if tracer is not None else (lambda layer, name: contextlib.nullcontext())
    start = time.perf_counter()
    with span("bench", "draws"):
        samples = draw(rwrs, w, seed, w.replicates, jobs)
    drawn = time.perf_counter()
    with span("bench", "oracle"):
        energy_mean, energy_se = rwrs.estimate_power_integral_mean(
            w.hurst, w.beta, [1.0], [1.0], w.m, w.bins, w.oracle_replicates, seed, jobs=jobs
        )
    oracled = time.perf_counter()
    with span("bench", "verdict"):
        estimate = rwrs.ecf(samples, w.u)
        target, target_se = rwrs.limit_cf_target(estimate.u, model, energy_mean, energy_se)
        comparison = rwrs.cf_compare(estimate, target, target_se)
    done = time.perf_counter()
    z = np.asarray(comparison.z, dtype=np.float64)
    digest = hashlib.sha256(
        samples.tobytes() + np.asarray([energy_mean, energy_se]).tobytes() + z.tobytes()
    ).hexdigest()
    return {
        "samples": samples,
        "energy": (energy_mean, energy_se),
        "time_to_verdict_s": done - start,
        "draw_s": drawn - start,
        "oracle_s": oracled - drawn,
        "max_abs_z": float(comparison.max_abs_z),
        "digest": digest,
    }


def output_failures(result: dict) -> dict:
    """Failed draws and verdicts of one pipeline result."""
    bad_draws = int(np.count_nonzero(~np.isfinite(result["samples"])))
    ok_verdict = np.isfinite(result["max_abs_z"]) and result["max_abs_z"] <= Z_WINDOW
    return {"draws": bad_draws, "verdict": 0 if ok_verdict else 1}


def verify_energies(rwrs, w: Workload, seed: int, result: dict) -> int:
    """Failed energy draws: each must be finite and positive, as must the
    oracle's mean, with a finite standard error."""
    energies = rwrs.power_integral_draws(
        w.hurst, w.beta, [1.0], [1.0], w.m, w.bins, w.oracle_replicates, seed, jobs=1
    )
    mean, se = result["energy"]
    if not (np.isfinite(mean) and mean > 0.0 and np.isfinite(se)):
        return w.oracle_replicates
    return int(np.count_nonzero(~(np.isfinite(energies) & (energies > 0.0))))


def mismatched(reference: np.ndarray, other: np.ndarray) -> int:
    """Replicates of ``other`` that differ in any byte from ``reference``."""
    return sum(a.tobytes() != b.tobytes() for a, b in zip(reference, other))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    seed = stream_seed(args.seed)

    rwrs = import_rwrs()
    first = draw(rwrs, w, seed, 1, jobs=1)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    out = {"setup_s": setup_s, "failed": {"draws": 0, "energies": 0, "verdict": 0}}
    if args.mode == "timed":
        result = pipeline(rwrs, w, seed, w.jobs)
    else:
        result = traced_passes(rwrs, w, seed, out, args.spans_out)
    for key, value in output_failures(result).items():
        out["failed"][key] += value
    # replicate 0 drawn alone at jobs=1 must match row 0 of the pipeline
    out["failed"]["draws"] += mismatched(first, result["samples"][:1])
    if args.verify:
        out["failed"]["energies"] += verify_energies(rwrs, w, seed, result)
        if w.jobs > 1 and args.mode == "timed":
            reference = draw(rwrs, w, seed, IDENTITY_PREFIX, jobs=1)
            out["failed"]["draws"] += mismatched(reference, result["samples"][:IDENTITY_PREFIX])
    out.update({k: v for k, v in result.items() if k not in ("samples", "energy")})
    out["energy_mean"], out["energy_se"] = result["energy"]
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


def traced_passes(rwrs, w: Workload, seed: int, out: dict, spans_out: str | None) -> dict:
    """Untraced and traced pipelines at jobs=1 in this one process.

    Returns the traced result; records the per-layer totals, the tracing
    overhead and, where the workload fans out to a pool, the parent-side
    pool overhead into ``out``.
    """
    fanout = Tracer()
    fanout.install(layers=("streams",), only={"streams.replicate_map"})
    plain = pipeline(rwrs, w, seed, jobs=1)
    serial_map_s = fanout.total_s("streams", "replicate_map")
    pool_overhead_s = 0.0
    if w.jobs > 1:
        fanout.spans.clear()
        pooled = pipeline(rwrs, w, seed, jobs=w.jobs)
        pool_map_s = fanout.total_s("streams", "replicate_map")
        pool_overhead_s = pool_map_s - serial_map_s / w.jobs
        out["failed"]["draws"] += mismatched(plain["samples"], pooled["samples"])
    fanout.uninstall()
    out["untraced_oracle_s"] = (pooled if w.jobs > 1 else plain)["oracle_s"]

    tracer = Tracer()
    tracer.trace = 1
    tracer.install(LAYERS)
    try:
        traced = pipeline(rwrs, w, seed, jobs=1, tracer=tracer)
    finally:
        tracer.uninstall()
    # tracing must not change a byte of the draws or of the verdict
    out["failed"]["draws"] += mismatched(plain["samples"], traced["samples"])
    if traced["digest"] != plain["digest"]:
        out["failed"]["verdict"] += 1

    layers = tracer.layer_totals()
    out["layers"] = {layer: layers.get(layer, {"self_s": 0.0, "calls": 0}) for layer in LAYERS}
    out["bench_self_s"] = layers.get("bench", {"self_s": 0.0})["self_s"]
    out["counts"] = dict(tracer.counts)
    out["pool_overhead_s"] = pool_overhead_s
    out["trace_overhead_s"] = traced["time_to_verdict_s"] - plain["time_to_verdict_s"]
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            json.dump({"fields": ["trace", "layer", "name", "parent", "start", "end"],
                       "spans": tracer.span_records()}, fh)
    return traced


if __name__ == "__main__":
    main()
