"""The repository benchmark.

    python3 perfbench/run.py --workload figures-quick [--seed 42] [--seconds 25] [--trace 0]

Runs one workload (see ``workloads.py`` and ``README.md``) from the root
of a source checkout: it sets the package up several times in fresh
interpreters, then repeats timed passes of the workload for about
``--seconds`` seconds, checks every result against the committed
reference digests, and prints a report whose last line is one JSON
object.  Pass timings are rescaled to a reference host speed measured
between the points (``hostspeed.py``).  With ``--trace 0`` that object carries the end-to-end metrics;
with ``--trace 1`` one extra traced pass gives the per-layer metrics.
Every cache, trace store and compiled kernel lives in a temporary
directory under ``.perfbench_work/`` in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE_PATH = HERE / "reference.json"

#: Cold set-ups per run; ``setup_s`` is their median.  Set-up time swings
#: by a quarter within one run and does not follow the host-speed samples,
#: so only the number of set-ups steadies it.
SETUP_REPEATS = 8
#: Untimed passes never cut a run below this many timed passes.
MIN_PASSES = 3
#: Traced runs take this many untraced passes as the overhead baseline.
MIN_PASSES_TRACED = 2

PREDICTORS = ("none", "dbcp", "ltcords", "ghb", "stride")
ENGINE_TIERS = ("fast", "legacy", "kernel-dbcp", "kernel-baseline", "python-dbcp", "fast-fallback")
SPEC_KINDS = ("trace", "timing", "multiprogram", "multicore")

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "accesses_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    metrics: Dict[str, Tuple[str, str]] = {}
    for predictor in PREDICTORS:
        metrics[f"sim.replay_s.{predictor}"] = ("s", "lower")
        metrics[f"sim.replay_accesses_per_s.{predictor}"] = ("1/s", "higher")
    metrics["sim.build_s"] = ("s", "lower")
    metrics["sim.predictor_build_s"] = ("s", "lower")
    metrics["sim.settle_s"] = ("s", "lower")
    for tier in ENGINE_TIERS:
        metrics[f"sim.engine_runs.{tier}"] = ("count", "higher" if tier.startswith("kernel") else "lower")
    metrics["sim.timing_s"] = ("s", "lower")
    metrics["sim.timing_accesses_per_s"] = ("1/s", "higher")
    for kind in SPEC_KINDS:
        metrics[f"run.execute_s.{kind}"] = ("s", "lower")
        metrics[f"run.points.{kind}"] = ("count", "lower")
    metrics["multicore.simulate_s"] = ("s", "lower")
    metrics["trace.acquire_s"] = ("s", "lower")
    metrics["trace.acquire_calls"] = ("count", "lower")
    metrics["trace.store_hit_frac"] = ("frac", "higher")
    metrics["trace.prewarm_s"] = ("s", "lower")
    metrics["cache.kernel_load_s"] = ("s", "lower")
    for name in ("cache_get_s", "cache_put_s"):
        metrics[f"campaign.{name}"] = ("s", "lower")
    metrics["campaign.cache_hit_frac"] = ("frac", "higher")
    for name in ("spec_key_s", "journal_s", "runner_overhead_s"):
        metrics[f"campaign.{name}"] = ("s", "lower")
    metrics["campaign.points_executed"] = ("count", "lower")
    metrics["campaign.points_cached"] = ("count", "higher")
    metrics["campaign.pool_busy_frac"] = ("frac", "higher")
    from workloads import CAMPAIGNS

    for campaign in CAMPAIGNS:
        metrics[f"experiments.{campaign}_s"] = ("s", "lower")
    metrics["bench.unattributed_s"] = ("s", "lower")
    metrics["bench.trace_overhead_frac"] = ("frac", "lower")
    metrics["bench.raw_wall_s"] = ("s", "lower")
    metrics["bench.host_speed"] = ("x", "higher")
    return metrics


PER_LAYER = _per_layer_metrics()


# ------------------------------------------------------------------ environment
def hermetic_environment(workdir: Path) -> None:
    """Point every store at ``workdir`` and clear switches that change behaviour."""
    for name in list(os.environ):
        if name in ("REPRO_FULL", "REPRO_JOBS", "REPRO_FAULTS", "REPRO_VERIFY", "REPRO_SERVER") \
                or name.startswith("REPRO_NO_"):
            del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["REPRO_TRACE_DIR"] = str(workdir / "traces")
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")
    # The C compiler and tempfile users in child processes write here too.
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    python_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + python_path if python_path else "")


def environment_record() -> Dict[str, Any]:
    from repro.engines import DEFAULT_ENGINE
    from repro.version import __version__

    try:
        # Read from the package metadata: importing NumPy here would add its
        # memory to peak_rss_mb on workloads whose engine never imports it.
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": shutil.which("cc") is not None,
        "default_engine": DEFAULT_ENGINE,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "repro_version": __version__,
    }


# ------------------------------------------------------------------ set-up
@dataclass
class Setup:
    wall_s: float
    steps: Dict[str, Any]
    trace_dir: Path
    kernel_dir: Path


def run_setup(workload: Any, seed: int, directory: Path) -> Setup:
    """One cold set-up in a fresh interpreter, timed from outside."""
    trace_dir, kernel_dir = directory / "traces", directory / "kernels"
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(kernel_dir), REPRO_TRACE_DIR=str(trace_dir))
    command = [
        sys.executable, str(HERE / "setup_probe.py"), "--trace-dir", str(trace_dir),
        "--accesses", str(workload.num_accesses), "--seed", str(seed),
        *workload.trace_benchmarks(),
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return Setup(wall, json.loads(proc.stdout.strip().splitlines()[-1]), trace_dir, kernel_dir)


# ------------------------------------------------------------------ passes
@dataclass
class Measured:
    """One pass plus its correctness verdict."""

    result: Any
    failed: List[str]
    traced: bool = False


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    reference: Optional[Dict[str, Any]],
) -> Tuple[List[Measured], Any]:
    """Timed passes for about ``seconds``; with ``trace``, one traced pass last.

    Returns the passes and the tracer (``None`` untraced).
    """
    import tracing
    from workloads import check_pass

    passes: List[Measured] = []

    def one_pass(tracer: Any = None) -> None:
        cache_dir = workdir / f"results-{len(passes)}"
        gc.collect()
        if tracer is not None:
            tracing.install(tracer)
        try:
            result = workload.run_pass(seed, str(cache_dir), tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)
        passes.append(Measured(result, check_pass(result, reference), traced=tracer is not None))

    min_passes = MIN_PASSES_TRACED if trace else MIN_PASSES
    reserve = 1 if trace else 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes:
            typical = elapsed / len(passes)
            if elapsed + typical * (1 + reserve) > seconds:
                break
        one_pass()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        one_pass(tracer)
    return passes, tracer


# ------------------------------------------------------------------ metrics
def end_to_end_metrics(untraced: List[Measured], setups: List[Setup]) -> Dict[str, float]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(p.result.reference_wall_s for p in untraced),
        "accesses_per_s": statistics.median(p.result.accesses / p.result.reference_wall_s for p in untraced),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    traced: Measured, tracer: Any, untraced: List[Measured], setups: List[Setup]
) -> Dict[str, float]:
    """Fold the traced pass's spans, campaigns and the set-ups into ``PER_LAYER``."""
    import tracing

    spans = tracer.spans
    metrics = {name: 0.0 for name in PER_LAYER}

    def total(name: str, **attrs: Any) -> Tuple[float, int, int]:
        chosen = [
            span for span in spans
            if span.name == name and all(span.attrs.get(k) == v for k, v in attrs.items())
        ]
        return (
            sum(span.duration for span in chosen),
            len(chosen),
            sum(span.attrs.get("accesses", 0) for span in chosen),
        )

    for predictor in PREDICTORS:
        seconds, _, accesses = total("sim.replay", predictor=predictor)
        metrics[f"sim.replay_s.{predictor}"] = seconds
        metrics[f"sim.replay_accesses_per_s.{predictor}"] = _ratio(accesses, seconds)
    metrics["sim.build_s"] = total("sim.build")[0]
    metrics["sim.predictor_build_s"] = total("sim.predictor_build")[0]
    metrics["sim.settle_s"] = total("sim.settle")[0]
    for tier in ENGINE_TIERS:
        metrics[f"sim.engine_runs.{tier}"] = total("sim.replay", tier=tier)[1]
    seconds, _, accesses = total("sim.timing")
    metrics["sim.timing_s"] = seconds
    metrics["sim.timing_accesses_per_s"] = _ratio(accesses, seconds)
    for kind in SPEC_KINDS:
        seconds, count, _ = total("run.execute", kind=kind)
        metrics[f"run.execute_s.{kind}"] = seconds
        metrics[f"run.points.{kind}"] = count
    metrics["multicore.simulate_s"] = total("multicore.simulate")[0]
    seconds, calls, _ = total("trace.acquire")
    metrics["trace.acquire_s"] = seconds
    metrics["trace.acquire_calls"] = calls
    metrics["trace.store_hit_frac"] = _ratio(total("trace.acquire", hit=True)[1], calls)
    metrics["trace.prewarm_s"] = statistics.median(s.steps["prewarm_s"] for s in setups)
    metrics["cache.kernel_load_s"] = statistics.median(s.steps["kernel_load_s"] for s in setups)
    seconds, gets, _ = total("campaign.cache_get")
    metrics["campaign.cache_get_s"] = seconds
    metrics["campaign.cache_hit_frac"] = _ratio(total("campaign.cache_get", hit=True)[1], gets)
    metrics["campaign.cache_put_s"] = total("campaign.cache_put")[0]
    metrics["campaign.spec_key_s"] = total("campaign.spec_key")[0]
    metrics["campaign.journal_s"] = total("campaign.journal")[0]
    metrics["campaign.runner_overhead_s"] = tracing.self_time_by_name(spans).get("campaign.runner", 0.0)
    campaigns = traced.result.campaigns
    metrics["campaign.points_executed"] = sum(c.computed_count for c in campaigns)
    metrics["campaign.points_cached"] = sum(c.cached_count for c in campaigns)
    metrics["campaign.pool_busy_frac"] = _ratio(
        sum(sum(c.point_durations) for c in campaigns),
        sum(c.jobs * c.elapsed_seconds for c in campaigns),
    )
    for name in PER_LAYER:
        if name.startswith("experiments."):
            metrics[name] = total(name[: -len("_s")])[0]
    metrics["bench.unattributed_s"] = tracing.unattributed(spans, traced.result.wall_s)
    metrics["bench.trace_overhead_frac"] = (
        traced.result.reference_wall_s / statistics.median(p.result.reference_wall_s for p in untraced) - 1.0
    )
    metrics["bench.raw_wall_s"] = statistics.median(p.result.wall_s for p in untraced)
    metrics["bench.host_speed"] = statistics.median(p.result.host_speed for p in untraced)
    return metrics


# ------------------------------------------------------------------ report
def print_trace_report(traced: Measured, tracer: Any, metrics: Dict[str, float]) -> None:
    import tracing

    wall = traced.result.wall_s
    by_name = tracing.self_time_by_name(tracer.spans)
    rest = metrics["bench.unattributed_s"]
    print(f"traced pass: {wall:.3f} s wall, {len(tracer.spans)} spans; self time by span:")
    for name, seconds in sorted(by_name.items(), key=lambda item: -item[1]):
        print(f"  {name:<28} {seconds:9.3f} s  {100 * seconds / wall:5.1f}%")
    print(f"  {'(unattributed)':<28} {rest:9.3f} s  {100 * rest / wall:5.1f}%")
    print(f"  {'sum':<28} {sum(by_name.values()) + rest:9.3f} s")
    print(f"tracing overhead: {100 * metrics['bench.trace_overhead_frac']:+.1f}% over the median untraced wall"
          " (both at the reference host speed)")
    split = [(name, seconds) for name, seconds in metrics.items()
             if name.startswith("experiments.") and seconds]
    if split:
        print("per-campaign split:")
        for name, seconds in split:
            print(f"  {name[len('experiments.'):-len('_s')]:<8} {seconds:9.3f} s  {100 * seconds / wall:5.1f}%")


def run_benchmark(workload: Any, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    """Set up, measure and check one workload; return the final JSON object."""
    from workloads import reference_entry, workload_seed

    sim_seed = workload_seed(seed)
    setups = [run_setup(workload, sim_seed, workdir / f"setup-{i}") for i in range(SETUP_REPEATS)]
    # Measure against the last set-up's warm trace store and built kernel.
    os.environ["REPRO_TRACE_DIR"] = str(setups[-1].trace_dir)
    os.environ["REPRO_KERNEL_CACHE"] = str(setups[-1].kernel_dir)
    import repro.cli  # noqa: F401  (imports are timed in set-up, not in the passes)

    env = environment_record()
    env.update(workload=workload.name, seed=seed, workload_seed=sim_seed,
               kernel_built=all(s.steps["kernel"] for s in setups))
    print("env: " + json.dumps(env, sort_keys=True))

    references = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    passes, tracer = measure(
        workload, sim_seed, seconds, trace, workdir, reference_entry(references, workload, sim_seed)
    )
    untraced = [p for p in passes if not p.traced]
    attempted = sum(len(p.result.point_ids) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for number, measured in enumerate(passes):
        kind = "traced" if measured.traced else "pass"
        print(f"{kind} {number}: {measured.result.reference_wall_s:.3f} s at reference speed "
              f"({measured.result.wall_s:.3f} s at host speed {measured.result.host_speed:.3f}), "
              f"{measured.result.accesses} accesses, "
              f"{len(measured.result.point_ids)} points, {len(measured.failed)} failed, "
              f"digest {measured.result.digest[:16]}")
        for error in measured.result.errors:
            print(f"  error: {error}")
        if measured.failed:
            print(f"  failed points: {', '.join(measured.failed[:10])}")
    setup_line = ", ".join(
        f"{s.wall_s:.3f} s (import {s.steps['import_s']:.3f}, kernel {s.steps['kernel_load_s']:.3f}, "
        f"prewarm {s.steps['prewarm_s']:.3f})" for s in setups
    )
    print(f"set-ups: {setup_line}")
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} points)")

    if trace:
        traced = passes[-1]
        values = per_layer_metrics(traced, tracer, untraced, setups)
        print_trace_report(traced, tracer, values)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(untraced, setups)
        units = END_TO_END
    for name, value in values.items():
        print(f"{name:<36} {value:14.6f} {units[name][0]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in values.items()},
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget; at least the minimum number of passes always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced pass and report per-layer metrics")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/repro; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        hermetic_environment(workdir)
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)  # pool workers the last campaign left behind
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
