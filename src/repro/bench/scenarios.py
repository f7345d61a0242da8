"""The benchmark scenario registry.

A scenario names one timed operation at one size: a micro-benchmark of a
hot structure (cache probe loop, trace generation, columnar iteration)
or a macro-benchmark of a whole simulation (predictor × benchmark ×
trace length).  Fast-engine macro scenarios have ``.legacy`` twins that
run the identical simulation through the legacy engine; the report
derives fast-vs-legacy speedups from those pairs.

Every scenario accepts a ``scale`` factor so the same definitions serve
the committed baseline (scale 1.0), CI smoke runs and the unit tests
(tiny scales).  Scaling changes the measured trace lengths, so results
are only comparable across runs at the same scale (the report checks
this).
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import BenchResult, peak_rss_kb, sample_once

# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One named benchmark.

    ``build(scale)`` returns ``(make_task, ops)``: a factory producing a
    fresh timed task per repeat, and the operation count the task
    performs (for ops/sec).
    """

    name: str
    description: str
    build: Callable[[float], Tuple[Callable[[], Callable[[], Any]], int]]
    quick: bool = False
    repeats: int = 3
    #: Name of the fast-engine twin this scenario is the legacy half of.
    speedup_of: Optional[str] = None


_SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    if scenario.name in _SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} registered twice")
    _SCENARIOS[scenario.name] = scenario


def scenario_names(quick_only: bool = False) -> List[str]:
    """Registered scenario names (optionally only the quick set)."""
    return [n for n, s in _SCENARIOS.items() if s.quick or not quick_only]


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def run_scenario(name: str, scale: float = 1.0, repeats: Optional[int] = None) -> BenchResult:
    """Build and measure one scenario (same machinery as :func:`run_scenarios`)."""
    return run_scenarios([name], scale=scale, repeats=repeats)[name]


#: A scenario whose default-repeat samples sum to less than this keeps
#: drawing interleaved samples (at most :data:`_MAX_SAMPLES`): the
#: minimum of three ~8 ms samples is too noisy for a 25% gate.
_MIN_SAMPLED_SECONDS = 0.2
_MAX_SAMPLES = 50


def _due(samples: List[float], rounds: int, top_up: bool) -> bool:
    """Whether a scenario with ``samples`` so far needs another one."""
    if len(samples) < rounds:
        return True
    return top_up and len(samples) < _MAX_SAMPLES and sum(samples) < _MIN_SAMPLED_SECONDS


def run_scenarios(
    names: List[str], scale: float = 1.0, repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, BenchResult]:
    """Measure ``names`` with round-interleaved repeats; returns name -> result.

    Repeats are interleaved round-robin (every scenario's first sample,
    then every scenario's second, ...) rather than back to back, so a
    transient load burst on the machine degrades at most one sample per
    scenario instead of every sample of whichever scenario it landed on;
    the per-scenario minimum then discards it.  With the scenarios' own
    repeat counts (``repeats=None``), a scenario whose samples sum to
    less than :data:`_MIN_SAMPLED_SECONDS` stays in the rounds until they
    do (or it has :data:`_MAX_SAMPLES`); an explicit ``repeats`` is the
    exact sample count.
    """
    if repeats is not None and repeats < 1:
        raise ValueError("repeats must be at least 1")

    plan = []
    for name in names:
        scenario = get_scenario(name)
        make_task, ops = scenario.build(scale)
        rounds = repeats if repeats is not None else scenario.repeats
        plan.append((scenario, make_task, ops, rounds))

    top_up = repeats is None
    walls: Dict[str, List[float]] = {scenario.name: [] for scenario, _, _, _ in plan}
    rss_after: Dict[str, int] = {}
    while True:
        due = [entry for entry in plan if _due(walls[entry[0].name], entry[3], top_up)]
        if not due:
            break
        for scenario, make_task, _, rounds in due:
            samples = walls[scenario.name]
            if progress is not None:
                progress(f"{scenario.name} [{len(samples) + 1}/{max(rounds, len(samples) + 1)}]")
            samples.append(sample_once(make_task))
            if len(samples) == 1:
                # Snapshot the (monotonic, process-wide) high-water mark
                # right after the scenario's first execution: the increase
                # over the previous scenario's snapshot is what this
                # scenario added.  Later rounds would only smear every
                # scenario up to the global maximum.
                rss_after[scenario.name] = peak_rss_kb()

    results: Dict[str, BenchResult] = {}
    for scenario, _, ops, _ in plan:
        scenario_walls = walls[scenario.name]
        results[scenario.name] = BenchResult(
            name=scenario.name,
            wall_seconds=min(scenario_walls),
            ops=ops,
            repeats=len(scenario_walls),
            all_wall_seconds=scenario_walls,
            peak_rss_kb=rss_after[scenario.name],
            meta={"description": scenario.description, "scale": scale},
        )
    return results


def derive_speedups(results: Dict[str, BenchResult]) -> Dict[str, float]:
    """Engine speedups for every measured twin pair.

    Each scenario declaring ``speedup_of`` is the slower half of a pair;
    the derived ratio is keyed by the faster twin's name: ``.legacy``
    scenarios yield the fast engine's speedup over legacy, and
    ``.interpreted`` (kill-switch) scenarios the compiled kernel's
    speedup over the fast engine's interpreted tier.
    """
    speedups: Dict[str, float] = {}
    for name, result in results.items():
        scenario = _SCENARIOS.get(name)
        if scenario is None or scenario.speedup_of is None:
            continue
        fast = results.get(scenario.speedup_of)
        if fast is not None and fast.wall_seconds > 0:
            speedups[scenario.speedup_of] = result.wall_seconds / fast.wall_seconds
    return speedups


def _scaled(count: int, scale: float, floor: int = 1000) -> int:
    return max(floor, int(count * scale))


# ---------------------------------------------------------------------------
# Micro scenarios
# ---------------------------------------------------------------------------


def _build_calibrate(scale: float):
    # Long enough (~1.5s) that transient CPU-contention bursts average
    # into it the same way they average into the macro scenarios it
    # normalises.
    iterations = _scaled(8_000_000, scale, floor=10_000)

    def make_task():
        def task():
            # Fixed xorshift loop: a machine-speed yardstick with no
            # repro-code dependence; the regression check normalises
            # ops/sec by this so a slower CI runner is not a "regression".
            state = 0x9E3779B97F4A7C15
            for _ in range(iterations):
                state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
                state ^= state >> 7
            return state

        return task

    return make_task, iterations


_register(Scenario(
    name="calibrate",
    description="fixed integer-arithmetic loop (machine-speed yardstick)",
    build=_build_calibrate,
    quick=True,
))


def _hit_loop_addresses(count: int):
    # 64 distinct resident blocks, revisited round-robin: pure hit traffic.
    return [0x1000_0000 + 64 * (i % 64) for i in range(count)]


def _build_cache_l1_hits(scale: float):
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.config import L1D_CONFIG

    addresses = _hit_loop_addresses(_scaled(500_000, scale))

    def make_task():
        cache = SetAssociativeCache(L1D_CONFIG)

        def task():
            access = cache.access_fast
            for address in addresses:
                access(address, 0)

        return task

    return make_task, len(addresses)


_register(Scenario(
    name="cache.l1_hits",
    description="array-backed L1D fast-path probe loop (all hits)",
    build=_build_cache_l1_hits,
    quick=True,
))


def _build_cache_l1_hits_legacy(scale: float):
    from repro.cache.config import L1D_CONFIG
    from repro.cache.legacy import LegacySetAssociativeCache

    addresses = _hit_loop_addresses(_scaled(500_000, scale))

    def make_task():
        cache = LegacySetAssociativeCache(L1D_CONFIG)

        def task():
            access = cache.access
            for address in addresses:
                access(address)

        return task

    return make_task, len(addresses)


_register(Scenario(
    name="cache.l1_hits.legacy",
    description="legacy object-per-block L1D probe loop (all hits)",
    build=_build_cache_l1_hits_legacy,
    speedup_of="cache.l1_hits",
))


def _build_cache_l1_thrash(scale: float):
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.config import L1D_CONFIG

    count = _scaled(300_000, scale)
    way_bytes = L1D_CONFIG.size_bytes // L1D_CONFIG.associativity
    # Cycle 3 tags through the same 2-way set: every access misses+evicts.
    addresses = [0x1000_0000 + way_bytes * (i % 3) for i in range(count)]

    def make_task():
        cache = SetAssociativeCache(L1D_CONFIG)

        def task():
            access = cache.access_fast
            for address in addresses:
                access(address, 0)

        return task

    return make_task, count


_register(Scenario(
    name="cache.l1_thrash",
    description="array-backed L1D miss/evict loop (LRU thrash)",
    build=_build_cache_l1_thrash,
))


def _build_trace_generate(scale: float):
    from repro.workloads.base import WorkloadConfig
    from repro.workloads.registry import get_workload

    count = _scaled(200_000, scale)

    def make_task():
        workload = get_workload("mcf", WorkloadConfig(num_accesses=count, seed=42))
        return lambda: workload.generate()

    return make_task, count


_register(Scenario(
    name="trace.generate",
    description="columnar trace generation (mcf workload)",
    build=_build_trace_generate,
    quick=True,
))


def _temp_store_root(prefix: str) -> str:
    """A throwaway trace-store root, removed when the bench process exits."""
    import atexit
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix=prefix)
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def _build_trace_store_load(scale: float):
    from repro.trace.store import TraceStore
    from repro.workloads.base import WorkloadConfig

    count = _scaled(200_000, scale)
    config = WorkloadConfig(num_accesses=count, seed=42)
    root = _temp_store_root("repro-bench-store-")

    def make_task():
        store = TraceStore(root)
        store.load_or_generate("mcf", config)  # warm (untimed)

        def task():
            trace = store.load_or_generate("mcf", config)
            return len(trace)

        return task

    return make_task, count


_register(Scenario(
    name="trace.store_load",
    description="mmap load of a stored binary trace (mcf, warm store)",
    build=_build_trace_store_load,
    quick=True,
))


def _build_trace_store_verify(scale: float):
    from repro.trace.store import TraceStore, read_trace_file
    from repro.workloads.base import WorkloadConfig

    count = _scaled(200_000, scale)
    config = WorkloadConfig(num_accesses=count, seed=42)
    root = _temp_store_root("repro-bench-verify-")

    def make_task():
        store = TraceStore(root)
        store.load_or_generate("mcf", config)  # warm (untimed)
        path = store.path_for("mcf", config)

        def task():
            trace = read_trace_file(path, verify=True)
            return len(trace)

        return task

    return make_task, count


_register(Scenario(
    name="trace.store_verify",
    description="store load with payload CRC32 verification forced on (mcf, warm store)",
    build=_build_trace_store_verify,
    quick=True,
))


def _build_trace_columnar_iter(scale: float):
    from repro.workloads.base import WorkloadConfig
    from repro.workloads.registry import get_workload

    count = _scaled(200_000, scale)
    trace = get_workload("mcf", WorkloadConfig(num_accesses=count, seed=42)).generate()

    def make_task():
        columns = trace.as_arrays()

        def task():
            total = 0
            for pc, address, is_write, icount in zip(
                columns.pc, columns.address, columns.is_write, columns.icount
            ):
                total += is_write
            return total

        return task

    return make_task, count


_register(Scenario(
    name="trace.columnar_iter",
    description="zip iteration over the four trace columns",
    build=_build_trace_columnar_iter,
))


# ---------------------------------------------------------------------------
# Macro scenarios (whole simulations)
# ---------------------------------------------------------------------------


@contextmanager
def _kill_switch():
    """Run with ``REPRO_NO_VECTOR_KERNEL`` set, as a process started with it would.

    The kernel loader remembers its decision for the process, so the
    memo is reset on the way in and restored on the way out.
    """
    from repro.cache import vector

    saved = (os.environ.get("REPRO_NO_VECTOR_KERNEL"), vector._KERNEL, vector._KERNEL_FAILED)
    os.environ["REPRO_NO_VECTOR_KERNEL"] = "1"
    vector._KERNEL, vector._KERNEL_FAILED = None, None
    try:
        yield
    finally:
        if saved[0] is None:
            del os.environ["REPRO_NO_VECTOR_KERNEL"]
        else:
            os.environ["REPRO_NO_VECTOR_KERNEL"] = saved[0]
        vector._KERNEL, vector._KERNEL_FAILED = saved[1], saved[2]


def _build_simulation(
    benchmark: str, predictor: str, accesses: int, engine: str, kill_switch: bool = False
):
    def build(scale: float):
        count = _scaled(accesses, scale)

        def make_task():
            # Workload/predictor construction happens inside the task:
            # the scenario times simulate_benchmark end to end, exactly
            # what the experiment drivers pay per sweep point — which,
            # like theirs, loads the trace from the store when warm (the
            # first repeat warms it; min-of-N then measures the warm
            # path; sweep.trace_cold covers per-point regeneration).
            # The engine selects the simulator loop and cache model;
            # both engines build the same predictor.
            def task():
                from repro.api import build_predictor
                from repro.sim.trace_driven import simulate_benchmark

                with _kill_switch() if kill_switch else nullcontext():
                    return simulate_benchmark(
                        benchmark,
                        prefetcher=build_predictor(predictor),
                        num_accesses=count,
                        seed=42,
                        engine=engine,
                    )

            return task

        return make_task, count

    return build


def _register_simulation_pair(
    benchmark: str, predictor: str, accesses: int, quick: bool, legacy: bool = True,
    kill_switch: bool = False,
) -> None:
    """``sim.<predictor>.<benchmark>`` plus its ``.legacy`` and ``.interpreted`` twins."""
    fast_name = f"sim.{predictor}.{benchmark}"
    label = f"simulate_benchmark({benchmark!r}, {predictor}, {accesses // 1000}k accesses)"
    _register(Scenario(
        name=fast_name,
        description=f"{label}, fast engine",
        build=_build_simulation(benchmark, predictor, accesses, "fast"),
        quick=quick,
        repeats=4,
    ))
    if legacy:
        _register(Scenario(
            name=f"{fast_name}.legacy",
            description=f"{label}, legacy engine",
            build=_build_simulation(benchmark, predictor, accesses, "legacy"),
            quick=quick,
            repeats=3,
            speedup_of=fast_name,
        ))
    if kill_switch:
        _register(Scenario(
            name=f"{fast_name}.interpreted",
            description=f"{label}, fast engine under REPRO_NO_VECTOR_KERNEL",
            build=_build_simulation(benchmark, predictor, accesses, "fast", kill_switch=True),
            quick=quick,
            repeats=3,
            speedup_of=fast_name,
        ))


# The headline pairs: the fast engine's >=3x gate over legacy is measured
# on simulate_benchmark with DBCP over mcf at 200k accesses; both DBCP and
# the no-prefetcher baseline take the compiled kernel there.  LT-cords on
# mcf, GHB and stride pair the kernel with the same run under the kill
# switch.
_register_simulation_pair("mcf", "dbcp", 200_000, quick=True)
_register_simulation_pair("mcf", "none", 200_000, quick=True)
_register_simulation_pair("mcf", "ltcords", 100_000, quick=True, legacy=False, kill_switch=True)
_register_simulation_pair("em3d", "ltcords", 100_000, quick=False)
_register_simulation_pair("swim", "ghb", 100_000, quick=False, kill_switch=True)
# Predictor-focused pairs: GHB on an irregular pointer chase (index-table
# and chain-walk pressure) and the stride RPT on its natural workload.
_register_simulation_pair("mcf", "ghb", 100_000, quick=False, kill_switch=True)
_register_simulation_pair("swim", "stride", 100_000, quick=False, kill_switch=True)


def _build_multicore(
    benchmarks, predictor: str, accesses: int, engine: str, kill_switch: bool = False
):
    def build(scale: float):
        count = _scaled(accesses, scale)

        def make_task():
            # Times the whole co-run end to end (trace loads warm after
            # the first repeat, like the single-core sim scenarios).
            def task():
                from repro.multicore import MulticoreSpec, simulate_multicore

                with _kill_switch() if kill_switch else nullcontext():
                    return simulate_multicore(MulticoreSpec(
                        benchmarks=benchmarks,
                        predictors=(predictor,),
                        num_accesses=count,
                        seed=42,
                        engine=engine,
                    ))

            return task

        return make_task, count * len(benchmarks)

    return build


# The co-runs are in the quick set: BENCH_baseline.json gates them.
_register(Scenario(
    name="sim.multicore.2x",
    description="2-core shared-L2 co-run (mcf+art, dbcp, 60k accesses/core), fast engine",
    build=_build_multicore(("mcf", "art"), "dbcp", 60_000, "fast"),
    repeats=3,
    quick=True,
))
_register(Scenario(
    name="sim.multicore.2x.legacy",
    description="2-core shared-L2 co-run (mcf+art, dbcp, 60k accesses/core), legacy engine",
    build=_build_multicore(("mcf", "art"), "dbcp", 60_000, "legacy"),
    repeats=3,
    quick=True,
    speedup_of="sim.multicore.2x",
))
_register(Scenario(
    name="sim.multicore.4x",
    description="4-core shared-L2 co-run (mcf+art+swim+gzip, ltcords, 40k accesses/core)",
    build=_build_multicore(("mcf", "art", "swim", "gzip"), "ltcords", 40_000, "fast"),
    repeats=3,
    quick=True,
))
# The co-run's kernel lanes against the same co-run under the kill switch.
_register(Scenario(
    name="sim.multicore.4x.interpreted",
    description="4-core shared-L2 co-run (mcf+art+swim+gzip, ltcords, 40k accesses/core), "
    "fast engine under REPRO_NO_VECTOR_KERNEL",
    build=_build_multicore(
        ("mcf", "art", "swim", "gzip"), "ltcords", 40_000, "fast", kill_switch=True
    ),
    repeats=3,
    quick=True,
    speedup_of="sim.multicore.4x",
))


def _build_timing(benchmark: str, predictor: str, accesses: int, kill_switch: bool = False):
    def build(scale: float):
        count = _scaled(accesses, scale)

        def make_task():
            # A Table 3 point end to end: the replay, then the timing
            # model's walk over its outcome column (both on the kernel,
            # or both interpreted under the kill switch).
            def task():
                from repro.api import build_predictor
                from repro.sim.timing import simulate_speedup

                with _kill_switch() if kill_switch else nullcontext():
                    return simulate_speedup(
                        benchmark,
                        prefetcher=build_predictor(predictor),
                        num_accesses=count,
                        seed=42,
                    )

            return task

        return make_task, count

    return build


_register(Scenario(
    name="sim.timing.mcf",
    description="simulate_speedup('mcf', ltcords, 100k accesses): replay + timing model",
    build=_build_timing("mcf", "ltcords", 100_000),
    repeats=3,
))
_register(Scenario(
    name="sim.timing.mcf.interpreted",
    description="simulate_speedup('mcf', ltcords, 100k accesses) under REPRO_NO_VECTOR_KERNEL",
    build=_build_timing("mcf", "ltcords", 100_000, kill_switch=True),
    repeats=3,
    speedup_of="sim.timing.mcf",
))


def _build_dbcp_replay(scale: float):
    from repro.workloads.base import WorkloadConfig
    from repro.workloads.registry import get_workload

    count = _scaled(200_000, scale)
    trace = get_workload("mcf", WorkloadConfig(num_accesses=count, seed=42)).generate()

    def make_task():
        def task():
            from repro.api import build_predictor
            from repro.sim.trace_driven import TraceDrivenSimulator

            return TraceDrivenSimulator(prefetcher=build_predictor("dbcp")).run(trace)

        return task

    return make_task, count


_register(Scenario(
    name="sim.dbcp.mcf.replay",
    description="DBCP replay only (mcf, 200k accesses, trace prebuilt) — the "
                "report's time_split pairs this with trace.generate",
    build=_build_dbcp_replay,
    quick=True,
    repeats=4,
))


# ---------------------------------------------------------------------------
# Repeated-sweep scenarios: trace store warm vs cold
# ---------------------------------------------------------------------------

#: Sweep shape of the warm/cold pair: several cache-resident benchmarks
#: replayed without a predictor, i.e. the per-point cost profile of a
#: Table-2-style baseline sweep, where trace generation dominates replay.
_SWEEP_BENCHMARKS = ("crafty", "eon", "mesa", "sixtrack")


def _build_sweep_warm(scale: float):
    from repro.api import build_predictor
    from repro.sim.trace_driven import TraceDrivenSimulator
    from repro.trace.store import TraceStore
    from repro.workloads.base import WorkloadConfig

    count = _scaled(120_000, scale)
    config = WorkloadConfig(num_accesses=count, seed=42)
    root = _temp_store_root("repro-bench-sweep-")

    def make_task():
        store = TraceStore(root)
        store.prewarm(_SWEEP_BENCHMARKS, [config])  # untimed

        def task():
            for benchmark in _SWEEP_BENCHMARKS:
                trace = store.load_or_generate(benchmark, config)
                TraceDrivenSimulator(prefetcher=build_predictor("none")).run(trace)

        return task

    return make_task, count * len(_SWEEP_BENCHMARKS)


_register(Scenario(
    name="sweep.trace_warm",
    description=f"{len(_SWEEP_BENCHMARKS)}-benchmark baseline sweep, traces "
                "mmap-loaded from a warm trace store",
    build=_build_sweep_warm,
    quick=True,
))


def _build_sweep_cold(scale: float):
    from repro.api import build_predictor
    from repro.sim.trace_driven import TraceDrivenSimulator
    from repro.workloads.base import WorkloadConfig
    from repro.workloads.registry import get_workload

    count = _scaled(120_000, scale)
    config = WorkloadConfig(num_accesses=count, seed=42)

    def make_task():
        def task():
            # The pre-store world: every sweep point regenerates its trace.
            for benchmark in _SWEEP_BENCHMARKS:
                trace = get_workload(benchmark, config).generate()
                TraceDrivenSimulator(prefetcher=build_predictor("none")).run(trace)

        return task

    return make_task, count * len(_SWEEP_BENCHMARKS)


_register(Scenario(
    name="sweep.trace_cold",
    description=f"{len(_SWEEP_BENCHMARKS)}-benchmark baseline sweep, every "
                "point regenerating its trace (no store)",
    build=_build_sweep_cold,
    quick=True,
    speedup_of="sweep.trace_warm",
))
