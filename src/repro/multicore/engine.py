"""The N-core shared-hierarchy co-run simulator.

Each core replays its own trace column through a private L1D into one
genuinely shared L2 (a :class:`~repro.cache.hierarchy.SharedL2`), with a
per-core prefetcher (any registry predictor — heterogeneous mixes
allowed), a per-core 128-entry prefetch request queue
(``memory.request_queue``) and per-core bus-traffic attribution
(``memory.bus``); occupancy questions are asked of the merged model.
A shadow baseline (per-core L1s over a second shared L2, no predictors)
defines each core's prediction opportunity exactly as in the
single-core :class:`~repro.sim.trace_driven.TraceDrivenSimulator`.

Interleaving
------------
Cores are scheduled in deterministic chunks computed *once* from the
traces' instruction-count columns and shared by both engines:

* ``"rr"`` — round-robin turns of ``quantum_accesses`` references per
  core, mimicking fine-grained multicore progress;
* ``"icount"`` — an instruction-count merge: the core with the lowest
  next icount runs until it passes the next core, i.e. all cores
  progress at equal instruction rates.

With one core both policies degenerate to sequential replay.

Engines
-------
Every core is a :class:`~repro.sim.trace_driven.TraceDrivenSimulator`
*lane* whose main and baseline hierarchies take their L2 from the two
shared L2s.  :meth:`TraceDrivenSimulator.replay_chunks` turns one of the
simulator's tiers into a resumable ``(run_chunk, settle)`` pair, and
the co-run calls each core's ``run_chunk`` in schedule order.  With
``engine="fast"`` every lane runs on the compiled kernel when every
lane qualifies for it (each lane a kernel state, one native call per
chunk, over C copies of the two shared L2s that
:func:`~repro.sim.vector_replay.open_co_run` settles into the
:class:`SharedL2` objects once the lanes have settled).  Otherwise — a
plugin predictor on any core, no compiler, or a GHB/stride prediction
leaving the kernel's address range mid-co-run — the whole co-run
replays on the interpreted tier, from the start, each kernel-eligible
lane noting its fallback reason (``co-runner`` when another core kept
it off the kernel).  ``engine="legacy"`` runs the object-per-access
loop.  So a core replays through exactly the code of a single-core
run, and each core's :class:`~repro.sim.trace_driven.SimulationResult`
is its lane's ``build_result``: a one-core co-run is the single-core
run, and every engine and tier produces bit-identical
``MulticoreResult.to_dict`` output (the collapse suite, the co-run
differential suite and the 28-benchmark matrix assert it).

Cross-core interference
-----------------------
Shared-L2 blocks remember which core last allocated them; an eviction
whose victim belonged to a different core is a *cross-core eviction*,
counted in aggregate and — when the displacing allocation was a
prefetch — attributed to the prefetching core.  This is the
multi-programmed interference signal of the paper's Section 5.5 measured
structurally instead of by coverage proxy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, SharedL2
from repro.core.interface import Prefetcher
from repro.engines import validate_engine
from repro.memory.bus import BusModel
from repro.multicore.result import MulticoreResult
from repro.multicore.spec import DEFAULT_QUANTUM_ACCESSES, MulticoreSpec, validate_schedule
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.sim.vector_replay import KernelRangeError, open_co_run, replay_event_fields
from repro.trace.stream import TraceStream, shift_addresses


def schedule_chunks(
    icount_columns: Sequence[Sequence[int]],
    interleave: str = "rr",
    quantum_accesses: int = DEFAULT_QUANTUM_ACCESSES,
) -> List[Tuple[int, int, int]]:
    """The deterministic co-run schedule: ``(core, start, stop)`` chunks.

    Depends only on the traces' icount columns (and lengths), so the fast
    and legacy engines — which share the schedule — can never diverge by
    scheduling.  Every trace is covered completely, in order, per core.
    """
    validate_schedule(interleave, quantum_accesses)
    lengths = [len(column) for column in icount_columns]
    positions = [0] * len(lengths)
    chunks: List[Tuple[int, int, int]] = []
    if interleave == "rr":
        remaining = sum(lengths)
        while remaining:
            for core, length in enumerate(lengths):
                position = positions[core]
                if position >= length:
                    continue
                stop = min(position + quantum_accesses, length)
                chunks.append((core, position, stop))
                positions[core] = stop
                remaining -= stop - position
        return chunks
    while True:
        active = [core for core, length in enumerate(lengths) if positions[core] < length]
        if not active:
            return chunks
        core = min(active, key=lambda c: (icount_columns[c][positions[c]], c))
        others = [icount_columns[c][positions[c]] for c in active if c != core]
        position = positions[core]
        column = icount_columns[core]
        length = lengths[core]
        if not others:
            stop = length
        else:
            bound = min(others)
            stop = position
            while stop < length and column[stop] <= bound:
                stop += 1
        chunks.append((core, position, stop))
        positions[core] = stop


class MulticoreSimulator:
    """Replays N traces against private-L1 / shared-L2 hierarchies."""

    def __init__(
        self,
        prefetchers: Sequence[Prefetcher],
        hierarchy_config: Optional[HierarchyConfig] = None,
        engine: str = "fast",
        request_queue_size: int = 128,
        interleave: str = "rr",
        quantum_accesses: int = DEFAULT_QUANTUM_ACCESSES,
    ) -> None:
        validate_engine(engine)
        validate_schedule(interleave, quantum_accesses)
        if not prefetchers:
            raise ValueError("need at least one per-core prefetcher")
        self.engine = engine
        self.interleave = interleave
        self.quantum_accesses = quantum_accesses
        self.num_cores = len(prefetchers)
        self.hierarchy_config = config = hierarchy_config or HierarchyConfig()
        self.shared_l2 = SharedL2(config.l2, engine, self.num_cores)
        #: The baselines' shared L2 (no prefetches, no ownership recorded).
        self.baseline_l2 = baseline_l2 = SharedL2(config.l2, engine, self.num_cores)
        #: One single-core simulator per core, over the shared L2s.
        self.lanes: List[TraceDrivenSimulator] = []
        for core, prefetcher in enumerate(prefetchers):
            lane = TraceDrivenSimulator(prefetcher, config, request_queue_size, engine)
            lane.hierarchy = CacheHierarchy(config, engine, shared_l2=self.shared_l2, core=core)
            lane.baseline = CacheHierarchy(config, engine, shared_l2=baseline_l2, core=core)
            self.lanes.append(lane)

    def run(
        self, traces: Sequence[TraceStream], benchmarks: Optional[Sequence[str]] = None
    ) -> MulticoreResult:
        """Replay one trace per core under the configured interleaving."""
        self.replay(traces)
        return self.build_result(traces, benchmarks)

    def replay(self, traces: Sequence[TraceStream]) -> None:
        """The co-run only: replay every trace, accumulating counters.

        Split from :meth:`build_result` so instrumented callers (the
        ``repro.obs`` phase timers in :func:`simulate_multicore`) can
        time replay and settle separately; :meth:`run` is the unchanged
        one-call form.
        """
        if len(traces) != self.num_cores:
            raise ValueError(
                f"expected {self.num_cores} traces (one per prefetcher), got {len(traces)}"
            )
        chunks = schedule_chunks(
            [trace.as_arrays().icount for trace in traces], self.interleave, self.quantum_accesses
        )
        if self.engine == "fast":
            co_run = open_co_run(self.lanes, traces, (self.shared_l2, self.baseline_l2))
            if co_run is not None:
                try:
                    self._replay_schedule(traces, chunks, co_run.lanes)
                    co_run.settle()
                    return
                except KernelRangeError as error:
                    co_run.fall_back(error)
                finally:
                    co_run.close()
        self._replay_schedule(traces, chunks, [None] * self.num_cores)

    def _replay_schedule(self, traces, chunks, kernel_lanes) -> None:
        """Run ``chunks`` over one ``replay_chunks`` pair per lane, then settle every lane."""
        run_chunks, settles = zip(*(
            lane.replay_chunks(trace, kernel)
            for lane, trace, kernel in zip(self.lanes, traces, kernel_lanes)
        ))
        for core, start, stop in chunks:
            run_chunks[core](start, stop)
        for settle in settles:
            settle()

    def build_result(
        self, traces: Sequence[TraceStream], benchmarks: Optional[Sequence[str]] = None
    ) -> MulticoreResult:
        """Fold the accumulated counters into a :class:`MulticoreResult`."""
        per_core = [lane.build_result(trace) for lane, trace in zip(self.lanes, traces)]
        main_stats = [lane.hierarchy.stats for lane in self.lanes]
        l2_hits = sum(stats.l2_hits for stats in main_stats)
        l2_misses = sum(stats.l2_misses for stats in main_stats)
        merged = BusModel.merged([lane.bus for lane in self.lanes])
        return MulticoreResult(
            benchmarks=list(benchmarks) if benchmarks is not None else [t.name for t in traces],
            interleave=self.interleave,
            per_core=per_core,
            cross_core_evictions=self.shared_l2.cross_core_evictions,
            prefetch_cross_core_evictions=list(self.shared_l2.prefetch_cross_core_evictions),
            shared_l2_accesses=l2_hits + l2_misses,
            shared_l2_hits=l2_hits,
            shared_l2_misses=l2_misses,
            bus_bytes=dict(merged.bytes_by_category),
            bus_requests=dict(merged.requests_by_category),
        )


def simulate_multicore(spec: MulticoreSpec, trace_store=None, observer=None) -> MulticoreResult:
    """Run one multicore co-run spec end to end and return its result.

    Traces come from the content-addressed store (one per benchmark x
    length x seed, shared between cores running the same benchmark);
    core ``i``'s addresses are shifted by ``i * spec.address_shift`` so
    working sets occupy disjoint physical ranges, exactly as the paper's
    multi-programmed methodology requires.

    Like the single-core path, the run splits into the standard
    ``repro.obs`` phases — ``trace_acquire`` (loading/shifting every
    core's trace), ``replay`` (the interleaved co-run loop), ``settle``
    (result assembly) — recorded into the metrics registry and, with an
    ``observer``, emitted as ``phase`` events.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.timers import PHASE_REPLAY, PHASE_SETTLE, PHASE_TRACE_ACQUIRE
    from repro.obs.timers import phase as obs_phase
    from repro.registry import build_predictor
    from repro.trace.store import load_or_generate_trace
    from repro.workloads.base import WorkloadConfig

    workload_config = WorkloadConfig(num_accesses=spec.num_accesses, seed=spec.seed)
    with obs_phase(PHASE_TRACE_ACQUIRE, observer=observer):
        traces = []
        for index, benchmark in enumerate(spec.benchmarks):
            trace = load_or_generate_trace(benchmark, workload_config, store=trace_store)
            if index and spec.address_shift:
                trace = shift_addresses(trace, index * spec.address_shift)
            traces.append(trace)
    prefetchers = [
        build_predictor(name, predictor_config)
        for name, predictor_config in zip(spec.core_predictors, spec.core_predictor_configs)
    ]
    simulator = MulticoreSimulator(
        prefetchers,
        hierarchy_config=spec.hierarchy_config,
        engine=spec.engine,
        interleave=spec.interleave,
        quantum_accesses=spec.quantum_accesses,
    )
    with obs_phase(PHASE_REPLAY, observer=observer) as event:
        simulator.replay(traces)
        event.update(replay_event_fields(simulator.lanes, lanes=True))
    with obs_phase(PHASE_SETTLE, observer=observer):
        result = simulator.build_result(traces, benchmarks=spec.benchmarks)
    REGISTRY.counter("replay.accesses").inc(sum(len(trace) for trace in traces))
    return result
