"""The N-core shared-hierarchy co-run simulator.

Each core replays its own trace column through a private L1D into one
genuinely shared L2 (``cache.hierarchy.SharedL2Hierarchy``), with a
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

With one core both policies degenerate to sequential replay, which is
what makes the differential collapse guarantee possible.

Engines
-------
``engine="fast"`` mirrors the PR 2/3 fast-path architecture: per-core
closures iterate column slices with locals hoisted, drive the caches
through ``access_fast``, use the predictors' fast per-access protocol
when available (reused-outcome fallback otherwise), take the
single-command queue bypass, and settle hierarchy/breakdown/bus counters
in bulk; the compiled single-core kernel does not apply to co-runs.
``engine="legacy"`` is the clear
object-per-access reference loop over the same chunk schedule.  Every
engine produces bit-identical ``MulticoreResult.to_dict`` output (the
multicore equivalence matrix asserts this for every benchmark), and a
one-core run of any engine is bit-identical to the matching single-core
simulator (the collapse suite asserts this for every predictor x engine
pair).

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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import HierarchyConfig, ServiceLevel, SharedL2Hierarchy
from repro.core.interface import AccessOutcome, Prefetcher
from repro.engines import validate_engine
from repro.memory.bus import BusModel, TrafficCategory
from repro.memory.request_queue import PrefetchRequestQueue
from repro.multicore.result import MulticoreResult
from repro.multicore.spec import DEFAULT_QUANTUM_ACCESSES, MulticoreSpec
from repro.sim.trace_driven import CoverageBreakdown, SimulationResult
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import TraceStream, shift_addresses

#: ServiceLevel by the int code the fast prefetch path returns.
_LEVEL_BY_CODE = (ServiceLevel.L1, ServiceLevel.L2, ServiceLevel.MEMORY)


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
    if interleave != "icount":
        raise ValueError(f"unknown interleave policy {interleave!r}")
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
        if not prefetchers:
            raise ValueError("need at least one per-core prefetcher")
        self.engine = engine
        self.interleave = interleave
        self.quantum_accesses = quantum_accesses
        self.prefetchers = list(prefetchers)
        self.num_cores = len(self.prefetchers)
        self.hierarchy_config = hierarchy_config or HierarchyConfig()
        self.shared = SharedL2Hierarchy(self.hierarchy_config, self.num_cores, engine=engine)
        self.shared_baseline = SharedL2Hierarchy(
            self.hierarchy_config, self.num_cores, engine=engine
        )
        self.request_queues = [
            PrefetchRequestQueue(request_queue_size) for _ in range(self.num_cores)
        ]
        self.breakdowns = [CoverageBreakdown() for _ in range(self.num_cores)]
        self.core_bus = [BusModel() for _ in range(self.num_cores)]
        self._block_mask = ~(self.shared.block_size - 1)
        # Per core: prefetched blocks currently resident (or outstanding)
        # in that core's L1D: block address -> (command tag, source level).
        self._prefetched: List[Dict[int, Tuple[object, ServiceLevel]]] = [
            {} for _ in range(self.num_cores)
        ]
        # Shared-L2 interference bookkeeping: block -> last allocating core.
        self._l2_owner: Dict[int, int] = {}
        self.cross_core_evictions = 0
        self.prefetch_cross_core_evictions = [0] * self.num_cores

    # ------------------------------------------------------------------ helpers
    def _notify_unused_eviction(self, core: int, evicted_address: Optional[int]) -> None:
        if evicted_address is None:
            return
        info = self._prefetched[core].pop(evicted_address, None)
        if info is None:
            return
        tag, source = info
        self.breakdowns[core].incorrect_prefetches += 1
        if source is ServiceLevel.MEMORY:
            # An unused prefetch that crossed the memory bus is pure waste.
            self.core_bus[core].record(
                TrafficCategory.INCORRECT_PREDICTION, self.shared.block_size
            )
        self.prefetchers[core].on_prefetch_evicted_unused(evicted_address, tag)

    def _track_l2_fill(
        self, core: int, block_address: int, evicted_address: Optional[int], by_prefetch: bool
    ) -> None:
        """Account one shared-L2 allocation by ``core`` for interference stats."""
        owners = self._l2_owner
        if evicted_address is not None:
            owner = owners.pop(evicted_address, None)
            if owner is not None and owner != core:
                self.cross_core_evictions += 1
                if by_prefetch:
                    self.prefetch_cross_core_evictions[core] += 1
        owners[block_address] = core

    # ------------------------------------------------------------------ main loop
    def run(
        self, traces: Sequence[TraceStream], benchmarks: Optional[Sequence[str]] = None
    ) -> MulticoreResult:
        """Replay one trace per core under the configured interleaving."""
        self.replay(traces)
        return self.build_result(traces, benchmarks)

    def replay(self, traces: Sequence[TraceStream]) -> None:
        """The co-run loop only: replay every trace, accumulating counters.

        Split from :meth:`build_result` so instrumented callers (the
        ``repro.obs`` phase timers in :func:`simulate_multicore`) can
        time replay and settle separately; :meth:`run` is the unchanged
        one-call form.
        """
        if len(traces) != self.num_cores:
            raise ValueError(
                f"expected {self.num_cores} traces (one per prefetcher), got {len(traces)}"
            )
        columns = [trace.as_arrays() for trace in traces]
        chunks = schedule_chunks(
            [column.icount for column in columns], self.interleave, self.quantum_accesses
        )
        if self.engine == "legacy":
            cores = [self._make_legacy_core(core, traces[core]) for core in range(self.num_cores)]
        else:
            cores = [self._make_fast_core(core, columns[core]) for core in range(self.num_cores)]
        for core, start, stop in chunks:
            cores[core][0](start, stop)
        for run_chunk, settle in cores:
            settle()

    # ------------------------------------------------------------------ fast engine
    def _make_fast_core(self, core: int, columns):
        """Per-core columnar closures: ``(run_chunk, settle)``.

        Mirrors the single-core interpreted loop (``_run_fast``):
        locals hoisted once per core, caches driven
        through ``access_fast``, single-command queue bypass, counters
        settled in bulk by ``settle``.  The only additions are the
        shared-L2 ownership updates on L2 allocations.
        """
        sim = self
        shared = self.shared
        baseline = self.shared_baseline
        l1 = shared.l1s[core]
        main_l1_access = l1.access_fast
        main_l1_last = l1.last
        main_l2 = shared.l2
        main_l2_access = main_l2.access_fast
        main_l2_last = main_l2.last
        base_l1_access = baseline.l1s[core].access_fast
        base_l2_access = baseline.l2.access_fast
        block_mask = self._block_mask
        l1_config = self.hierarchy_config.l1
        set_shift = l1_config.offset_bits
        set_mask = l1_config.num_sets - 1

        prefetcher = self.prefetchers[core]
        on_access = prefetcher.on_access
        on_access_fast = prefetcher.on_access_fast
        on_prefetch_used = prefetcher.on_prefetch_used
        on_prefetch_installed = prefetcher.on_prefetch_installed
        notify_unused = self._notify_unused_eviction
        prefetched = self._prefetched[core]
        prefetched_pop = prefetched.pop
        hierarchy_prefetch = shared.prefetch_into_l1_fast
        level_by_code = _LEVEL_BY_CODE
        request_queue = self.request_queues[core]
        queue_push = request_queue.push
        queue_pending = request_queue._queue
        queue_note_immediate = request_queue.note_immediate_issue
        l2_owner = self._l2_owner
        owner_pop = l2_owner.pop

        pc_col = columns.pc
        addr_col = columns.address
        isw_col = columns.is_write
        ic_col = columns.icount

        base_misses = 0
        correct = 0
        early = 0
        base_l2_hits = 0
        base_l2_misses = 0
        main_l1_hits = 0
        main_l2_hits = 0
        main_l2_misses = 0

        def execute_one(prefetch_address, victim_address, tag):
            # The body of the single-core _execute_prefetch_one against
            # the shared hierarchy, plus ownership tracking on a
            # memory-sourced L2 allocation.
            source = hierarchy_prefetch(core, prefetch_address, victim_address)
            if not source:
                return  # already resident: nothing installed
            prefetch_evicted = main_l1_last.evicted_address
            prefetch_block = prefetch_address & block_mask
            if source == 2:
                evicted_l2 = shared.last_l2_evicted_address
                if evicted_l2 is not None:
                    owner = owner_pop(evicted_l2, None)
                    if owner is not None and owner != core:
                        sim.cross_core_evictions += 1
                        sim.prefetch_cross_core_evictions[core] += 1
                l2_owner[prefetch_block] = core
            if main_l1_last.evicted_unused_prefetch:
                notify_unused(core, prefetch_evicted)
            prefetched[prefetch_block] = (tag, level_by_code[source])
            on_prefetch_installed(prefetch_block, prefetch_evicted, tag=tag)

        def execute_pending():
            for request in request_queue.pop_all():
                execute_one(request.address, request.victim_address, request.tag)

        if on_access_fast is None:
            # One reusable access record + outcome, mutated in place.
            store = AccessType.STORE
            load = AccessType.LOAD
            access_view = MemoryAccess.__new__(MemoryAccess)
            access_view.pc = 0
            access_view.address = 0
            access_view.access_type = load
            access_view.icount = 0
            outcome = AccessOutcome(access=access_view, block_address=0, set_index=0, l1_hit=True)

        def run_chunk_direct(start, stop):
            nonlocal base_misses, correct, early, base_l2_hits, base_l2_misses
            nonlocal main_l1_hits, main_l2_hits, main_l2_misses
            for pc, address, is_write in zip(
                pc_col[start:stop], addr_col[start:stop], isw_col[start:stop]
            ):
                code = main_l1_access(address, is_write)
                if code:
                    main_l1_hits += 1
                elif main_l2_access(address, 0):
                    main_l2_hits += 1
                else:
                    main_l2_misses += 1
                    evicted_l2 = main_l2_last.evicted_address
                    if evicted_l2 is not None:
                        owner = owner_pop(evicted_l2, None)
                        if owner is not None and owner != core:
                            sim.cross_core_evictions += 1
                    l2_owner[address & block_mask] = core

                # Classify against the prediction opportunity.
                if base_l1_access(address, is_write):
                    if not code:
                        early += 1
                else:
                    base_misses += 1
                    if code:
                        correct += 1
                    if base_l2_access(address, 0):
                        base_l2_hits += 1
                    else:
                        base_l2_misses += 1

                block_address = address & block_mask

                # Feedback for prefetched blocks.
                if code:
                    evicted_address = None
                    if code == 2:
                        info = prefetched_pop(block_address, None)
                        if info is not None:
                            on_prefetch_used(block_address, info[0])
                else:
                    evicted_address = main_l1_last.evicted_address
                    if main_l1_last.evicted_unused_prefetch:
                        notify_unused(core, evicted_address)

                commands = on_access_fast(pc, address, block_address, code, evicted_address)
                if commands:
                    if len(commands) == 1 and not queue_pending:
                        # Common case: one command into an empty queue,
                        # drained immediately — skip the queue round-trip.
                        command = commands[0]
                        queue_note_immediate()
                        execute_one(command.address, command.victim_address, command.tag)
                    else:
                        for command in commands:
                            queue_push(command.address, command.victim_address, tag=command.tag)
                        execute_pending()
                elif queue_pending:
                    execute_pending()

        def run_chunk_generic(start, stop):
            nonlocal base_misses, correct, early, base_l2_hits, base_l2_misses
            nonlocal main_l1_hits, main_l2_hits, main_l2_misses
            for pc, address, is_write, icount in zip(
                pc_col[start:stop], addr_col[start:stop], isw_col[start:stop], ic_col[start:stop]
            ):
                code = main_l1_access(address, is_write)
                l2_hit = False
                if code:
                    main_l1_hits += 1
                elif main_l2_access(address, 0):
                    main_l2_hits += 1
                    l2_hit = True
                else:
                    main_l2_misses += 1
                    evicted_l2 = main_l2_last.evicted_address
                    if evicted_l2 is not None:
                        owner = owner_pop(evicted_l2, None)
                        if owner is not None and owner != core:
                            sim.cross_core_evictions += 1
                    l2_owner[address & block_mask] = core

                # Classify against the prediction opportunity.
                if base_l1_access(address, is_write):
                    if not code:
                        early += 1
                else:
                    base_misses += 1
                    if code:
                        correct += 1
                    if base_l2_access(address, 0):
                        base_l2_hits += 1
                    else:
                        base_l2_misses += 1

                block_address = address & block_mask

                # Feedback for prefetched blocks.
                if code:
                    evicted_address = None
                    evicted_unused = False
                    set_index = (address >> set_shift) & set_mask
                    if code == 2:
                        info = prefetched_pop(block_address, None)
                        if info is not None:
                            on_prefetch_used(block_address, info[0])
                else:
                    evicted_address = main_l1_last.evicted_address
                    evicted_unused = main_l1_last.evicted_unused_prefetch
                    set_index = main_l1_last.set_index
                    if evicted_unused:
                        notify_unused(core, evicted_address)

                access_view.pc = pc
                access_view.address = address
                access_view.access_type = store if is_write else load
                access_view.icount = icount
                outcome.block_address = block_address
                outcome.set_index = set_index
                outcome.l1_hit = code != 0
                outcome.l2_hit = l2_hit
                outcome.prefetch_hit = code == 2
                outcome.evicted_address = evicted_address
                outcome.evicted_was_unused_prefetch = evicted_unused
                commands = on_access(outcome)
                if commands:
                    if len(commands) == 1 and not queue_pending:
                        command = commands[0]
                        queue_note_immediate()
                        execute_one(command.address, command.victim_address, command.tag)
                    else:
                        for command in commands:
                            queue_push(command.address, command.victim_address, tag=command.tag)
                        execute_pending()
                elif queue_pending:
                    execute_pending()

        def settle():
            num_accesses = len(addr_col)
            self._settle_core(
                core, num_accesses, base_misses, correct, early,
                base_l2_hits, base_l2_misses, main_l1_hits, main_l2_hits, main_l2_misses,
            )
            if on_access_fast is not None:
                # The fast per-access protocol defers observation counting
                # to the driver (mirrors the single-core fast engine).
                stats = prefetcher.stats
                stats.accesses_observed += num_accesses
                stats.misses_observed += num_accesses - main_l1_hits

        return (run_chunk_direct if on_access_fast is not None else run_chunk_generic, settle)

    def _settle_core(
        self,
        core: int,
        num_accesses: int,
        base_misses: int,
        correct: int,
        early: int,
        base_l2_hits: int,
        base_l2_misses: int,
        main_l1_hits: int,
        main_l2_hits: int,
        main_l2_misses: int,
    ) -> None:
        """Fold one core's loop-local counters into its stats structures."""
        base_stats = self.shared_baseline.stats[core]
        base_stats.accesses += num_accesses
        base_stats.l1_hits += num_accesses - base_misses
        base_stats.l1_misses += base_misses
        base_stats.l2_hits += base_l2_hits
        base_stats.l2_misses += base_l2_misses
        main_stats = self.shared.stats[core]
        main_stats.accesses += num_accesses
        main_stats.l1_hits += main_l1_hits
        main_stats.l1_misses += num_accesses - main_l1_hits
        main_stats.l2_hits += main_l2_hits
        main_stats.l2_misses += main_l2_misses
        breakdown = self.breakdowns[core]
        breakdown.base_misses += base_misses
        breakdown.correct += correct
        breakdown.early += early
        if base_l2_misses:
            self.core_bus[core].record(
                TrafficCategory.BASE_DATA,
                base_l2_misses * self.shared.block_size,
                requests=base_l2_misses,
            )

    # ------------------------------------------------------------------ legacy engine
    def _make_legacy_core(self, core: int, trace: TraceStream):
        """Per-core reference closures: ``(run_chunk, settle)``.

        The clear object-per-access loop (the single-core ``_run_legacy``
        against the shared hierarchy); stats accumulate per access
        through the hierarchy wrappers, so ``settle`` is a no-op.
        """
        shared = self.shared
        baseline = self.shared_baseline
        accesses = trace.accesses
        breakdown = self.breakdowns[core]
        bus = self.core_bus[core]
        block_size = shared.block_size
        l1_config = self.hierarchy_config.l1
        prefetcher = self.prefetchers[core]
        request_queue = self.request_queues[core]
        prefetched = self._prefetched[core]

        def execute_pending():
            for request in request_queue.pop_all():
                outcome = shared.prefetch_into_l1(core, request.address, request.victim_address)
                if not outcome.installed:
                    continue
                block = l1_config.block_address(request.address)
                if outcome.source is ServiceLevel.MEMORY:
                    self._track_l2_fill(
                        core, block, shared.last_l2_evicted_address, by_prefetch=True
                    )
                # Inserting may itself evict an unused prefetched block.
                if outcome.evicted_was_unused_prefetch:
                    self._notify_unused_eviction(core, outcome.evicted_address)
                prefetched[block] = (request.tag, outcome.source)
                prefetcher.on_prefetch_installed(block, outcome.evicted_address, tag=request.tag)

        def run_chunk(start, stop):
            for access in accesses[start:stop]:
                base_result = baseline.access(core, access.address, access.is_write)
                main_result = shared.access(core, access.address, access.is_write)

                block_address = l1_config.block_address(access.address)

                # Classify against the prediction opportunity.
                if base_result.l1_miss:
                    breakdown.base_misses += 1
                    if main_result.l1_hit:
                        breakdown.correct += 1
                    if base_result.l2_miss:
                        bus.record(TrafficCategory.BASE_DATA, block_size)
                elif main_result.l1_miss:
                    breakdown.early += 1

                # Shared-L2 ownership on a demand allocation.
                if main_result.l1_miss and main_result.l2_miss:
                    self._track_l2_fill(
                        core,
                        block_address,
                        main_result.l2_result.evicted_address,
                        by_prefetch=False,
                    )

                # Feedback for prefetched blocks.
                if main_result.l1_hit and main_result.prefetch_hit:
                    info = prefetched.pop(block_address, None)
                    if info is not None:
                        prefetcher.on_prefetch_used(block_address, info[0])
                if main_result.l1_miss and main_result.l1_result.evicted_was_prefetched_unused:
                    self._notify_unused_eviction(core, main_result.l1_result.evicted_address)

                outcome = AccessOutcome(
                    access=access,
                    block_address=block_address,
                    set_index=main_result.l1_result.set_index,
                    l1_hit=main_result.l1_hit,
                    l2_hit=main_result.level is ServiceLevel.L2,
                    prefetch_hit=main_result.prefetch_hit,
                    evicted_address=main_result.l1_result.evicted_address,
                    evicted_was_unused_prefetch=main_result.l1_result.evicted_was_prefetched_unused,
                )
                for command in prefetcher.on_access(outcome):
                    request_queue.push(command.address, command.victim_address, tag=command.tag)
                execute_pending()

        def settle():
            pass

        return (run_chunk, settle)

    # ------------------------------------------------------------------ results
    def _core_result(self, core: int, trace: TraceStream) -> SimulationResult:
        """One core's private view, identical in shape to a single-core run."""
        prefetcher = self.prefetchers[core]
        bus = self.core_bus[core]
        # Account the predictor's own off-chip metadata traffic.
        creation = getattr(prefetcher, "sequence_creation_bytes", lambda: 0)()
        fetch = getattr(prefetcher, "sequence_fetch_bytes", lambda: 0)()
        if creation:
            bus.record(TrafficCategory.SEQUENCE_CREATION, creation, requests=0)
        if fetch:
            bus.record(TrafficCategory.SEQUENCE_FETCH, fetch, requests=0)
        on_chip = getattr(prefetcher, "on_chip_storage_bytes", lambda: None)()
        base_stats = self.shared_baseline.stats[core]
        main_stats = self.shared.stats[core]
        return SimulationResult(
            benchmark=trace.name,
            predictor=prefetcher.name,
            num_accesses=len(trace),
            instruction_count=trace.instruction_count,
            breakdown=self.breakdowns[core],
            baseline_l1_misses=base_stats.l1_misses,
            baseline_l2_misses=base_stats.l2_misses,
            predictor_l1_misses=main_stats.l1_misses,
            predictor_l2_misses=main_stats.l2_misses,
            prefetches_issued=prefetcher.stats.predictions_issued,
            prefetches_used=prefetcher.stats.prefetches_used,
            bus_bytes=dict(bus.bytes_by_category),
            on_chip_storage_bytes=on_chip,
        )

    def build_result(
        self, traces: Sequence[TraceStream], benchmarks: Optional[Sequence[str]] = None
    ) -> MulticoreResult:
        """Fold the accumulated counters into a :class:`MulticoreResult`."""
        per_core = [self._core_result(core, trace) for core, trace in enumerate(traces)]
        aggregate = self.shared.aggregate_stats()
        merged = BusModel.merged(self.core_bus)
        return MulticoreResult(
            benchmarks=list(benchmarks) if benchmarks is not None else [t.name for t in traces],
            interleave=self.interleave,
            per_core=per_core,
            cross_core_evictions=self.cross_core_evictions,
            prefetch_cross_core_evictions=list(self.prefetch_cross_core_evictions),
            shared_l2_accesses=aggregate.l2_hits + aggregate.l2_misses,
            shared_l2_hits=aggregate.l2_hits,
            shared_l2_misses=aggregate.l2_misses,
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
        build_predictor(name, predictor_config, engine=spec.engine)
        for name, predictor_config in zip(spec.core_predictors, spec.core_predictor_configs)
    ]
    simulator = MulticoreSimulator(
        prefetchers,
        hierarchy_config=spec.hierarchy_config,
        engine=spec.engine,
        interleave=spec.interleave,
        quantum_accesses=spec.quantum_accesses,
    )
    with obs_phase(PHASE_REPLAY, observer=observer):
        simulator.replay(traces)
    with obs_phase(PHASE_SETTLE, observer=observer):
        result = simulator.build_result(traces, benchmarks=spec.benchmarks)
    REGISTRY.counter("replay.accesses").inc(sum(len(trace) for trace in traces))
    return result
