"""Trace-driven (functional) simulation of a predictor over a benchmark trace.

The simulator replays a memory-reference trace against two cache
hierarchies simultaneously:

* a *shadow baseline* hierarchy with no predictor, which defines the
  prediction opportunity (the misses the base system would take), and
* the *main* hierarchy, into which the predictor under test prefetches.

Comparing per-access outcomes of the two hierarchies yields exactly the
categories of Figure 8: *correct* (baseline miss turned into a hit),
*train* (baseline miss not covered), *incorrect* (prefetches of wrong
replacement addresses, measured as prefetched blocks evicted unused), and
*early* (extra misses the predictor induced by evicting live blocks,
reported above 100% of opportunity).  The simulator also accumulates the
bus-traffic categories of Figure 12.

Tiers
-----
A replay runs through the compiled kernel of :mod:`repro.cache.vector`
when the run qualifies (every built-in predictor on a fresh simulator,
see :func:`repro.sim.vector_replay.replay_kernel`) and through this
module's interpreted loop otherwise.  The interpreted loop iterates the
trace's columnar view (:meth:`TraceStream.as_arrays`) with
locals-hoisted method references, drives the four caches through their
allocation-free ``access_fast`` entry points, and calls the predictor's
``on_access`` with one reused :class:`MemoryAccess`/:class:`AccessOutcome`
pair.  Both tiers drive the same predictor object.  The tier a replay
took is recorded as :attr:`TraceDrivenSimulator.last_tier` (and, for a
kernel-eligible run that fell back, the reason as ``last_fallback``).
Both produce bit-identical :meth:`SimulationResult.to_dict` output: the
equivalence suites assert it for every (benchmark × predictor) pair,
against each other and against the object-per-access reference oracle
kept in the test suite (``tests/oracle.py``), and ``repro.bench``
measures the speedup between them.  Every tier can also record a
per-access outcome column (:attr:`TraceDrivenSimulator.outcomes`),
through which the timing and pairwise multiprogram simulators consume
the replay.

Every tier is resumable: :meth:`TraceDrivenSimulator.replay_chunks` hands
one out as a ``(run_chunk(start, stop), settle())`` pair — an open
kernel state (:class:`~repro.sim.vector_replay.KernelLane`) or the
interpreted loop.  A whole-trace replay runs one
chunk; a :mod:`repro.multicore` co-run drives one lane per core, chunk
by chunk, over L2 caches shared between the cores.

Because the interpreted loop mutates the shared outcome object in place,
custom predictors must read the fields they need during ``on_access``
and must not retain the outcome (or its ``access``) across calls; every
in-tree predictor already obeys this.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, ServiceLevel
from repro.core.interface import AccessOutcome, Prefetcher
from repro.memory.bus import BusModel, TrafficCategory
from repro.memory.request_queue import PrefetchRequestQueue
from repro.obs.metrics import REGISTRY
from repro.obs.timers import PHASE_REPLAY, PHASE_SETTLE, PHASE_TRACE_ACQUIRE
from repro.obs.timers import phase as obs_phase
from repro.prefetchers.null import NullPrefetcher
from repro.sim.vector_replay import KernelLane, replay_kernel, replay_event_fields
from repro.trace.record import AccessType, MemoryAccess
from repro.trace.store import load_or_generate_trace
from repro.trace.stream import TraceStream
from repro.workloads.base import WorkloadConfig

#: ServiceLevel by the int code ``prefetch_into_l1_fast`` returns, which is
#: also the level code in bits 0-1 of an outcome byte.
LEVEL_BY_CODE = (ServiceLevel.L1, ServiceLevel.L2, ServiceLevel.MEMORY)

#: Outcome byte (``TraceDrivenSimulator(outcomes=...)``): bits 0-1 hold the
#: main hierarchy's level code, bit 2 (OUTCOME_BASE_MISS) a baseline L1 miss,
#: and bits 3-6 the memory-sourced prefetch fills that followed the access.
OUTCOME_LEVEL_MASK = 3
OUTCOME_BASE_MISS = 4
OUTCOME_FILL_SHIFT = 3
#: A fill count this large is stored as this value; the exact count is
#: appended to the simulator's ``fill_spill`` list (only a GHB or stride
#: predictor of this degree or more can spill).
OUTCOME_FILL_SPILL = 15

#: A replay loop: a generator sent chunk sizes, then ``None`` to settle.
ReplayLoop = Generator[None, Optional[int], None]
#: A resumable replay: ``(run_chunk(start, stop), settle())``.
ChunkedReplay = Tuple[Callable[[int, int], None], Callable[[], None]]

#: Total references replayed by this process (all tiers, all sim kinds).
_ACCESSES_REPLAYED = REGISTRY.counter("replay.accesses")
#: Replays (whole traces and co-run lanes) on the interpreted tier.
_INTERPRETED_REPLAYS = REGISTRY.counter("replay.tier.interpreted")


@dataclass
class CoverageBreakdown:
    """Prediction-opportunity breakdown (Figure 8 categories).

    The raw counters are what the simulator accumulates; the derived
    categories are single-sourced through :attr:`capped_incorrect` so
    that *correct + incorrect + train* always partitions the opportunity
    exactly (``coverage_pct + incorrect_pct + train_pct == 100`` whenever
    there is any opportunity).
    """

    base_misses: int = 0
    correct: int = 0
    early: int = 0
    incorrect_prefetches: int = 0

    @property
    def capped_incorrect(self) -> int:
        """Incorrect prefetches capped to the unconverted opportunity.

        A benchmark can suffer more unused prefetches than it has
        uncovered baseline misses; for the Figure 8 partition the excess
        is folded into *early* behaviour rather than pushing the three
        in-opportunity categories above 100%.  This single clamp is the
        source of truth for both :attr:`train` and :attr:`incorrect_pct`.
        """
        return min(self.incorrect_prefetches, max(0, self.base_misses - self.correct))

    @property
    def train(self) -> int:
        """Baseline misses neither eliminated nor attributable to a misprediction."""
        return max(0, self.base_misses - self.correct - self.capped_incorrect)

    def _pct(self, value: int) -> float:
        return 100.0 * value / self.base_misses if self.base_misses else 0.0

    @property
    def coverage_pct(self) -> float:
        """Eliminated misses as a percentage of prediction opportunity."""
        return self._pct(self.correct)

    @property
    def incorrect_pct(self) -> float:
        """Mispredicted replacement addresses as a percentage of opportunity."""
        return self._pct(self.capped_incorrect)

    @property
    def train_pct(self) -> float:
        """Unpredicted misses as a percentage of opportunity."""
        return self._pct(self.train)

    @property
    def early_pct(self) -> float:
        """Predictor-induced premature-eviction misses, above 100% of opportunity."""
        return self._pct(self.early)

    @property
    def coverage(self) -> float:
        """Coverage as a fraction in [0, 1]."""
        return self.correct / self.base_misses if self.base_misses else 0.0

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe encoding of the raw counters."""
        return {
            "base_misses": self.base_misses,
            "correct": self.correct,
            "early": self.early,
            "incorrect_prefetches": self.incorrect_prefetches,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CoverageBreakdown":
        """Reconstruct a breakdown from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class SimulationResult:
    """Everything measured in one trace-driven run."""

    benchmark: str
    predictor: str
    num_accesses: int
    instruction_count: int
    breakdown: CoverageBreakdown
    baseline_l1_misses: int
    baseline_l2_misses: int
    predictor_l1_misses: int
    predictor_l2_misses: int
    prefetches_issued: int
    prefetches_used: int
    bus_bytes: Dict[TrafficCategory, int] = field(default_factory=dict)
    on_chip_storage_bytes: Optional[int] = None

    @property
    def coverage(self) -> float:
        """Fraction of baseline L1D misses eliminated."""
        return self.breakdown.coverage

    @property
    def baseline_l1_miss_rate(self) -> float:
        """Baseline L1D misses per access."""
        return self.baseline_l1_misses / self.num_accesses if self.num_accesses else 0.0

    @property
    def baseline_l2_miss_rate(self) -> float:
        """Baseline L2 local miss rate."""
        return self.baseline_l2_misses / self.baseline_l1_misses if self.baseline_l1_misses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Used prefetches per issued prefetch."""
        return self.prefetches_used / self.prefetches_issued if self.prefetches_issued else 0.0

    def bytes_per_instruction(self) -> Dict[TrafficCategory, float]:
        """Per-category bus bytes per committed instruction (Figure 12)."""
        if not self.instruction_count:
            return {c: 0.0 for c in TrafficCategory}
        return {c: self.bus_bytes.get(c, 0) / self.instruction_count for c in TrafficCategory}

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe encoding (enables workers and the result cache)."""
        return {
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "num_accesses": self.num_accesses,
            "instruction_count": self.instruction_count,
            "breakdown": self.breakdown.to_dict(),
            "baseline_l1_misses": self.baseline_l1_misses,
            "baseline_l2_misses": self.baseline_l2_misses,
            "predictor_l1_misses": self.predictor_l1_misses,
            "predictor_l2_misses": self.predictor_l2_misses,
            "prefetches_issued": self.prefetches_issued,
            "prefetches_used": self.prefetches_used,
            "bus_bytes": {category.value: count for category, count in self.bus_bytes.items()},
            "on_chip_storage_bytes": self.on_chip_storage_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Reconstruct a result from :meth:`to_dict` output."""
        payload = dict(data)
        payload["breakdown"] = CoverageBreakdown.from_dict(payload["breakdown"])
        payload["bus_bytes"] = {
            TrafficCategory(name): count for name, count in payload.get("bus_bytes", {}).items()
        }
        return cls(**payload)


class TraceDrivenSimulator:
    """Replays a trace against a predictor-augmented cache hierarchy."""

    # perfbench/tracing.py reads this until its next benchmark change.
    engine = "fast"

    def __init__(
        self,
        prefetcher: Optional[Prefetcher] = None,
        hierarchy_config: Optional[HierarchyConfig] = None,
        request_queue_size: int = 128,
        outcomes: Optional[array] = None,
    ) -> None:
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.hierarchy_config = hierarchy_config or HierarchyConfig()
        self.hierarchy = CacheHierarchy(self.hierarchy_config)
        self.baseline = CacheHierarchy(self.hierarchy_config)
        self.request_queue = PrefetchRequestQueue(request_queue_size)
        self.bus = BusModel()
        self.breakdown = CoverageBreakdown()
        self._block_mask = ~(self.hierarchy.block_size - 1)
        # Prefetched blocks currently resident (or outstanding): block address
        # -> (command tag, service level the data came from).
        self._prefetched: Dict[int, Tuple[object, ServiceLevel]] = {}
        #: Replay tier of the last :meth:`replay`: a ``"kernel-*"`` tier or
        #: ``"interpreted"`` (see repro.sim.vector_replay).
        self.last_tier: Optional[str] = None
        #: Why the last replay of a kernel-eligible predictor ran interpreted.
        self.last_fallback: Optional[str] = None
        # A kernel run leaves the Python-side cache and predictor contents
        # unbuilt, so no further replay may continue from them.
        self._kernel_ran = False
        #: An ``array('b')`` receiving one outcome byte (see OUTCOME_BASE_MISS)
        #: per replayed access from every tier; the timing model
        #: and the pairwise multiprogram runs consume it.
        self.outcomes = outcomes
        #: Exact fill counts of outcome bytes that saturated at OUTCOME_FILL_SPILL.
        self.fill_spill: List[int] = []

    # ------------------------------------------------------------------ helpers
    def _notify_unused_eviction(self, evicted_address: Optional[int]) -> None:
        if evicted_address is None:
            return
        info = self._prefetched.pop(evicted_address, None)
        if info is None:
            return
        tag, source = info
        self.breakdown.incorrect_prefetches += 1
        if source is ServiceLevel.MEMORY:
            # An unused prefetch that crossed the memory bus is pure waste.
            self.bus.record(TrafficCategory.INCORRECT_PREDICTION, self.hierarchy.block_size)
        self.prefetcher.on_prefetch_evicted_unused(evicted_address, tag)

    def _execute_prefetch_one(self, address: int, victim_address: Optional[int], tag: object) -> None:
        """Execute a single prefetch request against the hierarchy."""
        hierarchy = self.hierarchy
        source = hierarchy.prefetch_into_l1_fast(address, victim_address)
        if not source:
            return  # already resident: nothing installed
        l1_last = hierarchy.l1.last
        block = address & self._block_mask
        # Inserting may itself evict an unused prefetched block.
        if l1_last.evicted_unused_prefetch:
            self._notify_unused_eviction(l1_last.evicted_address)
        # Track the inserted block for later used/unused classification.
        self._prefetched[block] = (tag, LEVEL_BY_CODE[source])
        self.prefetcher.on_prefetch_installed(block, l1_last.evicted_address, tag=tag)

    def _outcome_writer(self) -> Optional[Callable[[int], None]]:
        """The interpreted loop's outcome writer (``None`` without a column).

        Called once per access, after the access's prefetches executed,
        with the level code and baseline-miss bit; adds the memory fills
        since the previous call from the hierarchy's prefetch counters.
        """
        if self.outcomes is None:
            return None
        append = self.outcomes.append
        spill = self.fill_spill.append
        stats = self.hierarchy.stats
        filled = stats.prefetches_from_memory

        def write(outcome: int) -> None:
            nonlocal filled
            fills = stats.prefetches_from_memory - filled
            filled += fills
            if fills >= OUTCOME_FILL_SPILL:
                spill(fills)
                fills = OUTCOME_FILL_SPILL
            append(outcome | fills << OUTCOME_FILL_SHIFT)

        return write

    def _execute_prefetches(self) -> None:
        execute_one = self._execute_prefetch_one
        for request in self.request_queue.pop_all():
            execute_one(request.address, request.victim_address, request.tag)

    # ------------------------------------------------------------------ main loop
    def run(self, trace: TraceStream) -> SimulationResult:
        """Replay ``trace`` and return the measured result."""
        self.replay(trace)
        return self.build_result(trace)

    def replay(self, trace: TraceStream) -> None:
        """The replay only: replay ``trace``, accumulating counters.

        Split from :meth:`build_result` so instrumented callers (the
        ``repro.obs`` phase timers in :func:`simulate_benchmark`) can
        time the replay and settle phases separately; :meth:`run` is the
        unchanged one-call form.  With an :attr:`outcomes` column it also
        appends one outcome byte per access.
        """
        if not replay_kernel(self, trace):
            run_chunk, settle = self.replay_chunks(trace)
            run_chunk(0, len(trace))
            settle()
        _ACCESSES_REPLAYED.inc(len(trace))

    def replay_chunks(
        self, trace: TraceStream, kernel: Optional[KernelLane] = None
    ) -> ChunkedReplay:
        """Resumable replay of ``trace``: ``(run_chunk(start, stop), settle())``.

        ``run_chunk`` replays accesses ``start:stop`` (chunks must follow
        each other in order) and ``settle`` folds the loop's counters into
        the simulator's statistics once the trace is done.  The lane runs
        on ``kernel`` — this simulator's open kernel state over ``trace``,
        one native call per chunk — when given, else on the interpreted
        tier.  :meth:`replay` takes the interpreted pair
        over the whole trace when the kernel does not apply, and a
        multicore co-run interleaves one lane per core over a shared L2.
        """
        if kernel is not None:
            return kernel.run_chunk, kernel.settle
        columns = trace.as_arrays()
        columns.check_addresses()  # a negative address would alias the empty-way tag
        self.last_tier = "interpreted"
        _INTERPRETED_REPLAYS.inc()
        rows = zip(columns.pc, columns.address, columns.is_write, columns.icount)
        return _resumable(self._fast_loop(rows), len(columns))

    def _settle_hierarchy_stats(
        self,
        hierarchy: CacheHierarchy,
        accesses: int,
        l1_hits: int,
        l2_hits: int,
        l2_misses: int,
    ) -> None:
        """Fold loop-local demand counters into a hierarchy's stats."""
        stats = hierarchy.stats
        stats.accesses += accesses
        stats.l1_hits += l1_hits
        stats.l1_misses += accesses - l1_hits
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses

    def _settle_fast_run(
        self,
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
        """Shared epilogue of the fast loops: hierarchy stats, breakdown, bus."""
        self._settle_hierarchy_stats(
            self.baseline, num_accesses, num_accesses - base_misses, base_l2_hits, base_l2_misses
        )
        self._settle_hierarchy_stats(
            self.hierarchy, num_accesses, main_l1_hits, main_l2_hits, main_l2_misses
        )
        breakdown = self.breakdown
        breakdown.base_misses += base_misses
        breakdown.correct += correct
        breakdown.early += early
        if base_l2_misses:
            self.bus.record(
                TrafficCategory.BASE_DATA,
                base_l2_misses * self.hierarchy.block_size,
                requests=base_l2_misses,
            )

    def _fast_loop(self, rows: Iterator[Tuple[int, int, int, int]]) -> ReplayLoop:
        """The interpreted tier: one columnar loop for every predictor.

        A generator driven by :func:`_resumable` over the trace's
        ``(pc, address, is_write, icount)`` rows: each count sent in
        replays that many further rows, and ``None`` ends the replay and
        settles the counters.  The hierarchy walk is flattened into this
        loop — the four caches
        are driven through ``access_fast`` directly and the per-hierarchy
        demand counters are settled in bulk afterwards — so the cache walk
        allocates nothing.  The predictor gets ``on_access`` with one
        reused :class:`MemoryAccess`/:class:`AccessOutcome` view; its
        returned commands are consumed before the next call.  The main
        hierarchy's demand allocations into a shared L2 are reported to
        it here.
        """
        baseline = self.baseline
        hierarchy = self.hierarchy
        base_l1_access = baseline.l1.access_fast
        base_l2_access = baseline.l2.access_fast
        main_l1_access = hierarchy.l1.access_fast
        main_l2_access = hierarchy.l2.access_fast
        main_l1_last = hierarchy.l1.last
        main_l2_last = hierarchy.l2.last
        block_mask = self._block_mask
        l1_config = self.hierarchy_config.l1
        set_shift = l1_config.offset_bits
        set_mask = l1_config.num_sets - 1
        # A co-run's shared L2 (None when private) and this lane's core.
        shared_l2 = hierarchy.shared_l2
        core = hierarchy.core

        prefetcher = self.prefetcher
        on_access = prefetcher.on_access
        on_prefetch_used = prefetcher.on_prefetch_used
        on_prefetch_installed = prefetcher.on_prefetch_installed
        notify_unused = self._notify_unused_eviction
        prefetched = self._prefetched
        prefetched_pop = prefetched.pop
        prefetch_into_l1 = hierarchy.prefetch_into_l1_fast
        level_by_code = LEVEL_BY_CODE
        request_queue = self.request_queue
        queue_push = request_queue.push
        queue_pending = request_queue._queue
        queue_note_immediate = request_queue.note_immediate_issue
        execute_prefetches = self._execute_prefetches
        write_outcome = self._outcome_writer()

        # One reusable access record + outcome for on_access, mutated in place.
        store = AccessType.STORE
        load = AccessType.LOAD
        access_view = MemoryAccess.__new__(MemoryAccess)
        access_view.pc = 0
        access_view.address = 0
        access_view.access_type = load
        access_view.icount = 0
        outcome = AccessOutcome(access=access_view, block_address=0, set_index=0, l1_hit=True)

        num_accesses = 0
        base_misses = 0
        correct = 0
        early = 0
        base_l2_hits = 0
        base_l2_misses = 0
        main_l1_hits = 0
        main_l2_hits = 0
        main_l2_misses = 0

        count = yield
        while count is not None:
            num_accesses += count
            for pc, address, is_write, icount in islice(rows, count):
                code = main_l1_access(address, is_write)
                if code:
                    main_l1_hits += 1
                    level = 0
                elif main_l2_access(address, 0):
                    main_l2_hits += 1
                    level = 1
                else:
                    main_l2_misses += 1
                    level = 2
                    if shared_l2 is not None:
                        shared_l2.allocated(core, address, main_l2_last.evicted_address)

                # Classify against the prediction opportunity.
                if base_l1_access(address, is_write):
                    if not code:
                        early += 1
                else:
                    base_misses += 1
                    level |= OUTCOME_BASE_MISS
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
                    if code == 2:
                        info = prefetched_pop(block_address, None)
                        if info is not None:
                            on_prefetch_used(block_address, info[0])
                else:
                    evicted_address = main_l1_last.evicted_address
                    evicted_unused = main_l1_last.evicted_unused_prefetch
                    if evicted_unused:
                        notify_unused(evicted_address)

                access_view.pc = pc
                access_view.address = address
                access_view.access_type = store if is_write else load
                access_view.icount = icount
                outcome.block_address = block_address
                outcome.set_index = (address >> set_shift) & set_mask
                outcome.l1_hit = code != 0
                outcome.l2_hit = level & OUTCOME_LEVEL_MASK == 1
                outcome.prefetch_hit = code == 2
                outcome.evicted_address = evicted_address
                outcome.evicted_was_unused_prefetch = evicted_unused
                commands = on_access(outcome)
                if commands:
                    if len(commands) == 1 and not queue_pending:
                        # Common case: one command into an empty queue, drained
                        # immediately — skip the queue round-trip entirely and
                        # execute inline (the body of _execute_prefetch_one
                        # with every lookup hoisted).
                        command = commands[0]
                        queue_note_immediate()
                        prefetch_address = command.address
                        source = prefetch_into_l1(prefetch_address, command.victim_address)
                        if source:
                            prefetch_evicted = main_l1_last.evicted_address
                            prefetch_block = prefetch_address & block_mask
                            if main_l1_last.evicted_unused_prefetch:
                                notify_unused(prefetch_evicted)
                            tag = command.tag
                            prefetched[prefetch_block] = (tag, level_by_code[source])
                            on_prefetch_installed(prefetch_block, prefetch_evicted, tag=tag)
                    else:
                        for command in commands:
                            queue_push(command.address, command.victim_address, tag=command.tag)
                        execute_prefetches()
                elif queue_pending:
                    execute_prefetches()
                if write_outcome is not None:
                    write_outcome(level)
            count = yield

        self._settle_fast_run(
            num_accesses, base_misses, correct, early,
            base_l2_hits, base_l2_misses, main_l1_hits, main_l2_hits, main_l2_misses,
        )

    def build_result(self, trace: TraceStream) -> SimulationResult:
        """Fold the accumulated counters into a :class:`SimulationResult`."""
        # Account the predictor's own off-chip metadata traffic.
        creation = getattr(self.prefetcher, "sequence_creation_bytes", lambda: 0)()
        fetch = getattr(self.prefetcher, "sequence_fetch_bytes", lambda: 0)()
        if creation:
            self.bus.record(TrafficCategory.SEQUENCE_CREATION, creation, requests=0)
        if fetch:
            self.bus.record(TrafficCategory.SEQUENCE_FETCH, fetch, requests=0)

        on_chip = getattr(self.prefetcher, "on_chip_storage_bytes", lambda: None)()
        return SimulationResult(
            benchmark=trace.name,
            predictor=self.prefetcher.name,
            num_accesses=len(trace),
            instruction_count=trace.instruction_count,
            breakdown=self.breakdown,
            baseline_l1_misses=self.baseline.stats.l1_misses,
            baseline_l2_misses=self.baseline.stats.l2_misses,
            predictor_l1_misses=self.hierarchy.stats.l1_misses,
            predictor_l2_misses=self.hierarchy.stats.l2_misses,
            prefetches_issued=self.prefetcher.stats.predictions_issued,
            prefetches_used=self.prefetcher.stats.prefetches_used,
            bus_bytes=dict(self.bus.bytes_by_category),
            on_chip_storage_bytes=on_chip,
        )


def _resumable(loop: ReplayLoop, length: int) -> ChunkedReplay:
    """A replay-loop generator over ``length`` accesses as ``(run_chunk, settle)``.

    ``run_chunk(start, stop)`` sends ``loop`` (:meth:`TraceDrivenSimulator._fast_loop`)
    the count of its next chunk; ``settle()`` sends
    ``None``, which ends the loop.
    """
    next(loop)
    send = loop.send
    position = 0

    def run_chunk(start: int, stop: int) -> None:
        nonlocal position
        if start != position or not start <= stop <= length:
            raise ValueError(
                f"chunk {start}:{stop} does not continue the replay at {position} of {length}"
            )
        position = stop
        send(stop - start)

    def settle() -> None:
        try:
            send(None)
        except StopIteration:
            return
        raise RuntimeError("replay loop did not stop on settle")

    return run_chunk, settle


def simulate_benchmark(
    benchmark: str,
    prefetcher: Optional[Prefetcher] = None,
    num_accesses: int = 200_000,
    seed: int = 42,
    hierarchy_config: Optional[HierarchyConfig] = None,
    trace_store=None,
    observer=None,
) -> SimulationResult:
    """Convenience wrapper: obtain the workload trace, replay it, return the result.

    The trace comes from the content-addressed on-disk store
    (:mod:`repro.trace.store`): generated and persisted on first use,
    ``mmap``-loaded afterwards.  ``trace_store`` overrides the default
    store (resolved from ``REPRO_TRACE_DIR`` / ``REPRO_NO_TRACE_STORE``).

    The run is split into the three standard ``repro.obs`` phases
    (``trace_acquire`` / ``replay`` / ``settle``), recorded into the
    process-local metrics registry and — when an ``observer`` is given —
    emitted as ``phase`` events.
    """
    with obs_phase(PHASE_TRACE_ACQUIRE, observer=observer):
        trace = load_or_generate_trace(
            benchmark, WorkloadConfig(num_accesses=num_accesses, seed=seed), store=trace_store
        )
    simulator = TraceDrivenSimulator(prefetcher=prefetcher, hierarchy_config=hierarchy_config)
    with obs_phase(PHASE_REPLAY, observer=observer) as event:
        simulator.replay(trace)
        event.update(replay_event_fields([simulator]))
    with obs_phase(PHASE_SETTLE, observer=observer):
        return simulator.build_result(trace)
