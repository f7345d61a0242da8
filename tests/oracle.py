"""The legacy reference stack: the test suite's independent replay oracle.

Every replay in :mod:`repro` runs on the compiled kernel or, without
one, on the interpreted tier (:meth:`TraceDrivenSimulator._fast_loop`
over the array-backed :class:`~repro.cache.cache.SetAssociativeCache`).
The differential suites compare both against this module: the original
object-per-block cache model (:class:`LegacySetAssociativeCache` with
its :class:`LRUReplacement`), the object-returning hierarchy walk
(:class:`LegacyHierarchy`) and the object-per-access replay loop
(:class:`LegacySimulator`).  It shares no cache model or replay loop
with the two tiers it checks; it reuses the predictors, the request
queue, the :class:`~repro.cache.hierarchy.SharedL2` ownership map and
the simulator's prefetch feedback bookkeeping, outcome-column writer and
result folding.

The oracle is built from the package's own classes by subclassing and
by swapping parts after construction, so the package carries no hook
for it:

* :class:`LegacySimulator` — a :class:`TraceDrivenSimulator` over legacy
  hierarchies whose :meth:`replay` / :meth:`replay_chunks` run the
  object-per-access loop (tier ``"legacy"``);
* :class:`LegacyMulticoreSimulator` — a co-run whose lanes are
  :class:`LegacySimulator` over legacy shared L2s;
* :class:`LegacyTimingSimulator` — a timing run replaying on a
  :class:`LegacySimulator` and settling on the Python timing walk;
* :func:`legacy_engine` — routes the spec-level entry points
  (``execute_spec`` for every sim kind) through the three classes above.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional
from unittest import mock

from conftest import kernel_disabled

from repro.cache.cache import AccessResult, CacheStats
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy, ServiceLevel, SharedL2
from repro.cache.replacement import ReplacementPolicy
from repro.core.interface import AccessOutcome
from repro.memory.bus import TrafficCategory
from repro.multicore import engine as multicore_engine
from repro.multicore.engine import MulticoreSimulator, schedule_chunks
from repro.sim import multiprogram, timing, trace_driven
from repro.sim.timing import TimingSimulator
from repro.sim.trace_driven import (
    LEVEL_BY_CODE,
    OUTCOME_BASE_MISS,
    ReplayLoop,
    TraceDrivenSimulator,
    _resumable,
)
from repro.trace.record import MemoryAccess


# ---------------------------------------------------------------------------
# Cache model
# ---------------------------------------------------------------------------


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used replacement (the legacy cache's victim choice)."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        # Per-set list of ways from most- to least-recently used.
        self._order: Dict[int, List[int]] = {}

    def _set_order(self, set_index: int) -> List[int]:
        return self._order.setdefault(set_index, [])

    def on_access(self, set_index: int, way: int) -> None:
        order = self._set_order(set_index)
        if way in order:
            order.remove(way)
        order.insert(0, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self.on_access(set_index, way)

    def victim_way(self, set_index: int, occupied_ways: List[int]) -> int:
        order = self._set_order(set_index)
        # Least-recently-used occupied way; ways never recorded are oldest.
        unseen = [w for w in occupied_ways if w not in order]
        if unseen:
            return unseen[0]
        for way in reversed(order):
            if way in occupied_ways:
                return way
        return occupied_ways[0]


@dataclass
class CacheBlock:
    """State of one cache block (one way of one set)."""

    tag: int
    block_address: int
    dirty: bool = False
    prefetched: bool = False
    referenced: bool = True


class LegacySetAssociativeCache:
    """Object-per-block write-back, write-allocate, LRU set-associative cache.

    The pre-fast-path model of :class:`~repro.cache.cache.SetAssociativeCache`:
    a dict of :class:`CacheBlock` per set and an :class:`LRUReplacement`
    choosing victims.  Prefetch-caused evictions are counted in
    ``CacheStats.prefetch_caused_evictions``, and
    ``AccessResult.evicted_by_prefetch`` is reported only when an
    insertion actually displaced a block.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[Dict[int, CacheBlock]] = [dict() for _ in range(config.num_sets)]
        self._ways: List[Dict[int, int]] = [dict() for _ in range(config.num_sets)]  # tag -> way
        self._policy = LRUReplacement(config.num_sets, config.associativity)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ helpers
    def contains(self, address: int) -> bool:
        """Return ``True`` if the block holding ``address`` is resident."""
        return self.config.tag(address) in self._sets[self.config.set_index(address)]

    def resident_blocks(self) -> List[int]:
        """Block addresses of all resident blocks."""
        return [block.block_address for blocks in self._sets for block in blocks.values()]

    def _free_way(self, set_index: int) -> Optional[int]:
        used = set(self._ways[set_index].values())
        for way in range(self.config.associativity):
            if way not in used:
                return way
        return None

    def _evict(self, set_index: int, by_prefetch: bool) -> CacheBlock:
        occupied = sorted(self._ways[set_index].values())
        victim_way = self._policy.victim_way(set_index, occupied)
        victim_tag = next(tag for tag, way in self._ways[set_index].items() if way == victim_way)
        return self._remove(set_index, victim_tag, by_prefetch=by_prefetch)

    def _remove(self, set_index: int, tag: int, by_prefetch: bool = False) -> CacheBlock:
        block = self._sets[set_index].pop(tag)
        del self._ways[set_index][tag]
        self.stats.evictions += 1
        if by_prefetch:
            self.stats.prefetch_caused_evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.prefetched and not block.referenced:
            self.stats.prefetch_unused_evictions += 1
        return block

    def _install(self, set_index: int, tag: int, block: CacheBlock) -> None:
        way = self._free_way(set_index)
        if way is None:
            raise RuntimeError("attempted to install into a full set without eviction")
        self._sets[set_index][tag] = block
        self._ways[set_index][tag] = way
        self._policy.on_fill(set_index, way)

    # ------------------------------------------------------------------ accesses
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Demand access: allocate on a miss, evicting the LRU way of a full set."""
        self.stats.accesses += 1
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        block_address = self.config.block_address(address)
        block = self._sets[set_index].get(tag)

        if block is not None:
            self.stats.hits += 1
            prefetch_hit = block.prefetched and not block.referenced
            if prefetch_hit:
                self.stats.prefetch_hits += 1
            block.referenced = True
            if is_write:
                block.dirty = True
            self._policy.on_access(set_index, self._ways[set_index][tag])
            return AccessResult(
                hit=True,
                block_address=block_address,
                set_index=set_index,
                prefetch_hit=prefetch_hit,
            )

        self.stats.misses += 1
        evicted_address: Optional[int] = None
        evicted_dirty = False
        evicted_unused_prefetch = False
        if self._free_way(set_index) is None:
            victim = self._evict(set_index, by_prefetch=False)
            evicted_address = victim.block_address
            evicted_dirty = victim.dirty
            evicted_unused_prefetch = victim.prefetched and not victim.referenced
        self._install(set_index, tag, CacheBlock(tag, block_address, dirty=is_write))
        return AccessResult(
            hit=False,
            block_address=block_address,
            set_index=set_index,
            evicted_address=evicted_address,
            evicted_dirty=evicted_dirty,
            evicted_was_prefetched_unused=evicted_unused_prefetch,
        )

    def insert_prefetch(self, address: int, victim_address: Optional[int] = None) -> AccessResult:
        """Insert a prefetched block (a no-op when it is already resident).

        A resident ``victim_address`` in the same set is displaced first
        (the predicted-dead block); otherwise the LRU way of a full set.
        """
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        block_address = self.config.block_address(address)
        if tag in self._sets[set_index]:
            return AccessResult(hit=True, block_address=block_address, set_index=set_index)

        self.stats.prefetch_insertions += 1
        evicted_address: Optional[int] = None
        evicted_dirty = False
        evicted_unused_prefetch = False
        evicted = False
        if self._free_way(set_index) is None:
            victim_block: Optional[CacheBlock] = None
            if victim_address is not None:
                victim_tag = self.config.tag(victim_address)
                victim_set = self.config.set_index(victim_address)
                if victim_set == set_index and victim_tag in self._sets[set_index]:
                    victim_block = self._remove(set_index, victim_tag, by_prefetch=True)
            if victim_block is None:
                victim_block = self._evict(set_index, by_prefetch=True)
            evicted = True
            evicted_address = victim_block.block_address
            evicted_dirty = victim_block.dirty
            evicted_unused_prefetch = victim_block.prefetched and not victim_block.referenced
        self._install(
            set_index, tag,
            CacheBlock(tag, block_address, prefetched=True, referenced=False),
        )
        return AccessResult(
            hit=False,
            block_address=block_address,
            set_index=set_index,
            evicted_address=evicted_address,
            evicted_dirty=evicted_dirty,
            evicted_was_prefetched_unused=evicted_unused_prefetch,
            evicted_by_prefetch=evicted,
        )


# ---------------------------------------------------------------------------
# Hierarchy walk
# ---------------------------------------------------------------------------


@dataclass
class HierarchyAccessResult:
    """Outcome of one demand access walking the hierarchy."""

    level: ServiceLevel
    l1_result: AccessResult
    l2_result: Optional[AccessResult] = None
    prefetch_hit: bool = False

    @property
    def l1_hit(self) -> bool:
        return self.l1_result.hit

    @property
    def l1_miss(self) -> bool:
        return not self.l1_result.hit

    @property
    def l2_miss(self) -> bool:
        """``True`` when the access also missed in the L2 (went off chip)."""
        return self.level is ServiceLevel.MEMORY


@dataclass
class PrefetchOutcome:
    """Outcome of a prefetch insertion into the L1D (``L1``: already resident)."""

    source: ServiceLevel
    l1_result: Optional[AccessResult] = None

    @property
    def installed(self) -> bool:
        return self.l1_result is not None

    @property
    def evicted_address(self) -> Optional[int]:
        return self.l1_result.evicted_address if self.l1_result else None

    @property
    def evicted_was_unused_prefetch(self) -> bool:
        return bool(self.l1_result and self.l1_result.evicted_was_prefetched_unused)


class LegacyHierarchy(CacheHierarchy):
    """A :class:`CacheHierarchy` walked one result object per access.

    Its L1D (and its L2 unless ``shared_l2`` supplies one) are ``cache``
    instances: the legacy model by default, or the array-backed
    :class:`~repro.cache.cache.SetAssociativeCache` through its
    object-returning wrappers.
    """

    def __init__(self, config=None, shared_l2=None, core=0, cache=LegacySetAssociativeCache):
        super().__init__(config, shared_l2=shared_l2, core=core)
        self.l1 = cache(self.config.l1)
        if shared_l2 is None:
            self.l2 = cache(self.config.l2)

    def access(self, address: int, is_write: bool = False) -> HierarchyAccessResult:
        """Perform a demand access, walking L1D, then L2, then memory."""
        self.stats.accesses += 1
        l1_result = self.l1.access(address, is_write=is_write)
        if l1_result.hit:
            self.stats.l1_hits += 1
            return HierarchyAccessResult(
                level=ServiceLevel.L1, l1_result=l1_result, prefetch_hit=l1_result.prefetch_hit
            )
        self.stats.l1_misses += 1
        l2_result = self.l2.access(address, is_write=False)
        if l2_result.hit:
            self.stats.l2_hits += 1
            level = ServiceLevel.L2
        else:
            self.stats.l2_misses += 1
            level = ServiceLevel.MEMORY
        return HierarchyAccessResult(level=level, l1_result=l1_result, l2_result=l2_result)

    def prefetch_into_l1(self, address: int, victim_address: Optional[int] = None) -> PrefetchOutcome:
        """Bring ``address``'s block into the L1D as a prefetch."""
        self.stats.prefetches_issued += 1
        if self.l1.contains(address):
            return PrefetchOutcome(source=ServiceLevel.L1)
        if self.l2.contains(address):
            source = ServiceLevel.L2
            self.stats.prefetches_from_l2 += 1
            self.l2.access(address, is_write=False)  # refresh L2 LRU state
        else:
            source = ServiceLevel.MEMORY
            self.stats.prefetches_from_memory += 1
            l2_result = self.l2.access(address, is_write=False)  # allocate on the way in
            if self.shared_l2 is not None:
                self.shared_l2.allocated(
                    self.core, address, l2_result.evicted_address, by_prefetch=True
                )
        insert_result = self.l1.insert_prefetch(address, victim_address=victim_address)
        return PrefetchOutcome(source=source, l1_result=insert_result)


def legacy_shared_l2(config: CacheConfig, num_cores: int) -> SharedL2:
    """A :class:`SharedL2` over a legacy cache."""
    shared = SharedL2(config, num_cores)
    shared.cache = LegacySetAssociativeCache(config)
    return shared


# ---------------------------------------------------------------------------
# Replay loop
# ---------------------------------------------------------------------------


class LegacySimulator(TraceDrivenSimulator):
    """A trace-driven simulator replaying the object-per-access loop (tier ``"legacy"``).

    It never takes the compiled kernel, statistics accumulate per
    access, and prefetches walk the hierarchy through
    :meth:`LegacyHierarchy.prefetch_into_l1`.
    """

    def __init__(self, prefetcher=None, hierarchy_config=None, request_queue_size=128,
                 outcomes=None) -> None:
        super().__init__(prefetcher, hierarchy_config, request_queue_size, outcomes=outcomes)
        self.hierarchy = LegacyHierarchy(self.hierarchy_config)
        self.baseline = LegacyHierarchy(self.hierarchy_config)

    def replay(self, trace) -> None:
        run_chunk, settle = self.replay_chunks(trace)
        run_chunk(0, len(trace))
        settle()

    def replay_chunks(self, trace, kernel=None):
        self.last_tier = "legacy"
        return _resumable(self._legacy_loop(iter(trace)), len(trace))

    def _execute_prefetches(self) -> None:
        for request in self.request_queue.pop_all():
            outcome = self.hierarchy.prefetch_into_l1(request.address, request.victim_address)
            if not outcome.installed:
                continue
            block = self.hierarchy_config.l1.block_address(request.address)
            # Inserting may itself evict an unused prefetched block.
            if outcome.evicted_was_unused_prefetch:
                self._notify_unused_eviction(outcome.evicted_address)
            self._prefetched[block] = (request.tag, outcome.source)
            self.prefetcher.on_prefetch_installed(block, outcome.evicted_address, tag=request.tag)

    def _legacy_loop(self, accesses: Iterator[MemoryAccess]) -> ReplayLoop:
        """The object-per-access loop, driven like ``_fast_loop``; nothing to settle."""
        block_size = self.hierarchy.block_size
        l1_config = self.hierarchy_config.l1
        shared_l2 = self.hierarchy.shared_l2
        write_outcome = self._outcome_writer()

        count = yield
        while count is not None:
            for access in islice(accesses, count):
                base_result = self.baseline.access(access.address, access.is_write)
                main_result = self.hierarchy.access(access.address, access.is_write)
                block_address = l1_config.block_address(access.address)

                # Classify against the prediction opportunity.
                if base_result.l1_miss:
                    self.breakdown.base_misses += 1
                    if main_result.l1_hit:
                        self.breakdown.correct += 1
                    if base_result.l2_miss:
                        self.bus.record(TrafficCategory.BASE_DATA, block_size)
                elif main_result.l1_miss:
                    self.breakdown.early += 1

                if shared_l2 is not None and main_result.l2_miss:
                    shared_l2.allocated(
                        self.hierarchy.core, access.address, main_result.l2_result.evicted_address
                    )

                # Feedback for prefetched blocks.
                if main_result.l1_hit and main_result.prefetch_hit:
                    info = self._prefetched.pop(block_address, None)
                    if info is not None:
                        self.prefetcher.on_prefetch_used(block_address, info[0])
                if main_result.l1_miss and main_result.l1_result.evicted_was_prefetched_unused:
                    self._notify_unused_eviction(main_result.l1_result.evicted_address)

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
                for command in self.prefetcher.on_access(outcome):
                    self.request_queue.push(
                        command.address, command.victim_address, tag=command.tag
                    )
                self._execute_prefetches()
                if write_outcome is not None:
                    write_outcome(
                        LEVEL_BY_CODE.index(main_result.level)
                        | (OUTCOME_BASE_MISS if base_result.l1_miss else 0)
                    )
            count = yield


# ---------------------------------------------------------------------------
# Co-run and timing oracles
# ---------------------------------------------------------------------------


class LegacyMulticoreSimulator(MulticoreSimulator):
    """A co-run whose lanes are :class:`LegacySimulator` over legacy shared L2s."""

    def __init__(self, prefetchers, hierarchy_config=None, request_queue_size=128, **schedule):
        super().__init__(prefetchers, hierarchy_config, request_queue_size, **schedule)
        config = self.hierarchy_config
        self.shared_l2 = legacy_shared_l2(config.l2, self.num_cores)
        self.baseline_l2 = legacy_shared_l2(config.l2, self.num_cores)
        self.lanes = []
        for core, prefetcher in enumerate(prefetchers):
            lane = LegacySimulator(prefetcher, config, request_queue_size)
            lane.hierarchy = LegacyHierarchy(config, shared_l2=self.shared_l2, core=core)
            lane.baseline = LegacyHierarchy(config, shared_l2=self.baseline_l2, core=core)
            self.lanes.append(lane)

    def replay(self, traces) -> None:
        icounts = [trace.as_arrays().icount for trace in traces]
        chunks = schedule_chunks(icounts, self.interleave, self.quantum_accesses)
        self._replay_schedule(traces, chunks, [None] * self.num_cores)


class LegacyTimingSimulator(TimingSimulator):
    """A timing run that replays on a :class:`LegacySimulator` and walks in Python."""

    def __init__(self, prefetcher=None, hierarchy_config=None, system_config=None,
                 perfect_l1=False, request_queue_size=128) -> None:
        super().__init__(prefetcher, hierarchy_config, system_config, perfect_l1,
                         request_queue_size)
        self.simulator = LegacySimulator(
            self.prefetcher, hierarchy_config, request_queue_size, outcomes=self.outcomes
        )
        self.hierarchy = self.simulator.hierarchy

    def build_result(self, trace):
        with kernel_disabled():
            return super().build_result(trace)


@contextmanager
def legacy_engine():
    """Run ``execute_spec`` (every sim kind) and the simulators it builds on the oracle."""
    with ExitStack() as stack:
        for module, name, oracle in (
            (trace_driven, "TraceDrivenSimulator", LegacySimulator),
            (multiprogram, "TraceDrivenSimulator", LegacySimulator),
            (timing, "TimingSimulator", LegacyTimingSimulator),
            (multicore_engine, "MulticoreSimulator", LegacyMulticoreSimulator),
        ):
            stack.enter_context(mock.patch.object(module, name, oracle))
        yield
