"""Two-level cache hierarchy (L1D backed by a unified L2).

The hierarchy is the functional substrate shared by the trace-driven and
timing simulations.  Every demand access walks L1D then L2 then memory;
the result records at which level the access was serviced, which is what
both the miss-rate study (Table 2) and the timing model (Table 3) need.
Prefetches are inserted directly into the L1D, and the hierarchy reports
whether the prefetched data was found in the L2 or had to come from
memory so that bus-utilisation accounting (Figure 12) is possible.

A hierarchy normally owns its L2.  The multicore co-run simulator
instead gives each core's hierarchy one :class:`SharedL2`: the cores
keep private L1Ds and stats but contend for one L2 cache, and the
:class:`SharedL2` records which core allocated each block so that
cross-core evictions can be counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.config import CacheConfig, L1D_CONFIG, L2_CONFIG
from repro.cache.legacy import LegacySetAssociativeCache
from repro.engines import ENGINES, validate_engine


class ServiceLevel(Enum):
    """Level of the memory hierarchy that serviced a request."""

    L1 = "L1"
    L2 = "L2"
    MEMORY = "MEMORY"


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the two-level hierarchy."""

    l1: CacheConfig = L1D_CONFIG
    l2: CacheConfig = L2_CONFIG

    def __post_init__(self) -> None:
        if self.l1.block_size != self.l2.block_size:
            raise ValueError("L1 and L2 must use the same block size")


@dataclass
class HierarchyAccessResult:
    """Outcome of one demand access walking the hierarchy."""

    level: ServiceLevel
    l1_result: AccessResult
    l2_result: Optional[AccessResult] = None
    prefetch_hit: bool = False

    @property
    def l1_hit(self) -> bool:
        """``True`` when the access hit in the L1D."""
        return self.l1_result.hit

    @property
    def l1_miss(self) -> bool:
        """``True`` when the access missed in the L1D."""
        return not self.l1_result.hit

    @property
    def l2_miss(self) -> bool:
        """``True`` when the access also missed in the L2 (went off chip)."""
        return self.level is ServiceLevel.MEMORY


@dataclass
class PrefetchOutcome:
    """Outcome of a prefetch insertion into the L1D."""

    source: ServiceLevel
    l1_result: Optional[AccessResult] = None

    @property
    def installed(self) -> bool:
        """``True`` when the block was actually inserted (not already resident)."""
        return self.l1_result is not None

    @property
    def evicted_address(self) -> Optional[int]:
        """Block displaced by the insertion, if any."""
        return self.l1_result.evicted_address if self.l1_result else None

    @property
    def evicted_was_unused_prefetch(self) -> bool:
        """``True`` if the displaced block was itself an unused prefetch."""
        return bool(self.l1_result and self.l1_result.evicted_was_prefetched_unused)


@dataclass
class HierarchyStats:
    """Hierarchy-wide counters."""

    accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    prefetches_issued: int = 0
    prefetches_from_l2: int = 0
    prefetches_from_memory: int = 0

    @property
    def l1_miss_rate(self) -> float:
        """L1D misses per L1D access."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L2 access (local miss rate, as in Table 2)."""
        l2_accesses = self.l2_hits + self.l2_misses
        return self.l2_misses / l2_accesses if l2_accesses else 0.0


class SharedL2:
    """One L2 cache shared by several cores' hierarchies, with block ownership.

    Each allocation reported through :meth:`allocated` by core ``c``
    makes ``c`` the block's owner.  An allocation that displaces a block
    owned by another core is a *cross-core eviction*, counted in
    aggregate and, when the displacing allocation was a prefetch, against
    the prefetching core.  A hierarchy over the shared L2 reports its
    memory-sourced prefetches; the replay loop driving it reports its
    demand misses (a co-run's baselines report none: they never prefetch
    and their interference is not measured).  A co-run on the compiled
    kernel keeps all of this in C and settles the cache's statistics,
    :attr:`owners` and the counters here once, at the end.
    """

    def __init__(self, config: CacheConfig, engine: str, num_cores: int) -> None:
        cache_cls = LegacySetAssociativeCache if engine == "legacy" else SetAssociativeCache
        self.cache = cache_cls(config, replacement="lru")
        self._block_mask = ~(config.block_size - 1)
        #: Block address -> core that last allocated it.
        self.owners: Dict[int, int] = {}
        self.cross_core_evictions = 0
        self.prefetch_cross_core_evictions = [0] * num_cores

    def allocated(
        self, core: int, address: int, evicted_address: Optional[int], by_prefetch: bool = False
    ) -> None:
        """Record that ``core`` allocated ``address``'s block, displacing ``evicted_address``."""
        if evicted_address is not None and self.owners.pop(evicted_address, core) != core:
            self.cross_core_evictions += 1
            if by_prefetch:
                self.prefetch_cross_core_evictions[core] += 1
        self.owners[address & self._block_mask] = core


class CacheHierarchy:
    """Functional L1D + unified L2 hierarchy with prefetch-into-L1 support.

    ``engine`` selects the cache model: ``"legacy"`` uses the original
    object-per-block reference implementation (kept for equivalence
    testing and benchmarking); ``"fast"`` (the default) uses the
    array-backed caches.  The array-backed caches additionally expose the
    allocation-free :meth:`access_fast` / :meth:`prefetch_into_l1_fast`
    entry points used by the trace-driven simulator's hot loop; miss
    details are reported through the per-cache reusable ``last`` structs
    and the hierarchy's :attr:`last_level` (0 = L1, 1 = L2, 2 = memory).

    ``shared_l2`` (internal to :mod:`repro.multicore`) replaces the
    private L2 with a :class:`SharedL2`'s cache, and each memory-sourced
    prefetch is reported to it as core ``core``'s allocation.  ``stats``
    stay this hierarchy's own either way.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        engine: str = "fast",
        shared_l2: Optional[SharedL2] = None,
        core: int = 0,
    ) -> None:
        validate_engine(engine)
        self.config = config or HierarchyConfig()
        self.engine = engine
        cache_cls = LegacySetAssociativeCache if engine == "legacy" else SetAssociativeCache
        self.l1 = cache_cls(self.config.l1, replacement="lru")
        if shared_l2 is None:
            self.l2 = cache_cls(self.config.l2, replacement="lru")
        else:
            self.l2 = shared_l2.cache
        self.shared_l2 = shared_l2
        self.core = core
        self.stats = HierarchyStats()
        self.last_level = 0

    @property
    def block_size(self) -> int:
        """Cache block size shared by both levels."""
        return self.config.l1.block_size

    def access_fast(self, address: int, is_write) -> int:
        """Demand access without allocating result objects (fast engine only).

        Returns ``1`` on an L1 hit, ``2`` on an L1 hit that consumed an
        unused prefetched block, and ``0`` on an L1 miss.  On a miss,
        :attr:`last_level` says which level serviced the request (1 = L2,
        2 = memory) and eviction details are in ``self.l1.last``.
        """
        stats = self.stats
        stats.accesses += 1
        code = self.l1.access_fast(address, is_write)
        if code:
            stats.l1_hits += 1
            self.last_level = 0
            return code
        stats.l1_misses += 1
        # L1 victim writeback is absorbed by the L2 (not explicitly modelled
        # beyond the dirty-writeback counters in each cache's stats).
        if self.l2.access_fast(address, False):
            stats.l2_hits += 1
            self.last_level = 1
        else:
            stats.l2_misses += 1
            self.last_level = 2
        return 0

    def access(self, address: int, is_write: bool = False) -> HierarchyAccessResult:
        """Perform a demand access, walking L1D, then L2, then memory."""
        self.stats.accesses += 1
        l1_result = self.l1.access(address, is_write=is_write)
        if l1_result.hit:
            self.stats.l1_hits += 1
            return HierarchyAccessResult(
                level=ServiceLevel.L1,
                l1_result=l1_result,
                prefetch_hit=l1_result.prefetch_hit,
            )

        self.stats.l1_misses += 1
        # L1 victim writeback is absorbed by the L2 (not explicitly modelled
        # beyond the dirty-writeback counters in each cache's stats).
        l2_result = self.l2.access(address, is_write=False)
        if l2_result.hit:
            self.stats.l2_hits += 1
            level = ServiceLevel.L2
        else:
            self.stats.l2_misses += 1
            level = ServiceLevel.MEMORY
        return HierarchyAccessResult(level=level, l1_result=l1_result, l2_result=l2_result)

    def prefetch_into_l1_fast(self, address: int, victim_address: Optional[int] = None) -> int:
        """Prefetch insertion without allocating result objects (fast engine only).

        Returns ``0`` when the block was already L1-resident (nothing
        done), ``1`` when the data came from the L2 and ``2`` when it came
        from memory; insertion details are in ``self.l1.last``.
        """
        stats = self.stats
        stats.prefetches_issued += 1
        l1 = self.l1
        # The L1 residency probe is inlined (this runs once per issued
        # prefetch); its set/tag feed the assume-absent insert below so
        # the set is scanned only once.  The L2 is probed *through* its
        # access call: a hit return means the block was resident (L2
        # source), a miss return allocated it on the way in (memory
        # source) — one set scan instead of a probe plus an access.
        l1_set = (address >> l1._offset_bits) & l1._set_mask
        l1_tag = address >> l1._tag_shift
        if l1_tag in l1._tags[l1_set]:
            return 0
        if self.l2.access_fast(address, False):
            stats.prefetches_from_l2 += 1
            source = 1
        else:
            stats.prefetches_from_memory += 1
            source = 2
            if self.shared_l2 is not None:
                self.shared_l2.allocated(
                    self.core, address, self.l2.last.evicted_address, by_prefetch=True
                )
        l1._insert_prefetch_absent(l1_set, l1_tag, address, victim_address)
        return source

    def prefetch_into_l1(self, address: int, victim_address: Optional[int] = None) -> PrefetchOutcome:
        """Bring the block holding ``address`` into the L1D as a prefetch.

        Returns a :class:`PrefetchOutcome` describing where the data came
        from (``L1`` means the block was already resident and nothing was
        done) and which block, if any, the insertion displaced.
        """
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
            l2_result = self.l2.access(address, is_write=False)  # allocate in L2 on the way in
            if self.shared_l2 is not None:
                self.shared_l2.allocated(
                    self.core, address, l2_result.evicted_address, by_prefetch=True
                )
        insert_result = self.l1.insert_prefetch(address, victim_address=victim_address)
        return PrefetchOutcome(source=source, l1_result=insert_result)

    def flush(self) -> None:
        """Invalidate both cache levels."""
        self.l1.flush()
        self.l2.flush()
