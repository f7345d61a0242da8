"""Two-level cache hierarchy (L1D backed by a unified L2).

The hierarchy is the functional substrate shared by the trace-driven and
timing simulations.  Every demand access walks L1D then L2 then memory
(the replay loop drives the two caches itself); the level that serviced
it is what both the miss-rate study (Table 2) and the timing model
(Table 3) need.
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

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig, L1D_CONFIG, L2_CONFIG


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

    def __init__(self, config: CacheConfig, num_cores: int) -> None:
        self.cache = SetAssociativeCache(config)
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

    The trace-driven simulator's interpreted loop walks :attr:`l1` and
    :attr:`l2` through their allocation-free ``access_fast`` entry
    points itself and prefetches through :meth:`prefetch_into_l1_fast`;
    miss details are reported through the per-cache reusable ``last``
    structs.  The compiled kernel replays the same state in C.

    ``shared_l2`` (internal to :mod:`repro.multicore`) replaces the
    private L2 with a :class:`SharedL2`'s cache, and each memory-sourced
    prefetch is reported to it as core ``core``'s allocation.  ``stats``
    stay this hierarchy's own either way.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        shared_l2: Optional[SharedL2] = None,
        core: int = 0,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.l1 = SetAssociativeCache(self.config.l1)
        self.l2 = SetAssociativeCache(self.config.l2) if shared_l2 is None else shared_l2.cache
        self.shared_l2 = shared_l2
        self.core = core
        self.stats = HierarchyStats()

    @property
    def block_size(self) -> int:
        """Cache block size shared by both levels."""
        return self.config.l1.block_size

    def prefetch_into_l1_fast(self, address: int, victim_address: Optional[int] = None) -> int:
        """Bring ``address``'s block into the L1D as a prefetch, allocating nothing.

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
