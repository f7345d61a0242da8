"""Unit tests for repro.cache.hierarchy, driven through the oracle's object-returning walk."""

import pytest
from oracle import LegacyHierarchy

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, ServiceLevel


@pytest.fixture
def small_hierarchy():
    """The oracle's object-returning walk over the package's array-backed caches."""
    config = HierarchyConfig(
        l1=CacheConfig("L1", 1024, 64, 2, hit_latency=2),
        l2=CacheConfig("L2", 4096, 64, 4, hit_latency=20),
    )
    return LegacyHierarchy(config, cache=SetAssociativeCache)


class TestDemandAccesses:
    def test_cold_miss_goes_to_memory(self, small_hierarchy):
        result = small_hierarchy.access(0x10000)
        assert result.level is ServiceLevel.MEMORY
        assert result.l1_miss and result.l2_miss

    def test_second_access_hits_l1(self, small_hierarchy):
        small_hierarchy.access(0x10000)
        assert small_hierarchy.access(0x10008).level is ServiceLevel.L1

    def test_l1_victim_still_hits_in_l2(self, small_hierarchy):
        # Fill one L1 set beyond capacity; the evicted block stays in L2.
        base = 0x10000
        stride = 1024  # same L1 set (16 sets x 64B)
        small_hierarchy.access(base)
        small_hierarchy.access(base + stride)
        small_hierarchy.access(base + 2 * stride)  # evicts the first from L1
        result = small_hierarchy.access(base)
        assert result.level is ServiceLevel.L2

    def test_stats_accumulate(self, small_hierarchy):
        small_hierarchy.access(0x100)
        small_hierarchy.access(0x100)
        stats = small_hierarchy.stats
        assert stats.accesses == 2
        assert stats.l1_hits == 1 and stats.l1_misses == 1
        assert stats.l1_miss_rate == 0.5

    def test_mismatched_block_sizes_rejected(self):
        with pytest.raises(ValueError):
            HierarchyConfig(
                l1=CacheConfig("L1", 1024, 64, 2),
                l2=CacheConfig("L2", 4096, 128, 4),
            )


class TestPrefetches:
    def test_prefetch_from_memory_allocates_l2(self, small_hierarchy):
        outcome = small_hierarchy.prefetch_into_l1(0x20000)
        assert outcome.source is ServiceLevel.MEMORY
        assert outcome.installed
        assert small_hierarchy.l1.contains(0x20000)
        assert small_hierarchy.l2.contains(0x20000)

    def test_prefetch_of_resident_block_is_noop(self, small_hierarchy):
        small_hierarchy.access(0x20000)
        outcome = small_hierarchy.prefetch_into_l1(0x20000)
        assert outcome.source is ServiceLevel.L1
        assert not outcome.installed

    def test_prefetch_from_l2(self, small_hierarchy):
        base = 0x10000
        stride = 1024
        small_hierarchy.access(base)
        small_hierarchy.access(base + stride)
        small_hierarchy.access(base + 2 * stride)  # base evicted from L1, still in L2
        outcome = small_hierarchy.prefetch_into_l1(base)
        assert outcome.source is ServiceLevel.L2
        assert small_hierarchy.stats.prefetches_from_l2 == 1

    def test_prefetch_hit_reported_on_demand(self, small_hierarchy):
        small_hierarchy.prefetch_into_l1(0x30000)
        result = small_hierarchy.access(0x30000)
        assert result.level is ServiceLevel.L1
        assert result.prefetch_hit

    def test_prefetch_displaces_requested_victim(self, small_hierarchy):
        base = 0x10000
        stride = 1024
        small_hierarchy.access(base)
        small_hierarchy.access(base + stride)
        outcome = small_hierarchy.prefetch_into_l1(base + 2 * stride, victim_address=base + stride)
        assert outcome.evicted_address == base + stride
