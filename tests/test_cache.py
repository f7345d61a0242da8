"""Unit tests for repro.cache.cache (the set-associative cache model)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig


@pytest.fixture
def tiny():
    # 2 sets x 2 ways of 64-byte blocks.
    return SetAssociativeCache(CacheConfig("tiny", 256, 64, 2))


def addr(set_index: int, tag: int, offset: int = 0) -> int:
    """Compose an address for the tiny 2-set cache."""
    return (tag << 7) | (set_index << 6) | offset


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self, tiny):
        first = tiny.access(addr(0, 1))
        second = tiny.access(addr(0, 1, 8))
        assert first.miss and second.hit
        assert tiny.stats.misses == 1 and tiny.stats.hits == 1

    def test_same_block_different_offset_hits(self, tiny):
        tiny.access(addr(1, 3))
        assert tiny.access(addr(1, 3, 63)).hit

    def test_eviction_when_set_full(self, tiny):
        tiny.access(addr(0, 1))
        tiny.access(addr(0, 2))
        result = tiny.access(addr(0, 3))
        assert result.miss
        assert result.evicted_address == addr(0, 1)

    def test_lru_order_respected(self, tiny):
        tiny.access(addr(0, 1))
        tiny.access(addr(0, 2))
        tiny.access(addr(0, 1))  # tag 2 is now LRU
        result = tiny.access(addr(0, 3))
        assert result.evicted_address == addr(0, 2)

    def test_sets_independent(self, tiny):
        tiny.access(addr(0, 1))
        tiny.access(addr(1, 1))
        tiny.access(addr(0, 2))
        tiny.access(addr(0, 3))  # evicts only from set 0
        assert tiny.contains(addr(1, 1))

    def test_dirty_eviction_counts_writeback(self, tiny):
        tiny.access(addr(0, 1), is_write=True)
        tiny.access(addr(0, 2))
        result = tiny.access(addr(0, 3))
        assert result.evicted_dirty
        assert tiny.stats.writebacks == 1

    def test_contains_and_resident_blocks(self, tiny):
        tiny.access(addr(0, 5))
        assert tiny.contains(addr(0, 5, 32))
        assert addr(0, 5) in tiny.resident_blocks()


class TestPrefetchInsertion:
    def test_prefetch_then_demand_hit_is_prefetch_hit(self, tiny):
        tiny.insert_prefetch(addr(0, 4))
        result = tiny.access(addr(0, 4))
        assert result.hit and result.prefetch_hit
        assert tiny.stats.prefetch_hits == 1

    def test_second_access_not_prefetch_hit(self, tiny):
        tiny.insert_prefetch(addr(0, 4))
        tiny.access(addr(0, 4))
        assert not tiny.access(addr(0, 4)).prefetch_hit

    def test_prefetch_existing_block_is_noop(self, tiny):
        tiny.access(addr(0, 4))
        result = tiny.insert_prefetch(addr(0, 4))
        assert result.hit
        assert tiny.stats.prefetch_insertions == 0

    def test_prefetch_displaces_named_victim(self, tiny):
        tiny.access(addr(0, 1))
        tiny.access(addr(0, 2))
        result = tiny.insert_prefetch(addr(0, 3), victim_address=addr(0, 2))
        assert result.evicted_address == addr(0, 2)
        assert result.evicted_by_prefetch
        assert tiny.contains(addr(0, 1))

    def test_prefetch_uses_policy_when_victim_absent(self, tiny):
        tiny.access(addr(0, 1))
        tiny.access(addr(0, 2))
        result = tiny.insert_prefetch(addr(0, 3), victim_address=addr(1, 9))
        assert result.evicted_address == addr(0, 1)  # LRU fallback

    def test_unused_prefetch_eviction_counted(self, tiny):
        tiny.insert_prefetch(addr(0, 1))
        tiny.access(addr(0, 2))
        result = tiny.access(addr(0, 3))
        # The unused prefetched block (tag 1) is LRU and gets evicted.
        assert result.evicted_was_prefetched_unused
        assert tiny.stats.prefetch_unused_evictions == 1


class TestInvariants:
    def test_set_never_exceeds_associativity(self, tiny):
        for tag in range(20):
            tiny.access(addr(0, tag))
            occupancy = sum(1 for block in tiny.resident_blocks()
                            if tiny.config.set_index(block) == 0)
            assert occupancy <= tiny.config.associativity

    def test_miss_rate_for_thrashing_pattern(self, tiny):
        # Cyclic access to 3 tags in a 2-way set always misses with LRU.
        for _ in range(10):
            for tag in (1, 2, 3):
                tiny.access(addr(0, tag))
        assert tiny.stats.miss_rate == 1.0
