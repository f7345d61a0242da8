"""Equivalence suite: array-backed fast cache vs the legacy reference model.

Drives both implementations through identical access/prefetch sequences
— through both LRU bodies of the fast cache, the branch-free two-way one
and the n-way one — and asserts identical per-operation results
(including victim choices, which show up as evicted addresses) and
identical final statistics.  This is the gate that lets the fast engine
replace the legacy one.
"""

import random

import pytest

from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.legacy import LegacySetAssociativeCache


def _result_fields(result: AccessResult) -> tuple:
    return (
        result.hit,
        result.block_address,
        result.set_index,
        result.evicted_address,
        result.evicted_dirty,
        result.evicted_was_prefetched_unused,
        result.evicted_by_prefetch,
        result.prefetch_hit,
    )


def _random_ops(seed: int, count: int, block_span: int):
    """A reproducible mixed access/prefetch/contains operation list."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        address = rng.randrange(block_span) * 64 + rng.randrange(64)
        kind = rng.random()
        if kind < 0.70:
            ops.append(("access", address, rng.random() < 0.3))
        elif kind < 0.95:
            victim = rng.randrange(block_span) * 64 if rng.random() < 0.5 else None
            ops.append(("prefetch", address, victim))
        else:
            ops.append(("contains", address, None))
    return ops


def _apply(cache, op):
    kind, address, extra = op
    if kind == "access":
        return _result_fields(cache.access(address, is_write=extra))
    if kind == "prefetch":
        return _result_fields(cache.insert_prefetch(address, victim_address=extra))
    return cache.contains(address)


@pytest.mark.parametrize("seed", [1, 7, 99])
def test_fast_and_legacy_agree_on_random_sequences(seed):
    config = CacheConfig("equiv", 4096, 64, 2)  # the two-way body
    fast = SetAssociativeCache(config)
    legacy = LegacySetAssociativeCache(config)
    # Span ~4x the cache's block capacity so evictions are constant.
    for step, op in enumerate(_random_ops(seed, 4000, block_span=4 * config.num_blocks)):
        assert _apply(fast, op) == _apply(legacy, op), f"divergence at step {step}: {op}"
    assert fast.stats == legacy.stats
    assert sorted(fast.resident_blocks()) == sorted(legacy.resident_blocks())


def test_higher_associativity_agrees():
    config = CacheConfig("equiv8", 16384, 64, 8)  # the n-way body
    fast = SetAssociativeCache(config)
    legacy = LegacySetAssociativeCache(config)
    for op in _random_ops(17, 5000, block_span=3 * config.num_blocks):
        assert _apply(fast, op) == _apply(legacy, op)
    assert fast.stats == legacy.stats


class TestPrefetchEvictionAccounting:
    """Satellite: ``by_prefetch`` is wired through both engines."""

    @pytest.fixture(params=["fast", "legacy"])
    def cache(self, request):
        config = CacheConfig("tiny", 256, 64, 2)  # 2 sets x 2 ways
        cls = SetAssociativeCache if request.param == "fast" else LegacySetAssociativeCache
        return cls(config)

    @staticmethod
    def _addr(set_index: int, tag: int) -> int:
        return (tag << 7) | (set_index << 6)

    def test_prefetch_into_free_way_is_not_an_eviction(self, cache):
        result = cache.insert_prefetch(self._addr(0, 1))
        assert result.evicted_address is None
        assert not result.evicted_by_prefetch
        assert cache.stats.prefetch_caused_evictions == 0

    def test_policy_chosen_prefetch_eviction_is_counted(self, cache):
        cache.access(self._addr(0, 1))
        cache.access(self._addr(0, 2))
        result = cache.insert_prefetch(self._addr(0, 3))
        assert result.evicted_address == self._addr(0, 1)
        assert result.evicted_by_prefetch
        assert cache.stats.prefetch_caused_evictions == 1

    def test_named_victim_prefetch_eviction_is_counted(self, cache):
        cache.access(self._addr(0, 1))
        cache.access(self._addr(0, 2))
        result = cache.insert_prefetch(self._addr(0, 3), victim_address=self._addr(0, 1))
        assert result.evicted_address == self._addr(0, 1)
        assert result.evicted_by_prefetch
        assert cache.stats.prefetch_caused_evictions == 1

    def test_demand_eviction_is_not_prefetch_caused(self, cache):
        cache.access(self._addr(0, 1))
        cache.access(self._addr(0, 2))
        result = cache.access(self._addr(0, 3))
        assert result.evicted_address is not None
        assert not result.evicted_by_prefetch
        assert cache.stats.prefetch_caused_evictions == 0
        assert cache.stats.evictions == 1

    def test_resident_prefetch_noop_counts_nothing(self, cache):
        cache.access(self._addr(1, 5))
        result = cache.insert_prefetch(self._addr(1, 5))
        assert result.hit
        assert cache.stats.prefetch_caused_evictions == 0
        assert cache.stats.prefetch_insertions == 0


class TestHierarchyFastPath:
    """The allocation-free hierarchy walk and prefetch mirror the object API."""

    def test_codes_levels_and_stats_match_object_api(self):
        # The interpreted replay loop's walk: L1 access_fast, then the L2
        # on a miss; it must match the object-returning access() walk.
        from repro.cache.hierarchy import CacheHierarchy, ServiceLevel

        fast = CacheHierarchy()
        mirror = CacheHierarchy()
        rng = random.Random(11)
        for _ in range(3000):
            address = rng.randrange(1 << 22)
            is_write = rng.random() < 0.3
            code = fast.l1.access_fast(address, is_write)
            result = mirror.access(address, is_write=is_write)
            assert (code != 0) == result.l1_hit
            assert (code == 2) == result.prefetch_hit
            if not code:
                level = ServiceLevel.L2 if fast.l2.access_fast(address, False) else ServiceLevel.MEMORY
                assert level is result.level
        assert fast.l1.stats == mirror.l1.stats
        assert fast.l2.stats == mirror.l2.stats

    def test_prefetch_hit_code_after_prefetch_into_l1_fast(self):
        from repro.cache.hierarchy import CacheHierarchy

        hierarchy = CacheHierarchy()
        assert hierarchy.prefetch_into_l1_fast(0x4000) == 2  # from memory
        assert hierarchy.access(0x4000).prefetch_hit  # consumes the prefetch
        assert hierarchy.prefetch_into_l1_fast(0x4000) == 0  # already resident


class TestFastPathEntryPoints:
    """The allocation-free entry points report through the reusable struct."""

    def test_access_fast_codes_and_last_struct(self):
        cache = SetAssociativeCache(CacheConfig("tiny", 256, 64, 2))
        assert cache.access_fast(0x0, False) == 0  # miss
        assert cache.last.evicted_address is None
        assert cache.access_fast(0x8, False) == 1  # hit, same block
        assert cache.insert_prefetch_fast(0x1000) == 0  # installed
        assert cache.access_fast(0x1000, False) == 2  # prefetch hit
        assert cache.access_fast(0x1000, False) == 1  # plain hit afterwards

    def test_miss_details_match_wrapper_result(self):
        config = CacheConfig("tiny", 256, 64, 2)
        fast = SetAssociativeCache(config)
        mirror = SetAssociativeCache(config)
        for tag in (1, 2, 3):
            address = tag << 7
            code = fast.access_fast(address, False)
            result = mirror.access(address)
            assert (code != 0) == result.hit
            assert fast.last.evicted_address == result.evicted_address
            assert fast.last.set_index == result.set_index
