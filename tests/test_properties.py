"""Property-based tests (hypothesis) for the core data structures."""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.signature_cache import SignatureCache, SignatureCacheConfig, SignatureCacheEntry
from repro.core.signatures import SignatureConfig, fold_hash, hash_combine
from repro.memory.request_queue import PrefetchRequestQueue

addresses = st.integers(min_value=0, max_value=(1 << 30) - 1)


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity_and_hits_require_residency(self, addrs):
        config = CacheConfig("prop", 1024, 64, 2)
        cache = SetAssociativeCache(config)
        for address in addrs:
            resident_before = cache.contains(address)
            result = cache.access(address)
            assert result.hit == resident_before
            assert len(cache.resident_blocks()) <= config.num_blocks
        # Every resident block maps to the set it is stored in.
        for block in cache.resident_blocks():
            assert cache.contains(block)

    @given(st.lists(addresses, min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_accesses_equal_hits_plus_misses(self, addrs):
        cache = SetAssociativeCache(CacheConfig("prop", 512, 64, 2))
        for address in addrs:
            cache.access(address)
        assert cache.stats.accesses == cache.stats.hits + cache.stats.misses
        assert cache.stats.misses >= len({a & ~63 for a in addrs}) - cache.config.num_blocks


class TestSignatureCacheProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=(1 << 32) - 1), addresses), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_capacity_bound_and_lookup_consistency(self, entries):
        cache = SignatureCache(SignatureCacheConfig(num_entries=32, associativity=2))
        for key, predicted in entries:
            cache.insert(SignatureCacheEntry(key=key, predicted_address=predicted, confidence=2))
            assert len(cache) <= 32
            found = cache.peek(key)
            assert found is not None and found.key == key


class TestHashProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=100, deadline=None)
    def test_hash_combine_stays_in_64_bits(self, current, value):
        assert 0 <= hash_combine(current, value) < (1 << 64)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=1, max_value=48))
    @settings(max_examples=100, deadline=None)
    def test_fold_hash_respects_width(self, value, bits):
        assert 0 <= fold_hash(value, bits) < (1 << bits)

    @given(st.integers(min_value=0, max_value=(1 << 62) - 1))
    @settings(max_examples=50, deadline=None)
    def test_truncate_key_deterministic(self, raw):
        config = SignatureConfig(trace_hash_bits=23)
        assert config.truncate_key(raw) == config.truncate_key(raw)


class TestRequestQueueProperties:
    @given(st.lists(addresses, min_size=1, max_size=300), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_queue_never_exceeds_capacity_and_preserves_order(self, pushes, capacity):
        queue = PrefetchRequestQueue(capacity)
        for address in pushes:
            queue.push(address)
            assert len(queue) <= capacity
        drained = [r.address for r in queue.pop_all()]
        assert drained == pushes[-len(drained):]
