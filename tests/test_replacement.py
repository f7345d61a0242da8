"""Unit tests for repro.cache.replacement and the oracle's LRU policy."""

import pytest
from oracle import LRUReplacement

from repro.cache.replacement import FIFOReplacement


class TestLRU:
    def test_least_recently_used_chosen(self):
        lru = LRUReplacement(num_sets=1, associativity=2)
        lru.on_fill(0, 0)
        lru.on_fill(0, 1)
        lru.on_access(0, 0)  # way 1 is now least recently used
        assert lru.victim_way(0, [0, 1]) == 1

    def test_access_refreshes_recency(self):
        lru = LRUReplacement(num_sets=1, associativity=3)
        for way in range(3):
            lru.on_fill(0, way)
        lru.on_access(0, 0)
        assert lru.victim_way(0, [0, 1, 2]) == 1

    def test_unseen_ways_preferred(self):
        lru = LRUReplacement(num_sets=1, associativity=2)
        lru.on_fill(0, 1)
        assert lru.victim_way(0, [0, 1]) == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LRUReplacement(0, 2)


class TestFIFO:
    def test_first_filled_evicted_despite_access(self):
        fifo = FIFOReplacement(num_sets=1, associativity=2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        fifo.on_access(0, 0)  # FIFO ignores hits
        assert fifo.victim_way(0, [0, 1]) == 0

    def test_order_advances_after_refill(self):
        fifo = FIFOReplacement(num_sets=1, associativity=2)
        fifo.on_fill(0, 0)
        fifo.on_fill(0, 1)
        fifo.on_fill(0, 0)  # way 0 refilled; way 1 is now oldest
        assert fifo.victim_way(0, [0, 1]) == 1
