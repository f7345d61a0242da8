"""Unit tests for repro.memory (DRAM parameters, bus, prefetch request queue)."""

import pytest

from repro.memory.bus import BusConfig, BusModel, TrafficCategory
from repro.memory.dram import DRAMConfig
from repro.memory.request_queue import PrefetchRequestQueue


class TestDRAM:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            DRAMConfig(size_bytes=0)
        with pytest.raises(ValueError):
            DRAMConfig(chunk_bytes=0)


class TestBus:
    def test_transfer_cycles(self):
        config = BusConfig()
        assert config.transfer_bus_cycles(64) == 2
        assert config.transfer_bus_cycles(1) == 1
        assert config.transfer_bus_cycles(0) == 0
        assert config.core_cycles_per_bus_cycle == pytest.approx(4000 / 1333, rel=1e-3)

    def test_record_and_bytes_per_instruction(self):
        bus = BusModel()
        bus.record(TrafficCategory.BASE_DATA, 640, requests=10)
        bus.record(TrafficCategory.SEQUENCE_FETCH, 50, requests=0)
        per_instr = bus.bytes_per_instruction(1000)
        assert per_instr[TrafficCategory.BASE_DATA] == pytest.approx(0.64)
        assert per_instr[TrafficCategory.SEQUENCE_FETCH] == pytest.approx(0.05)
        assert bus.total_bytes == 690

    def test_utilization_clamped(self):
        bus = BusModel()
        bus.record(TrafficCategory.BASE_DATA, 10_000_000)
        assert bus.utilization(100.0) == 1.0
        assert bus.utilization(0.0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            BusModel().record(TrafficCategory.BASE_DATA, -1)


class TestPrefetchRequestQueue:
    def test_fifo_order(self):
        queue = PrefetchRequestQueue(4)
        queue.push(1)
        queue.push(2)
        assert queue.pop().address == 1
        assert queue.pop().address == 2
        assert queue.pop() is None

    def test_full_queue_drops_oldest(self):
        queue = PrefetchRequestQueue(2)
        queue.push(1)
        queue.push(2)
        queue.push(3)
        assert queue.dropped == 1
        addresses = [r.address for r in queue.pop_all()]
        assert addresses == [2, 3]

    def test_pop_all_and_counters(self):
        queue = PrefetchRequestQueue(8)
        for i in range(5):
            queue.push(i, victim_address=i + 100, tag=("t", i))
        requests = queue.pop_all()
        assert len(requests) == 5
        assert requests[0].victim_address == 100
        assert requests[0].tag == ("t", 0)
        assert queue.issued == 5 and queue.enqueued == 5

    def test_clear_counts_dropped(self):
        queue = PrefetchRequestQueue(8)
        queue.push(1)
        queue.clear()
        assert queue.dropped == 1 and len(queue) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PrefetchRequestQueue(0)
