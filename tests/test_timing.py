"""Tests for the timing model and timing simulator."""

import pytest

from repro.cache.hierarchy import ServiceLevel
from repro.sim.timing import TimingSimulator, simulate_speedup
from repro.timing.config import SystemConfig
from repro.timing.model import OutOfOrderTimingModel

from conftest import looping_trace


class TestSystemConfig:
    def test_table1_defaults(self):
        config = SystemConfig()
        assert config.clock_ghz == 4.0
        assert config.issue_width == 8
        assert config.rob_entries == 256
        assert config.lsq_entries == 128
        assert config.l2_hit_latency == 20
        assert config.memory_latency == 200
        assert config.memory_block_latency(64) == 203
        # Table 1: 200 cycles for the first 32 bytes, 3 per further 32.
        assert config.memory_block_latency(32) == 200
        assert config.memory_block_latency(128) == 209

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(clock_ghz=0)
        with pytest.raises(ValueError):
            SystemConfig(issue_width=0)


class TestOutOfOrderTimingModel:
    def test_all_l1_hits_run_at_core_ipc(self):
        model = OutOfOrderTimingModel(core_ipc=4.0)
        for i in range(100):
            model.observe(icount=i * 4, level=ServiceLevel.L1)
        breakdown = model.finalize()
        assert breakdown.ipc == pytest.approx(4.0, rel=0.1)

    def test_memory_misses_slower_than_l2_hits(self):
        mem_model = OutOfOrderTimingModel(core_ipc=4.0, effective_mlp=4)
        l2_model = OutOfOrderTimingModel(core_ipc=4.0, effective_mlp=4)
        for i in range(200):
            mem_model.observe(i * 4, ServiceLevel.MEMORY)
            l2_model.observe(i * 4, ServiceLevel.L2)
        assert mem_model.finalize().total_cycles > l2_model.finalize().total_cycles

    def test_serialized_misses_slower_than_overlapped(self):
        serial = OutOfOrderTimingModel(serialize_misses=True, core_ipc=4.0)
        parallel = OutOfOrderTimingModel(serialize_misses=False, core_ipc=4.0)
        for i in range(200):
            serial.observe(i * 4, ServiceLevel.MEMORY)
            parallel.observe(i * 4, ServiceLevel.MEMORY)
        assert serial.finalize().total_cycles > 1.5 * parallel.finalize().total_cycles

    def test_mlp_limit_increases_stall(self):
        narrow = OutOfOrderTimingModel(effective_mlp=1, core_ipc=4.0)
        wide = OutOfOrderTimingModel(effective_mlp=16, core_ipc=4.0)
        for i in range(300):
            narrow.observe(i * 3, ServiceLevel.MEMORY)
            wide.observe(i * 3, ServiceLevel.MEMORY)
        assert narrow.finalize().total_cycles > wide.finalize().total_cycles

    def test_bus_traffic_adds_occupancy(self):
        model = OutOfOrderTimingModel()
        model.observe(0, ServiceLevel.L1)
        before = model.breakdown.bus_busy_cycles
        model.add_bus_traffic(1024)
        assert model.breakdown.bus_busy_cycles > before

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OutOfOrderTimingModel(core_ipc=0)
        with pytest.raises(ValueError):
            OutOfOrderTimingModel(effective_mlp=0)


class TestTimingSimulator:
    def test_perfect_l1_faster_than_baseline(self):
        trace = looping_trace(num_blocks=3000, iterations=2)
        baseline = TimingSimulator().run(trace)
        perfect = TimingSimulator(perfect_l1=True).run(trace)
        assert perfect.cycles < baseline.cycles
        assert perfect.speedup_over(baseline) > 0

    def test_speedup_of_baseline_against_itself_is_zero(self):
        trace = looping_trace(num_blocks=1000, iterations=1)
        a = TimingSimulator().run(trace)
        b = TimingSimulator().run(trace)
        assert a.speedup_over(b) == pytest.approx(0.0, abs=1e-6)

    def test_simulate_speedup_wrapper(self):
        result = simulate_speedup("gzip", num_accesses=5000)
        assert result.benchmark == "gzip"
        assert result.cycles > 0
        assert result.ipc > 0

    def test_prefetcher_reduces_cycles_on_repetitive_trace(self):
        from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher

        trace = looping_trace(num_blocks=3000, iterations=3)
        baseline = TimingSimulator().run(trace)
        dbcp = TimingSimulator(prefetcher=DBCPPrefetcher(DBCPConfig.unlimited())).run(trace)
        assert dbcp.cycles < baseline.cycles
