"""Unit tests for repro.trace.stream."""

import pytest

from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import (
    TraceStream,
    concat_traces,
    interleave_quantum,
    limit_trace,
    shift_addresses,
)

from conftest import make_trace


class TestTraceStream:
    def test_len_and_iteration(self):
        trace = make_trace([0x100, 0x200, 0x300])
        assert len(trace) == 3
        assert [a.address for a in trace] == [0x100, 0x200, 0x300]

    def test_indexing_and_slicing(self):
        trace = make_trace(range(0, 640, 64))
        assert trace[0].address == 0
        sliced = trace[2:5]
        assert isinstance(sliced, TraceStream)
        assert len(sliced) == 3

    def test_instruction_count(self):
        trace = make_trace([0x100, 0x200])
        assert trace.instruction_count == trace[-1].icount + 1
        assert TraceStream([], name="empty").instruction_count == 0

    def test_map_does_not_mutate_source(self):
        trace = make_trace([0x100])
        mapped = trace.map(lambda a: a.with_address(a.address + 64))
        assert trace[0].address == 0x100
        assert mapped[0].address == 0x140

    def test_filter(self):
        trace = make_trace([0x100, 0x200, 0x300])
        filtered = trace.filter(lambda a: a.address > 0x100)
        assert len(filtered) == 2

    def test_unique_blocks(self):
        trace = make_trace([0x100, 0x104, 0x140, 0x180])
        assert trace.unique_blocks(64) == 3


class TestTransformations:
    def test_limit_trace(self):
        trace = make_trace(range(0, 64 * 10, 64))
        limited = limit_trace(trace, 4)
        assert len(limited) == 4
        assert limit_trace(trace, 100) is trace

    def test_limit_trace_rejects_negative(self):
        with pytest.raises(ValueError):
            limit_trace(make_trace([0]), -1)

    def test_shift_addresses(self):
        trace = make_trace([0x100, 0x200])
        shifted = shift_addresses(trace, 1 << 30)
        assert shifted[0].address == 0x100 + (1 << 30)
        assert trace[0].address == 0x100

    def test_shift_addresses_rejects_negative(self):
        with pytest.raises(ValueError):
            shift_addresses(make_trace([0]), -4)

    def test_concat_renumbers_icounts_monotonically(self):
        a = make_trace([0x100, 0x200])
        b = make_trace([0x300, 0x400])
        merged = concat_traces([a, b])
        icounts = [x.icount for x in merged]
        assert icounts == sorted(icounts)
        assert len(merged) == 4
        assert merged[2].icount > merged[1].icount
        # An empty trace in the middle keeps the base (icounts 0, 3 | 4, 7).
        merged = concat_traces([a, make_trace([]), a])
        assert [x.icount for x in merged] == [0, 3, 4, 7]
        assert [x.address for x in merged] == [0x100, 0x200, 0x100, 0x200]


class TestInterleaveQuantum:
    def test_round_robin_in_quanta(self):
        a = make_trace([0x1000 + 64 * i for i in range(10)], name="a")
        b = make_trace([0x2000 + 64 * i for i in range(10)], name="b")
        merged = interleave_quantum([a, b], quanta=[6, 6], max_switches=4)
        # Each quantum of 6 instructions covers two accesses (3 instructions apart).
        origins = ["a" if x.address < 0x2000 else "b" for x in merged]
        assert origins[:2] == ["a", "a"]
        assert origins[2:4] == ["b", "b"]

    def test_icounts_monotonic(self):
        a = make_trace([0x1000 + 64 * i for i in range(20)])
        b = make_trace([0x8000 + 64 * i for i in range(20)])
        merged = interleave_quantum([a, b], quanta=[9, 9])
        icounts = [x.icount for x in merged]
        assert icounts == sorted(icounts)

    def test_exhausts_both_traces_without_switch_limit(self):
        a = make_trace([0x1000 + 64 * i for i in range(5)])
        b = make_trace([0x8000 + 64 * i for i in range(7)])
        merged = interleave_quantum([a, b], quanta=[30, 30])
        assert len(merged) == 12

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            interleave_quantum([make_trace([0])], quanta=[1, 2])

    def test_nonpositive_quantum_rejected(self):
        with pytest.raises(ValueError):
            interleave_quantum([make_trace([0])], quanta=[0])
