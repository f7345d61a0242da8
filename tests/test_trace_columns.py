"""Tests for the columnar trace representation (TraceColumns / as_arrays)."""

from array import array

import pytest

from repro.trace.record import AccessType, MemoryAccess
from repro.trace.stream import (
    TraceColumns,
    TraceStream,
    concat_traces,
    interleave_quantum,
    limit_trace,
    shift_addresses,
)
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

from conftest import make_trace


class TestColumnsFromRecords:
    def test_round_trip_preserves_every_field(self):
        records = [
            MemoryAccess(pc=0x400000 + 4 * i, address=0x1000 + 64 * i,
                         access_type=AccessType.STORE if i % 3 == 0 else AccessType.LOAD,
                         icount=3 * i)
            for i in range(50)
        ]
        columns = TraceColumns.from_records(records)
        rebuilt = TraceStream.from_columns(columns, name="rt")
        assert list(rebuilt) == records

    def test_as_arrays_is_cached(self):
        trace = make_trace([0x100, 0x200])
        assert trace.as_arrays() is trace.as_arrays()

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            TraceColumns([1], [1, 2], [0], [0])

    def test_negative_addresses_rejected_naming_the_first(self):
        with pytest.raises(ValueError, match="trace address 2 is negative"):
            TraceColumns(array("q", [0] * 4), array("q", [64, 128, -64, -1]),
                         array("b", [0] * 4), array("q", range(4)))

    def test_negative_address_traces_cannot_split_the_engines(self):
        """Regression: a negative tag aliased the caches' empty-way marker.

        Tag ``-1`` marks an invalid way, so 3000 negative addresses used
        to give 2954 L1 misses on the array-backed caches and 2962 on
        the legacy oracle's.
        Such traces are now rejected where their columns are built; the
        same pattern shifted into the legal domain agrees exactly.
        """
        from oracle import LegacySimulator

        from repro.api import build_predictor
        from repro.sim.trace_driven import TraceDrivenSimulator

        addresses = [-64 * ((7 * i) % 997) - 1 for i in range(3000)]
        pcs, writes, icounts = array("q", [0x400000] * 3000), array("b", [0] * 3000), array("q", range(3000))
        with pytest.raises(ValueError, match="trace address 0 is negative"):
            TraceColumns(pcs, array("q", addresses), writes, icounts)
        shifted = array("q", [a + (1 << 40) for a in addresses])
        trace = TraceStream.from_columns(TraceColumns(pcs, shifted, writes, icounts))
        results = [
            simulator(prefetcher=build_predictor("none")).run(trace)
            for simulator in (TraceDrivenSimulator, LegacySimulator)
        ]
        assert results[0].to_dict() == results[1].to_dict()

    def test_oversized_values_fall_back_to_lists(self):
        huge = 1 << 70
        records = [MemoryAccess(pc=0, address=huge, icount=0)]
        columns = TraceColumns.from_records(records)
        assert columns.address[0] == huge
        assert list(TraceStream.from_columns(columns))[0].address == huge


class TestDomainCheckedOnce:
    def test_derived_columns_are_not_rescanned(self, monkeypatch):
        traces = [  # columns checked here, from records
            TraceStream.from_columns(make_trace(addresses).as_arrays())
            for addresses in (range(0, 6400, 64), range(1 << 20, (1 << 20) + 3200, 32))
        ]
        scans = []
        check = TraceColumns.check_addresses
        monkeypatch.setattr(
            TraceColumns, "check_addresses", lambda columns: scans.append(len(columns)) or check(columns)
        )
        derived = [
            traces[0][10:40],
            limit_trace(traces[1], 30),
            shift_addresses(traces[0], 1 << 30),
            interleave_quantum(traces, [30, 30]),
            concat_traces(traces),
        ]
        assert scans == []
        assert [a.address for a in derived[2]] == [a.address + (1 << 30) for a in traces[0]]
        assert [len(trace) for trace in derived] == [30, 30, 100, 200, 200]

    def test_shifting_past_64_bits_still_falls_back_to_lists(self):
        trace = make_trace([0, 64])
        shifted = shift_addresses(trace, (1 << 63) - 32)
        assert shifted.as_arrays().address == [(1 << 63) - 32, (1 << 63) + 32]


class TestColumnarStream:
    def _columnar(self, addresses):
        return make_trace(addresses).as_arrays(), make_trace(addresses)

    def test_lazy_record_view_matches_objects(self):
        obj_trace = make_trace(range(0, 640, 64))
        col_trace = TraceStream.from_columns(obj_trace.as_arrays(), name=obj_trace.name)
        assert len(col_trace) == len(obj_trace)
        assert list(col_trace) == obj_trace.accesses
        assert col_trace[3] == obj_trace[3]
        assert col_trace[-1] == obj_trace[-1]
        assert col_trace.instruction_count == obj_trace.instruction_count

    def test_slicing_stays_columnar_and_correct(self):
        obj_trace = make_trace(range(0, 640, 64))
        col_trace = TraceStream.from_columns(obj_trace.as_arrays())
        sliced = col_trace[2:5]
        assert isinstance(sliced, TraceStream)
        assert [a.address for a in sliced] == [a.address for a in obj_trace[2:5]]

    def test_limit_trace_on_columnar_stream(self):
        col_trace = TraceStream.from_columns(make_trace(range(0, 640, 64)).as_arrays())
        limited = limit_trace(col_trace, 4)
        assert len(limited) == 4
        assert limit_trace(col_trace, 100) is col_trace

    def test_shift_addresses_on_columnar_stream(self):
        col_trace = TraceStream.from_columns(make_trace([0x100, 0x200]).as_arrays(), name="t")
        shifted = shift_addresses(col_trace, 1 << 20)
        assert [a.address for a in shifted] == [0x100 + (1 << 20), 0x200 + (1 << 20)]
        # Source stream is untouched; non-address columns are shared.
        assert [a.address for a in col_trace] == [0x100, 0x200]
        assert shifted.as_arrays().pc is col_trace.as_arrays().pc

    def test_unique_blocks_from_columns(self):
        col_trace = TraceStream.from_columns(make_trace([0x100, 0x104, 0x140, 0x180]).as_arrays())
        assert col_trace.unique_blocks(64) == 3

    def test_empty_columnar_stream(self):
        empty = TraceStream.from_columns(TraceColumns([], [], [], []), name="empty")
        assert len(empty) == 0
        assert empty.instruction_count == 0
        assert list(empty) == []


class TestWorkloadsGenerateColumnar:
    def test_generate_is_columnar_without_materialising_records(self):
        trace = get_workload("gzip", WorkloadConfig(num_accesses=2000, seed=42)).generate()
        assert trace._accesses is None  # no record objects were built
        assert len(trace.as_arrays()) == 2000

    def test_columnar_generate_matches_reference_loop(self):
        config = WorkloadConfig(num_accesses=1000, seed=42)
        trace = get_workload("mcf", config).generate()
        reference = get_workload("mcf", config)
        spacing = config.instructions_per_access
        icount = 0.0
        expected = []
        for i, (pc, address, is_write) in enumerate(reference.references()):
            if i >= 1000:
                break
            expected.append((pc, address, bool(is_write), int(icount)))
            icount += spacing
        actual = [(a.pc, a.address, a.is_write, a.icount) for a in trace]
        assert actual == expected

    def test_metadata_survives_columnar_generation(self):
        trace = get_workload("mcf", WorkloadConfig(num_accesses=500, seed=42)).generate()
        assert trace.metadata["seed"] == 42
        assert "core_ipc" in trace.metadata
