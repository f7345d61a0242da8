"""Tests for the content-addressed binary trace store (repro.trace.store)."""

import json
import struct
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.l1pass import l1_outcomes
from repro.api import build_predictor
from repro.cache.config import L1D_CONFIG
from repro.cache.vector import load_kernel
from repro.obs.metrics import REGISTRY
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.store import (
    _HEADER_STRUCT,
    _MAGIC,
    TRACE_FORMAT_VERSION,
    TraceStore,
    TraceStoreError,
    load_or_generate_trace,
    read_trace_file,
    read_trace_header,
    trace_key,
    write_trace_file,
)
from repro.trace.stream import TraceColumns, TraceStream, concat_traces, interleave_quantum
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

_int64 = st.integers(min_value=0, max_value=(1 << 62) - 1)

_references = st.lists(
    st.tuples(_int64, _int64, st.booleans(), _int64), min_size=0, max_size=200
)


def _stream_from_refs(refs, name="trace", metadata=None):
    from array import array

    pc = array("q", (r[0] for r in refs))
    address = array("q", (r[1] for r in refs))
    is_write = array("b", (1 if r[2] else 0 for r in refs))
    icount = array("q", (r[3] for r in refs))
    return TraceStream.from_columns(
        TraceColumns(pc, address, is_write, icount), name=name, metadata=metadata
    )


class TestBinaryFormat:
    @given(refs=_references)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_exact(self, tmp_path_factory, refs):
        path = tmp_path_factory.mktemp("rt") / "t.rtrc"
        original = _stream_from_refs(refs, name="prop", metadata={"seed": 7, "k": "v"})
        write_trace_file(original, path)
        loaded = read_trace_file(path)
        assert loaded.name == original.name
        assert loaded.metadata == original.metadata
        a, b = original.as_arrays(), loaded.as_arrays()
        assert list(a.pc) == list(b.pc)
        assert list(a.address) == list(b.address)
        assert list(a.is_write) == list(b.is_write)
        assert list(a.icount) == list(b.icount)

    def test_record_view_survives_round_trip(self, tmp_path):
        trace = get_workload("gzip", WorkloadConfig(num_accesses=500, seed=1)).generate()
        path = write_trace_file(trace, tmp_path / "gzip.rtrc")
        loaded = read_trace_file(path)
        assert [
            (a.pc, a.address, a.is_write, a.icount) for a in loaded
        ] == [(a.pc, a.address, a.is_write, a.icount) for a in trace]
        assert loaded.instruction_count == trace.instruction_count

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        write_trace_file(_stream_from_refs([(1, 2, False, 3)]), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceStoreError, match="magic"):
            read_trace_file(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "trunc.rtrc"
        write_trace_file(_stream_from_refs([(1, 2, False, 3)] * 10), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TraceStoreError, match="truncated"):
            read_trace_file(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trunc.rtrc"
        write_trace_file(_stream_from_refs([(1, 2, False, 3)]), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceStoreError):
            read_trace_file(path)

    def test_corrupt_header_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.rtrc"
        write_trace_file(_stream_from_refs([(1, 2, False, 3)]), path)
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # first header-JSON byte
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceStoreError):
            read_trace_file(path)

    def test_cross_version_refused(self, tmp_path):
        path = tmp_path / "future.rtrc"
        write_trace_file(_stream_from_refs([(1, 2, False, 3)]), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 8, TRACE_FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceStoreError, match="format"):
            read_trace_file(path)
        with pytest.raises(TraceStoreError):
            read_trace_header(path)

    def test_empty_trace_round_trips(self, tmp_path):
        path = write_trace_file(_stream_from_refs([]), tmp_path / "empty.rtrc")
        assert len(read_trace_file(path)) == 0


class TestTraceStore:
    def test_generate_once_then_hit(self, tmp_path):
        store = TraceStore(tmp_path)
        config = WorkloadConfig(num_accesses=800, seed=42)
        first = store.load_or_generate("mcf", config)
        second = store.load_or_generate("mcf", config)
        assert store.stats.generated == 1
        assert store.stats.hits == 1
        a, b = first.as_arrays(), second.as_arrays()
        assert list(a.address) == list(b.address)
        assert first.metadata == second.metadata

    def test_loaded_equals_generated_exactly(self, tmp_path):
        store = TraceStore(tmp_path)
        config = WorkloadConfig(num_accesses=600, seed=9)
        store.load_or_generate("em3d", config)
        loaded = store.load_or_generate("em3d", config)
        generated = get_workload("em3d", config).generate()
        a, b = generated.as_arrays(), loaded.as_arrays()
        assert list(a.pc) == list(b.pc)
        assert list(a.address) == list(b.address)
        assert list(a.is_write) == list(b.is_write)
        assert list(a.icount) == list(b.icount)
        assert generated.metadata == loaded.metadata
        assert generated.name == loaded.name

    def test_shorter_request_served_as_prefix(self, tmp_path):
        store = TraceStore(tmp_path)
        store.load_or_generate("swim", WorkloadConfig(num_accesses=1000, seed=5))
        short = store.load_or_generate("swim", WorkloadConfig(num_accesses=400, seed=5))
        assert store.stats.prefix_hits == 1
        assert store.stats.generated == 1
        generated = get_workload("swim", WorkloadConfig(num_accesses=400, seed=5)).generate()
        assert list(short.as_arrays().address) == list(generated.as_arrays().address)
        assert len(short) == 400

    def test_different_seed_not_served_as_prefix(self, tmp_path):
        store = TraceStore(tmp_path)
        store.load_or_generate("swim", WorkloadConfig(num_accesses=500, seed=5))
        store.load_or_generate("swim", WorkloadConfig(num_accesses=300, seed=6))
        assert store.stats.prefix_hits == 0
        assert store.stats.generated == 2

    def test_corrupt_entry_is_a_miss_and_gets_rewritten(self, tmp_path):
        store = TraceStore(tmp_path)
        config = WorkloadConfig(num_accesses=300, seed=2)
        path = store.path_for("gzip", config)
        store.load_or_generate("gzip", config)
        path.write_bytes(b"garbage")
        trace = store.load_or_generate("gzip", config)
        assert store.stats.invalid == 1
        assert len(trace) == 300
        # The rewritten entry is readable again.
        assert len(read_trace_file(path)) == 300

    def test_entries_clean_and_size(self, tmp_path):
        store = TraceStore(tmp_path)
        store.load_or_generate("mcf", WorkloadConfig(num_accesses=200, seed=1))
        store.load_or_generate("gzip", WorkloadConfig(num_accesses=200, seed=1))
        entries = store.entries()
        assert sorted(e.benchmark for e in entries) == ["gzip", "mcf"]
        assert all(e.num_accesses == 200 and e.seed == 1 for e in entries)
        assert store.size_bytes() > 0
        assert store.clean() == 2
        assert store.entries() == []

    def test_key_folds_format_version(self):
        config = WorkloadConfig(num_accesses=100, seed=1)
        key = trace_key("mcf", config)
        assert key != trace_key("mcf", WorkloadConfig(num_accesses=101, seed=1))
        assert key != trace_key("mcf", WorkloadConfig(num_accesses=100, seed=2))
        assert key != trace_key("gzip", config)

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "elsewhere"))
        config = WorkloadConfig(num_accesses=150, seed=3)
        load_or_generate_trace("mcf", config)
        assert TraceStore().entries()  # resolved under the override
        monkeypatch.setenv("REPRO_NO_TRACE_STORE", "1")
        before = sum(1 for _ in (tmp_path / "elsewhere").rglob("*.rtrc"))
        load_or_generate_trace("gzip", config)
        after = sum(1 for _ in (tmp_path / "elsewhere").rglob("*.rtrc"))
        assert after == before  # bypassed: nothing new stored


class TestStoreBackedSimulation:
    def test_simulation_identical_with_and_without_store(self, tmp_path):
        from repro.api import build_predictor
        from repro.sim.trace_driven import simulate_benchmark

        stored = simulate_benchmark(
            "mcf",
            build_predictor("dbcp"),
            num_accesses=2000,
            trace_store=TraceStore(tmp_path),
        )
        # Second run replays the mmap-loaded trace.
        loaded = simulate_benchmark(
            "mcf",
            build_predictor("dbcp"),
            num_accesses=2000,
            trace_store=TraceStore(tmp_path),
        )
        fresh = simulate_benchmark(
            "mcf", build_predictor("dbcp"), num_accesses=2000, trace_store=TraceStore(tmp_path / "x")
        )
        assert stored.to_dict() == loaded.to_dict() == fresh.to_dict()


_NEGATIVE = (
    array("q", [0x400000] * 3), array("q", [0x1000, -64, 0x2000]), array("b", [0] * 3),
    array("q", [0, 3, 6]),
)


def _negative_address_file(path, version=TRACE_FORMAT_VERSION):
    """A store file whose payload holds address -64 at position 1.

    At format v2 the header CRC covers that payload, so the file verifies;
    at v1 the header carries no CRC.
    """
    write_trace_file(TraceStream.from_columns(TraceColumns._trusted(*_NEGATIVE)), path)
    if version == 1:
        raw = path.read_bytes()
        _, _, _, header_len = _HEADER_STRUCT.unpack(raw[: _HEADER_STRUCT.size])
        header = json.loads(raw[_HEADER_STRUCT.size : _HEADER_STRUCT.size + header_len])
        del header["crc32"]
        header_json = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        payload = raw[_HEADER_STRUCT.size + header_len :]
        path.write_bytes(_HEADER_STRUCT.pack(_MAGIC, 1, 0, len(header_json)) + header_json + payload)
    return path


class TestAddressDomain:
    """The address domain is checked where columns come from unchecked data.

    A CRC-verified store payload skips the scan; every Python consumer that
    feeds addresses into a cache checks what it receives, and the kernel's
    range gate sends a negative address to them (``address-range``).
    """

    def _message(self):
        with pytest.raises(ValueError) as error:
            TraceColumns(*_NEGATIVE)
        return str(error.value)

    @pytest.mark.filterwarnings("ignore:.*fell back from the compiled kernel:RuntimeWarning")
    def test_verified_file_loads_and_every_tier_rejects_its_negative_address(self, tmp_path):
        trace = read_trace_file(_negative_address_file(tmp_path / "neg.rtrc"))
        assert list(trace.as_arrays().address) == list(_NEGATIVE[1])
        message = self._message()
        counter = REGISTRY.counter("replay.fallback.address-range")
        before = counter.value
        sim = TraceDrivenSimulator(prefetcher=build_predictor("none"))
        with pytest.raises(ValueError) as error:
            sim.replay(trace)
        assert str(error.value) == message
        if load_kernel() is not None:
            assert sim.last_fallback == "address-range"
            assert counter.value == before + 1
        with pytest.raises(ValueError) as error:
            l1_outcomes(trace.as_arrays(), L1D_CONFIG)
        assert str(error.value) == message

    def test_v1_file_rejects_a_negative_address_at_load(self, tmp_path):
        path = _negative_address_file(tmp_path / "neg.rtrc", version=1)
        with pytest.raises(ValueError, match="trace address 1 is negative"):
            read_trace_file(path)

    def test_unverified_read_rejects_a_negative_address_at_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "never")
        path = _negative_address_file(tmp_path / "neg.rtrc")
        with pytest.raises(ValueError, match="trace address 1 is negative"):
            read_trace_file(path)

    def test_warm_store_kernel_replays_scan_no_address_column(self, tmp_path, monkeypatch):
        from repro.sim.multiprogram import _simulate_pair

        if load_kernel() is None:
            pytest.skip("the compiled kernel is unavailable")
        store = TraceStore(tmp_path)
        config = WorkloadConfig(num_accesses=3000)
        store.prewarm(["mcf", "gzip"], [config])
        scans = []
        check = TraceColumns.check_addresses
        monkeypatch.setattr(
            TraceColumns, "check_addresses", lambda columns: scans.append(len(columns)) or check(columns)
        )
        sim = TraceDrivenSimulator(prefetcher=build_predictor("ltcords"))
        sim.replay(store.load_or_generate("mcf", config))
        assert sim.last_tier == "kernel-ltcords"
        sim = TraceDrivenSimulator(prefetcher=build_predictor("dbcp"))
        sim.replay(store.load_or_generate("mcf", WorkloadConfig(num_accesses=1000)))  # a prefix hit
        assert sim.last_tier == "kernel-dbcp"
        _simulate_pair("mcf", "gzip", num_accesses=3000, trace_store=store)  # shifted, interleaved
        assert scans == []

    def test_interleaving_and_concatenating_loaded_traces_stays_array(self, tmp_path):
        store = TraceStore(tmp_path)
        config = WorkloadConfig(num_accesses=500)
        store.prewarm(["gcc", "mcf"], [config])
        loaded = [store.load_or_generate(name, config) for name in ("gcc", "mcf")]
        generated = [get_workload(name, config).generate() for name in ("gcc", "mcf")]
        for combine in (lambda traces: interleave_quantum(traces, [300, 300]), concat_traces):
            got, want = combine(loaded).as_arrays(), combine(generated).as_arrays()
            for name, typecode in (("pc", "q"), ("address", "q"), ("is_write", "b"), ("icount", "q")):
                column = getattr(got, name)
                assert isinstance(column, array) and column.typecode == typecode, name
                assert list(column) == list(getattr(want, name)), name


class TestCli:
    def test_prewarm_list_clean(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        root = str(tmp_path / "store")
        assert main(["--root", root, "prewarm", "--benchmark", "mcf", "--accesses", "300"]) == 0
        assert main(["--root", root, "list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "300" in out
        assert main(["--root", root, "clean"]) == 0
        assert TraceStore(root).entries() == []

    def test_prewarm_rejects_unknown_benchmark(self, tmp_path):
        from repro.trace.__main__ import main

        assert main(["--root", str(tmp_path), "prewarm", "--benchmark", "nope"]) == 2
