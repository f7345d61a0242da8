"""Fast-vs-legacy equivalence for the flat predictor rewrites.

The engine-equivalence suite already asserts end-to-end result identity
for every benchmark × predictor pair at default configurations; this
module targets the rewritten structures directly — the packed DBCP
correlation table, the flat GHB ring buffer, the stride RPT, the flat
history table and the columnar sequence storage — under *small*
configurations where LRU eviction, ring wrap-around and frame overwrite
actually occur, which the default sizes rarely reach in short traces.
"""

from contextlib import nullcontext

import pytest
from conftest import kernel_disabled
from hypothesis import given, settings, strategies as st

from repro.api import available_benchmarks, build_predictor

# One of the two slowest suites; skippable via `-m "not slow"` (pytest.ini).
pytestmark = pytest.mark.slow
from repro.cache.config import L1D_CONFIG
from repro.core.history import FastHistoryTable, HistoryTable
from repro.core.ltcords import FastLTCordsPrefetcher, LTCordsConfig, LTCordsPrefetcher
from repro.core.sequence_storage import (
    FastSequenceStorage,
    SequenceStorage,
    SequenceStorageConfig,
)
from repro.core.signatures import REALISTIC_SIGNATURES, LastTouchSignature
from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher, FastDBCPPrefetcher
from repro.prefetchers.ghb import FastGHBPrefetcher, GHBConfig, GHBPrefetcher
from repro.prefetchers.stride import FastStridePrefetcher, StrideConfig, StridePrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

_addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)
_pcs = st.integers(min_value=0, max_value=(1 << 32) - 1)


#: Small configurations that force eviction/wrap/overwrite behaviour.
_SMALL_CONFIGS = {
    "dbcp": DBCPConfig(table_entries=64),
    "ghb": GHBConfig(index_table_entries=8, ghb_entries=32, history_depth=6),
    "stride": StrideConfig(table_entries=8),
    "ltcords": LTCordsConfig(
        storage_config=SequenceStorageConfig(num_frames=16, fragment_size=32, head_lookahead=8)
    ),
}


def _run_pair(benchmark, predictor, config, num_accesses=4000, seed=42, interpreted=False):
    """Fast and legacy results plus their predictors.

    ``interpreted`` keeps the fast run off the compiled kernel, which
    settles the predictor's statistics but never fills its tables.
    """
    trace = get_workload(benchmark, WorkloadConfig(num_accesses=num_accesses, seed=seed)).generate()
    fast = TraceDrivenSimulator(
        prefetcher=build_predictor(predictor, config, engine="fast"), engine="fast"
    )
    legacy = TraceDrivenSimulator(
        prefetcher=build_predictor(predictor, config, engine="legacy"), engine="legacy"
    )
    with kernel_disabled() if interpreted else nullcontext():
        fast_result = fast.run(trace)
    return fast_result, legacy.run(trace), fast.prefetcher, legacy.prefetcher


class TestSmallConfigEquivalence:
    """Stress the capacity-eviction paths the default configs rarely hit."""

    @pytest.mark.parametrize("predictor", sorted(_SMALL_CONFIGS))
    @pytest.mark.parametrize("workload", ["mcf", "swim", "art", "gcc", "em3d"])
    def test_results_bit_identical(self, workload, predictor):
        fast, legacy, _, _ = _run_pair(workload, predictor, _SMALL_CONFIGS[predictor])
        assert fast.to_dict() == legacy.to_dict()

    def test_dbcp_internal_counters_match(self):
        fast, legacy, fast_p, legacy_p = _run_pair(
            "mcf", "dbcp", _SMALL_CONFIGS["dbcp"], interpreted=True
        )
        assert fast.to_dict() == legacy.to_dict()
        assert fast_p.dbcp_stats == legacy_p.dbcp_stats
        assert len(fast_p) == len(legacy_p)
        assert fast_p.table_utilization_bytes() == legacy_p.table_utilization_bytes()
        assert fast_p.stats == legacy_p.stats

    def test_ghb_internal_counters_match(self):
        fast, legacy, fast_p, legacy_p = _run_pair("swim", "ghb", _SMALL_CONFIGS["ghb"])
        assert fast.to_dict() == legacy.to_dict()
        assert fast_p.ghb_stats == legacy_p.ghb_stats
        assert fast_p.stats == legacy_p.stats

    def test_ltcords_internal_counters_match(self):
        fast, legacy, fast_p, legacy_p = _run_pair("em3d", "ltcords", _SMALL_CONFIGS["ltcords"])
        assert fast.to_dict() == legacy.to_dict()
        assert fast_p.ltstats == legacy_p.ltstats
        assert fast_p.storage.stats == legacy_p.storage.stats
        assert fast_p.stats == legacy_p.stats

    def test_stride_stats_match(self):
        fast, legacy, fast_p, legacy_p = _run_pair("swim", "stride", _SMALL_CONFIGS["stride"])
        assert fast.to_dict() == legacy.to_dict()
        assert fast_p.stats == legacy_p.stats


class TestEveryBenchmarkSmallTables:
    """One small-table sweep per rewritten predictor across all 28 benchmarks."""

    @pytest.mark.parametrize("workload", available_benchmarks())
    def test_dbcp_small_table(self, workload):
        fast, legacy, _, _ = _run_pair(workload, "dbcp", _SMALL_CONFIGS["dbcp"], num_accesses=1200)
        assert fast.to_dict() == legacy.to_dict()

    @pytest.mark.parametrize("workload", available_benchmarks())
    def test_ghb_small_buffer(self, workload):
        fast, legacy, _, _ = _run_pair(workload, "ghb", _SMALL_CONFIGS["ghb"], num_accesses=1200)
        assert fast.to_dict() == legacy.to_dict()

    @pytest.mark.parametrize("workload", available_benchmarks())
    def test_stride_small_table(self, workload):
        fast, legacy, _, _ = _run_pair(workload, "stride", _SMALL_CONFIGS["stride"], num_accesses=1200)
        assert fast.to_dict() == legacy.to_dict()

    @pytest.mark.parametrize("workload", available_benchmarks())
    def test_ltcords_small_storage(self, workload):
        fast, legacy, _, _ = _run_pair(workload, "ltcords", _SMALL_CONFIGS["ltcords"], num_accesses=1200)
        assert fast.to_dict() == legacy.to_dict()


class TestNarrowKeyEquivalence:
    """23-bit keys (REALISTIC_SIGNATURES) exercise the non-closed-fold
    fallback paths of the fast rewrites, which the 32-bit defaults never
    reach: FastHistoryTable's fold loop and the non-fused
    eviction/record branches of the fast DBCP and LT-cords closures."""

    @pytest.mark.parametrize("workload", ["mcf", "swim", "em3d"])
    def test_dbcp_realistic_signatures(self, workload):
        config = DBCPConfig(signature_config=REALISTIC_SIGNATURES, table_entries=256)
        fast, legacy, _, _ = _run_pair(workload, "dbcp", config)
        assert fast.to_dict() == legacy.to_dict()

    @pytest.mark.parametrize("workload", ["mcf", "em3d"])
    def test_ltcords_realistic_signatures(self, workload):
        config = LTCordsConfig(
            signature_config=REALISTIC_SIGNATURES,
            storage_config=SequenceStorageConfig(
                num_frames=32, fragment_size=64, head_lookahead=16,
                signature_config=REALISTIC_SIGNATURES,
            ),
        )
        fast, legacy, _, _ = _run_pair(workload, "ltcords", config)
        assert fast.to_dict() == legacy.to_dict()

    @given(st.lists(st.tuples(_pcs, _addresses), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_history_fold_loop_matches_legacy(self, stream):
        legacy = HistoryTable(L1D_CONFIG, REALISTIC_SIGNATURES)
        fast = FastHistoryTable(L1D_CONFIG, REALISTIC_SIGNATURES)
        for pc, address in stream:
            assert fast.observe_access(pc, address) == legacy.observe_access(pc, address)


class TestFastHistoryTable:
    @given(st.lists(st.tuples(_pcs, _addresses), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_access_keys_match_legacy(self, stream):
        legacy = HistoryTable(L1D_CONFIG)
        fast = FastHistoryTable(L1D_CONFIG)
        for pc, address in stream:
            assert fast.observe_access(pc, address) == legacy.observe_access(pc, address)
            assert fast.peek_key(address) == legacy.peek_key(address)
        assert fast.tracked_blocks() == legacy.tracked_blocks()

    @given(
        st.lists(
            st.tuples(st.booleans(), _pcs, _addresses, _addresses), min_size=1, max_size=300
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_access_eviction_streams_match(self, events):
        legacy = HistoryTable(L1D_CONFIG)
        fast = FastHistoryTable(L1D_CONFIG)
        for is_eviction, pc, address, replacement in events:
            if is_eviction:
                assert fast.observe_eviction(address, replacement) == legacy.observe_eviction(
                    address, replacement
                )
            else:
                assert fast.observe_access(pc, address) == legacy.observe_access(pc, address)
        assert fast.stats.evictions == legacy.stats.evictions
        assert fast.stats.cold_evictions == legacy.stats.cold_evictions


class TestFastSequenceStorage:
    def test_recording_and_streaming_match_legacy(self):
        config = SequenceStorageConfig(num_frames=8, fragment_size=16, head_lookahead=4)
        legacy = SequenceStorage(config)
        fast = FastSequenceStorage(config)
        pointers = []
        for i in range(200):
            key = (i * 2654435761) & 0xFFFFFFFF
            predicted = (i * 64) & ~63
            lp = legacy.record_signature(LastTouchSignature(key=key, predicted_address=predicted))
            fp = fast.record(key, predicted, 2)
            assert lp == fp
            pointers.append(fp)
            assert fast.lookup_head(key) == legacy.lookup_head(key)
        assert fast.num_allocated_frames == legacy.num_allocated_frames
        assert fast.total_signatures_stored() == legacy.total_signatures_stored()
        # Streaming reads return the same signature values and pointers.
        for frame_index in range(8):
            legacy_window = legacy.read_window(frame_index, 0, 16)
            fast_window = fast.read_window(frame_index, 0, 16)
            assert [
                (s.key, s.predicted_address, s.confidence, p) for s, p in legacy_window
            ] == list(fast_window)
        # Confidence write-back behaves identically, including stale pointers.
        for pointer in pointers[::7]:
            assert fast.update_confidence(pointer, 3) == legacy.update_confidence(pointer, 3)
            fast_sig = fast.signature_at(pointer)
            legacy_sig = legacy.signature_at(pointer)
            assert (fast_sig is None) == (legacy_sig is None)
            if fast_sig is not None:
                assert fast_sig == legacy_sig
        assert fast.stats == legacy.stats


class TestObservationSettlement:
    """The fast engine settles observation counters to the per-call totals."""

    @pytest.mark.parametrize("predictor", ["dbcp", "ghb", "ltcords", "stride"])
    def test_observation_counters_equal_legacy(self, predictor):
        trace = get_workload("mcf", WorkloadConfig(num_accesses=3000, seed=11)).generate()
        fast = TraceDrivenSimulator(
            prefetcher=build_predictor(predictor, engine="fast"), engine="fast"
        )
        legacy = TraceDrivenSimulator(
            prefetcher=build_predictor(predictor, engine="legacy"), engine="legacy"
        )
        fast.run(trace)
        legacy.run(trace)
        assert fast.prefetcher.stats == legacy.prefetcher.stats
