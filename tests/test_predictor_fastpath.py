"""Replay-vs-legacy-oracle equivalence for the predictor structures under pressure.

The engine-equivalence suite already asserts end-to-end result identity
for every benchmark × predictor pair at default configurations; this
module drives each predictor's structures — the LRU DBCP correlation
table, the GHB ring buffer, the stride RPT, the block-keyed history
table and the sequence storage — under *small* configurations where LRU
eviction, ring wrap-around and frame overwrite actually occur, which the
default sizes rarely reach in short traces.  Both sides build the same
predictor class; the package replays it on the compiled kernel (or its
interpreted loop), the legacy oracle (``tests/oracle.py``) on the
object-per-access loop.
"""

from contextlib import nullcontext

import pytest
from conftest import PerSetHistoryModel, kernel_disabled
from oracle import LegacySimulator
from hypothesis import given, settings, strategies as st

from repro.api import available_benchmarks, build_predictor

# One of the two slowest suites; skippable via `-m "not slow"` (pytest.ini).
pytestmark = pytest.mark.slow
from repro.cache.config import L1D_CONFIG
from repro.core.history import HistoryTable
from repro.core.ltcords import LTCordsConfig
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signatures import REALISTIC_SIGNATURES
from repro.prefetchers.dbcp import DBCPConfig
from repro.prefetchers.ghb import GHBConfig
from repro.prefetchers.stride import StrideConfig
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
    fast = TraceDrivenSimulator(prefetcher=build_predictor(predictor, config))
    legacy = LegacySimulator(prefetcher=build_predictor(predictor, config))
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
    """23-bit keys (REALISTIC_SIGNATURES) take the history table's fold
    loop, which the 32-bit defaults never reach, and keep DBCP and
    LT-cords off the kernel (an ``open-fold`` fallback)."""

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
        legacy = PerSetHistoryModel(L1D_CONFIG, REALISTIC_SIGNATURES)
        fast = HistoryTable(L1D_CONFIG, REALISTIC_SIGNATURES)
        for pc, address in stream:
            assert fast.observe_access(pc, address) == legacy.observe_access(pc, address)


class TestFastHistoryTable:
    """The flat block-keyed :class:`HistoryTable` against the per-set model."""

    @given(st.lists(st.tuples(_pcs, _addresses), min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_access_keys_match_legacy(self, stream):
        legacy = PerSetHistoryModel(L1D_CONFIG)
        fast = HistoryTable(L1D_CONFIG)
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
        legacy = PerSetHistoryModel(L1D_CONFIG)
        fast = HistoryTable(L1D_CONFIG)
        for is_eviction, pc, address, replacement in events:
            if is_eviction:
                assert fast.observe_eviction(address, replacement) == legacy.observe_eviction(
                    address, replacement
                )
            else:
                assert fast.observe_access(pc, address) == legacy.observe_access(pc, address)
        assert fast.stats.evictions == legacy.evictions
        assert fast.stats.cold_evictions == legacy.cold_evictions
        assert fast.tracked_blocks() == legacy.tracked_blocks()


class TestObservationSettlement:
    """The kernel settles observation counters to the legacy per-call totals."""

    @pytest.mark.parametrize("predictor", ["dbcp", "ghb", "ltcords", "stride"])
    def test_observation_counters_equal_legacy(self, predictor):
        trace = get_workload("mcf", WorkloadConfig(num_accesses=3000, seed=11)).generate()
        fast = TraceDrivenSimulator(prefetcher=build_predictor(predictor))
        legacy = LegacySimulator(prefetcher=build_predictor(predictor))
        fast.run(trace)
        legacy.run(trace)
        assert fast.prefetcher.stats == legacy.prefetcher.stats
