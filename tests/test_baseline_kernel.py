"""Differential suite: GHB PC/DC and stride on the compiled kernel vs interpreted vs legacy.

Hypothesis draws small GHB configurations — index tables of 1-64 PCs,
histories of 1-64 misses, degrees of 1-8, chain depths of 3-16 and
predictor block sizes of 16-128 bytes against the hierarchy's 64 — and
small stride tables of 1-16 PCs at degrees of 1-8 and training
thresholds of 1-3, each behind a request queue of 1-8 entries so
multi-command accesses drop requests.  The traces, of 0-1500
references, interleave strided and delta-pattern streams (either
direction), pointer chases and scattered references, several of them
sharing one PC, over a tiny hierarchy that evicts constantly.  The compiled kernel, the interpreted
fast loop and the legacy object model must agree on the result payload,
the predictor statistics, every cache's statistics, the request-queue
counters and the per-access outcome column.
"""

import dataclasses
from array import array

import pytest
from conftest import kernel_disabled
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceColumns, TraceStream

HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="L1-tiny", size_bytes=1024, block_size=64, associativity=2),
    l2=CacheConfig(name="L2-tiny", size_bytes=4096, block_size=64, associativity=4),
)
BLOCK_SIZES = [16, 32, 64, 128]
BUDGET = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
PREDICTORS = {"ghb": GHBPrefetcher, "stride": StridePrefetcher}

ghb_configs = st.builds(
    GHBConfig,
    index_table_entries=st.integers(1, 64),
    ghb_entries=st.integers(1, 64),
    degree=st.integers(1, 8),
    history_depth=st.integers(3, 16),
    block_size=st.sampled_from(BLOCK_SIZES),
)
stride_configs = st.builds(
    StrideConfig,
    table_entries=st.integers(1, 16),
    degree=st.integers(1, 8),
    block_size=st.sampled_from(BLOCK_SIZES),
    train_threshold=st.integers(1, 3),
)


deltas = st.one_of(st.sampled_from([-192, -128, -64, 64, 128, 256]), st.integers(-512, 512))


@st.composite
def mixed_traces(draw):
    """Interleaved delta-pattern, pointer-chase and scattered streams.

    A pattern stream cycles through 1-4 deltas: a constant stride (either
    direction) or a repeating delta sequence for PC/DC to correlate.
    Streams run in bursts, so per-PC miss histories build up.
    """
    length = draw(st.integers(0, 1500))
    num_streams = draw(st.integers(1, 12))
    num_pcs = draw(st.integers(1, num_streams))  # fewer PCs than streams: aliasing
    kinds = draw(st.lists(
        st.sampled_from(["pattern", "pattern", "chase", "scatter"]),
        min_size=num_streams, max_size=num_streams,
    ))
    patterns = draw(st.lists(
        st.lists(deltas, min_size=1, max_size=4), min_size=num_streams, max_size=num_streams,
    ))
    chase = draw(st.lists(st.integers(0, 4095), min_size=2, max_size=48))
    burst = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 1 << 16))
    offsets = [0] * num_streams
    counts = [0] * num_streams
    pc, address, is_write = array("q"), array("q"), array("b")
    for i in range(length):
        s = (i // burst + (i * 2654435761 + seed) % 3 // 2) % num_streams
        n = counts[s]
        counts[s] += 1
        origin = (s + 1) << 22  # a downward stream stays far above zero
        if kinds[s] == "pattern":
            offsets[s] += patterns[s][n % len(patterns[s])]
            value = origin + offsets[s]
        elif kinds[s] == "chase":
            value = origin + chase[(n * 5 + s) % len(chase)] * 64
        else:
            value = origin + (n * 2654435761 + seed) % 4096 * 16
        # A scattered stream spreads over eight PCs: index-table pressure.
        pc.append(0x400000 + 4 * (s % num_pcs + (16 + n % 8 if kinds[s] == "scatter" else 0)))
        address.append(value)
        is_write.append((i + seed) % 5 == 0)
    columns = TraceColumns(pc, address, is_write, array("q", range(0, 3 * length, 3)))
    return TraceStream.from_columns(columns, name="mixed")


def _replay(prefetcher, trace, queue_size, engine="fast"):
    sim = TraceDrivenSimulator(
        prefetcher=prefetcher, hierarchy_config=HIERARCHY, request_queue_size=queue_size,
        engine=engine, outcomes=array("b"),
    )
    result = sim.run(trace)
    queue = sim.request_queue
    return sim, (
        result.to_dict(),
        dataclasses.asdict(prefetcher.stats),
        dataclasses.asdict(prefetcher.ghb_stats) if hasattr(prefetcher, "ghb_stats") else None,
        [dataclasses.asdict(cache.stats) for hierarchy in (sim.hierarchy, sim.baseline)
         for cache in (hierarchy.l1, hierarchy.l2)],
        (queue.enqueued, queue.dropped, queue.issued),
        (sim.outcomes, sim.fill_spill),
    )


def _agree(predictor, config, trace, queue_size):
    cls = PREDICTORS[predictor]
    sim, kernel = _replay(cls(config), trace, queue_size)
    if load_kernel() is not None:
        assert sim.last_tier == f"kernel-{predictor}"
    with kernel_disabled():
        interpreted_sim, interpreted = _replay(cls(config), trace, queue_size)
    assert interpreted_sim.last_tier == "interpreted"
    _, reference = _replay(cls(config), trace, queue_size, engine="legacy")
    assert kernel == interpreted
    assert kernel == reference
    return kernel


@BUDGET
@given(config=ghb_configs, trace=mixed_traces(), queue_size=st.integers(1, 8))
def test_ghb_kernel_interpreted_and_legacy_agree(config, trace, queue_size):
    _agree("ghb", config, trace, queue_size)


@BUDGET
@given(config=stride_configs, trace=mixed_traces(), queue_size=st.integers(1, 8))
def test_stride_kernel_interpreted_and_legacy_agree(config, trace, queue_size):
    _agree("stride", config, trace, queue_size)


@pytest.mark.parametrize("length", [0, 1])
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_empty_and_one_access_traces_agree(predictor, length):
    trace = _strided(1 << 30, 64, length)
    config = GHBConfig() if predictor == "ghb" else StrideConfig()
    _agree(predictor, config, trace, 1)


def _strided(start, step, n, pcs=1):
    return TraceStream.from_columns(TraceColumns(
        array("q", [0x400000 + 4 * (i % pcs) for i in range(n)]),
        array("q", [start + step * i for i in range(n)]),
        array("b", bytes(n)),
        array("q", range(0, 3 * n, 3)),
    ), name="strided")


def test_strided_trace_reaches_correlation_drops_and_feedback():
    """One fixed example per predictor with every kernel path busy."""
    trace = _strided(1 << 30, 192, 3000, pcs=2)
    ghb = _agree("ghb", GHBConfig(degree=6, ghb_entries=32, history_depth=8), trace, 3)
    result, stats, ghb_stats, _, (enqueued, dropped, issued), _ = ghb
    assert ghb_stats["delta_correlations"] > 0 and ghb_stats["chains_too_short"] > 0
    assert dropped > 0 and enqueued == dropped + issued
    assert stats["prefetches_used"] > 0 and result["breakdown"]["correct"] > 0
    stride = _agree("stride", StrideConfig(degree=4), trace, 2)
    assert stride[4][1] > 0 and stride[1]["prefetches_used"] > 0


def test_a_hot_pc_keeps_its_table_entry_under_pressure():
    """Every probe refreshes a PC's LRU position: a hot stream outlives the others."""
    n = 2000
    hot = [(0x400000, (1 << 30) + 128 * k) for k in range(n // 2)]
    cold = [(0x400000 + 4 * (k % 3 + 1), ((k % 3 + 1) << 24) + (k * 2654435761) % 4096 * 64)
            for k in range(n // 2)]
    rows = [row for pair in zip(hot, cold) for row in pair]
    trace = TraceStream.from_columns(TraceColumns(
        array("q", [pc for pc, _ in rows]), array("q", [address for _, address in rows]),
        array("b", bytes(n)), array("q", range(0, 3 * n, 3)),
    ), name="hot")
    _, stats, _, _, _, _ = _agree("stride", StrideConfig(table_entries=2), trace, 4)
    assert stats["prefetches_used"] > 0
    _, stats, _, _, _, _ = _agree("ghb", GHBConfig(index_table_entries=2), trace, 4)
    assert stats["prefetches_used"] > 0


def test_predictions_past_the_kernel_range_fall_back_bit_identically():
    """Addresses just below 2^54 whose predictions cross it replay interpreted."""
    trace = _strided((1 << 54) - 64 * 400, 64, 400)
    for predictor, config in (("ghb", GHBConfig()), ("stride", StrideConfig(degree=8))):
        cls = PREDICTORS[predictor]
        sim, kernel = _replay(cls(config), trace, 128)
        if load_kernel() is not None:
            assert sim.last_fallback == "address-range"
        assert sim.last_tier == "interpreted"
        _, reference = _replay(cls(config), trace, 128, engine="legacy")
        assert kernel == reference
