"""Whole-domain differential suite: every built-in predictor over drawn hierarchies.

The per-predictor suites (``test_baseline_kernel.py``,
``test_ltcords_kernel.py``) fix the hierarchy.  This suite draws it:

* an L1 and an L2 of 1-16 ways and 1-64 sets sharing one block size of
  16, 32, 64 or 128 bytes (the L2 may be smaller than the L1);
* any of the five built-in predictors, with tables down to one entry
  (DBCP's table also unlimited), GHB/stride block sizes independent of
  the hierarchy, DBCP/LT-cords history caches mostly at the L1's block
  size (any other replays interpreted), and signature widths of 8-63
  bits (keys under 32 bits fold open and replay interpreted);
* a request queue of 1-128 entries;
* traces of length 0, 1 or n mixing loops, strided streams and strays,
  placed anywhere in the non-negative 64-bit range (runs at or above
  2^54 leave the kernel with an ``address-range`` fallback).

For every draw the compiled kernel tier, the interpreted tier (the kill
switch) and the legacy oracle (``tests/oracle.py``) must agree on the result payload, the
per-access outcome column, the fill spill and every statistics object of
the predictor (``stats``, the history table's, ``dbcp_stats``,
``ltstats``, the sequence storage's, the signature cache's and
``ghb_stats``): the kernel settles into the same objects the interpreted
loop fills call by call.
"""

import dataclasses
from array import array

import pytest
from conftest import kernel_disabled
from oracle import LegacySimulator
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.core.signatures import SignatureConfig
from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceColumns, TraceStream

BLOCK_SIZES = [16, 32, 64, 128]
SETS = [1, 2, 4, 8, 16, 32, 64]
MAX_ADDRESS = (1 << 63) - 1
#: Addresses (and GHB/stride predictions) at or above this replay interpreted.
KERNEL_ADDRESS_LIMIT = 1 << 54
#: Offsets of a trace's references from its base address stay below this.
SPAN = 1 << 24

BUDGET = settings(
    max_examples=75, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cache_configs(draw, name, block_size):
    ways = draw(st.integers(1, 16))
    sets = draw(st.sampled_from(SETS))
    return CacheConfig(
        name=name, size_bytes=sets * ways * block_size, block_size=block_size, associativity=ways,
    )


@st.composite
def hierarchies(draw):
    block_size = draw(st.sampled_from(BLOCK_SIZES))
    return HierarchyConfig(
        l1=draw(cache_configs("L1", block_size)), l2=draw(cache_configs("L2", block_size)),
    )


def history_caches(l1_block_size):
    """The cache geometry a DBCP/LT-cords history table tracks.

    Three draws in four are at the L1's block size, as the kernel needs;
    the rest at any block size (another replays interpreted, a
    ``history-block`` fallback).
    """
    block_sizes = st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(BLOCK_SIZES) if k == 0 else st.just(l1_block_size)
    )
    return block_sizes.flatmap(lambda block: cache_configs("history", block))


signature_configs = st.builds(
    SignatureConfig,
    trace_hash_bits=st.integers(32, 63) | st.integers(8, 63),  # mostly closed folds
    address_tag_bits=st.integers(8, 63),
)


@st.composite
def confidence(draw):
    """``(threshold, initial, max)`` of a saturating confidence counter."""
    maximum = draw(st.integers(1, 3))
    return draw(st.integers(0, maximum)), draw(st.integers(0, maximum)), maximum


@st.composite
def dbcp_configs(draw, l1_block_size):
    threshold, initial, maximum = draw(confidence())
    return DBCPConfig(
        cache_config=draw(history_caches(l1_block_size)),
        signature_config=draw(signature_configs),
        table_entries=draw(st.one_of(st.none(), st.integers(1, 64))),
        confidence_threshold=threshold,
        initial_confidence=initial,
        max_confidence=maximum,
    )


@st.composite
def ltcords_configs(draw, l1_block_size):
    threshold, initial, maximum = draw(confidence())
    ways = draw(st.integers(1, 8))
    sets = draw(st.sampled_from([s for s in SETS if s * ways <= 64]))
    return LTCordsConfig(
        cache_config=draw(history_caches(l1_block_size)),
        signature_config=draw(signature_configs),
        signature_cache_config=SignatureCacheConfig(num_entries=sets * ways, associativity=ways),
        storage_config=SequenceStorageConfig(
            num_frames=draw(st.integers(1, 8)),
            unlimited_frames=draw(st.booleans()),
            fragment_size=draw(st.integers(1, 16)),
            head_lookahead=draw(st.integers(0, 8)),
        ),
        stream_window=draw(st.integers(1, 8)),
        fetch_delay_accesses=draw(st.integers(0, 8)),
        confidence_threshold=threshold,
        initial_confidence=initial,
        max_confidence=maximum,
    )


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

#: predictor name -> (kernel tier, class, config strategy given the L1 block size).
PREDICTORS = {
    "none": ("kernel-baseline", NullPrefetcher, lambda l1_block_size: st.none()),
    "dbcp": ("kernel-dbcp", DBCPPrefetcher, dbcp_configs),
    "ltcords": ("kernel-ltcords", LTCordsPrefetcher, ltcords_configs),
    "ghb": ("kernel-ghb", GHBPrefetcher, lambda l1_block_size: ghb_configs),
    "stride": ("kernel-stride", StridePrefetcher, lambda l1_block_size: stride_configs),
}
#: Every statistics object a built-in predictor may carry, by attribute path.
STATS = (
    "stats", "history.stats", "dbcp_stats", "ltstats", "storage.stats",
    "signature_cache.stats", "ghb_stats",
)


@st.composite
def domain_traces(draw):
    """Interleaved loops, strided streams and strays of length 0, 1 or n from a drawn base.

    Streams run in bursts from their own PCs, so loops recur (DBCP and
    LT-cords see their signatures again) and strides repeat (GHB and
    stride train).  The base is drawn from the whole non-negative 64-bit
    range: near zero, anywhere below the kernel's 2^54 limit, around the
    limit or above it.  Every reference lies within ``SPAN`` above it.
    """
    length = draw(st.integers(200, 400) | st.sampled_from([0, 1]))
    low, high = draw(st.sampled_from([
        (0, 1 << 20),
        (0, KERNEL_ADDRESS_LIMIT - SPAN),
        (KERNEL_ADDRESS_LIMIT - SPAN, KERNEL_ADDRESS_LIMIT),
        (KERNEL_ADDRESS_LIMIT, MAX_ADDRESS - SPAN),
    ]))
    base = draw(st.integers(low, high))
    num_streams = draw(st.integers(1, 6))
    kinds = draw(st.lists(
        st.sampled_from(["loop", "loop", "stride", "scatter"]),
        min_size=num_streams, max_size=num_streams,
    ))
    deltas = draw(st.lists(
        st.sampled_from([-128, -64, -16, 16, 64, 192]) | st.integers(-512, 512),
        min_size=num_streams, max_size=num_streams,
    ))
    loop_length = draw(st.integers(2, 48))
    # 8 KB apart, loop blocks crowd into one set of every drawn cache.
    spacing = draw(st.sampled_from([8192, 1024, 16]))
    burst = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 1 << 16))
    loop = [(k * 2654435761 + seed) % 64 for k in range(loop_length)]
    counts = [0] * num_streams
    pc, address, is_write = array("q"), array("q"), array("b")
    for i in range(length):
        s = i // burst % num_streams
        n = counts[s]
        counts[s] += 1
        origin = (s + 1) << 20  # one MB per stream; a downward stride stays inside it
        if kinds[s] == "loop":
            offset = origin + loop[(n + s) % len(loop)] * spacing
        elif kinds[s] == "stride":
            offset = origin + (1 << 19) + deltas[s] * n
        else:
            offset = origin + (n * 2654435761 + seed) % 4096 * 16
        # A scattered stream spreads over eight PCs: table pressure.
        pc.append(0x400000 + 4 * (s + (8 + n % 8 if kinds[s] == "scatter" else 0)))
        address.append(base + offset)
        is_write.append((i + seed) % 5 == 0)
    columns = TraceColumns(pc, address, is_write, array("q", range(0, 3 * length, 3)))
    return TraceStream.from_columns(columns, name="domain")


def _replay(cls, config, trace, hierarchy, queue_size, simulator=TraceDrivenSimulator):
    prefetcher = cls() if config is None else cls(config)
    sim = simulator(
        prefetcher=prefetcher, hierarchy_config=hierarchy, request_queue_size=queue_size,
        outcomes=array("b"),
    )
    result = sim.run(trace)
    return sim, (result.to_dict(), sim.outcomes, sim.fill_spill, _predictor_stats(prefetcher))


def _predictor_stats(prefetcher):
    """Each statistics object the predictor has, as ``{path: fields}``."""
    found = {}
    for path in STATS:
        value = prefetcher
        for name in path.split("."):
            value = getattr(value, name, None)
        if value is not None:
            found[path] = dataclasses.asdict(value)
    return found


def _check_tier(sim, predictor, config, trace):
    """The kernel run took the kernel unless the gate or the range sent it interpreted."""
    kernel_tier = PREDICTORS[predictor][0]
    if load_kernel() is None:
        assert sim.last_tier == "interpreted"
    elif predictor in ("dbcp", "ltcords") and config.signature_config.trace_hash_bits < 32:
        assert (sim.last_tier, sim.last_fallback) == ("interpreted", "open-fold")
    elif predictor in ("dbcp", "ltcords") and (
        config.cache_config.block_size != sim.hierarchy_config.l1.block_size
    ):
        assert (sim.last_tier, sim.last_fallback) == ("interpreted", "history-block")
    elif len(trace) and max(trace.as_arrays().address) >= KERNEL_ADDRESS_LIMIT:
        assert (sim.last_tier, sim.last_fallback) == ("interpreted", "address-range")
    elif predictor in ("ghb", "stride") and sim.last_fallback == "address-range":
        assert sim.last_tier == "interpreted"  # a prediction crossed 2^54
    else:
        assert (sim.last_tier, sim.last_fallback) == (kernel_tier, None)


def _agree(predictor, config, trace, hierarchy, queue_size):
    _, cls, _ = PREDICTORS[predictor]
    sim, kernel = _replay(cls, config, trace, hierarchy, queue_size)
    _check_tier(sim, predictor, config, trace)
    with kernel_disabled():
        interpreted_sim, interpreted = _replay(cls, config, trace, hierarchy, queue_size)
    assert interpreted_sim.last_tier == "interpreted"
    _, reference = _replay(cls, config, trace, hierarchy, queue_size, simulator=LegacySimulator)
    assert kernel == interpreted
    assert kernel == reference
    return sim, kernel


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
@BUDGET
@given(data=st.data(), hierarchy=hierarchies(), trace=domain_traces(),
       queue_size=st.integers(1, 128))
def test_every_tier_agrees_over_the_domain(predictor, data, hierarchy, trace, queue_size):
    config = data.draw(PREDICTORS[predictor][2](hierarchy.l1.block_size), label="config")
    _agree(predictor, config, trace, hierarchy, queue_size)


@pytest.mark.parametrize(
    "address", [0, KERNEL_ADDRESS_LIMIT - 1, KERNEL_ADDRESS_LIMIT, MAX_ADDRESS]
)
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_domain_edges_agree(predictor, address):
    """The smallest and largest addresses, alone and as the last of a short stream.

    One-entry tables and one-block caches throughout; LT-cords folds its
    signatures open.
    """
    hierarchy = HierarchyConfig(
        l1=CacheConfig(name="L1", size_bytes=16, block_size=16, associativity=1),
        l2=CacheConfig(name="L2", size_bytes=16, block_size=16, associativity=1),
    )
    config = {
        "none": None,
        "dbcp": DBCPConfig(table_entries=1),
        "ltcords": LTCordsConfig(  # an open fold
            signature_config=SignatureConfig(trace_hash_bits=8, address_tag_bits=8),
            signature_cache_config=SignatureCacheConfig(num_entries=1, associativity=1),
        ),
        "ghb": GHBConfig(index_table_entries=1, ghb_entries=1, history_depth=3),
        "stride": StrideConfig(table_entries=1, train_threshold=1),
    }[predictor]
    for length in (1, 8):
        addresses = [max(0, address - 16 * (length - 1 - i)) for i in range(length)]
        trace = TraceStream.from_columns(TraceColumns(
            array("q", [0x400000] * length), array("q", addresses),
            array("b", bytes(length)), array("q", range(length)),
        ), name="edge")
        _agree(predictor, config, trace, hierarchy, 1)


def test_dbcp_confidence_must_fit_eight_bits():
    """The kernel packs a DBCP entry as (predicted << 8) | confidence."""
    with pytest.raises(ValueError, match="8-bit"):
        DBCPConfig(max_confidence=256)


def test_dbcp_eight_bit_confidence_agrees():
    """The widest legal counter (255) saturates identically on every tier."""
    hierarchy = HierarchyConfig(
        l1=CacheConfig(name="L1", size_bytes=1024, block_size=64, associativity=2),
        l2=CacheConfig(name="L2", size_bytes=4096, block_size=64, associativity=4),
    )
    config = DBCPConfig(
        cache_config=hierarchy.l1, table_entries=64,
        confidence_threshold=2, initial_confidence=253, max_confidence=255,
    )
    n = 3000
    blocks = [(37 * k + 5) % 4096 for k in range(40)]
    trace = TraceStream.from_columns(TraceColumns(
        array("q", [0x400000 + 4 * (i % 40 % 13) for i in range(n)]),
        array("q", [blocks[i % 40] * 64 for i in range(n)]),
        array("b", bytes(n)), array("q", range(0, 3 * n, 3)),
    ), name="loop")
    sim, (result, _, _, stats) = _agree("dbcp", config, trace, hierarchy, 128)
    if load_kernel() is not None:
        assert sim.last_tier == "kernel-dbcp"
    assert stats["stats"]["prefetches_used"] > 2  # the counter reached 255 and stayed
    assert result["breakdown"]["correct"] > 0
