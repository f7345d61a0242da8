"""Differential suite: LT-cords on the compiled kernel vs interpreted vs legacy.

Hypothesis draws small LT-cords configurations — signature caches of
1-64 entries at 1-8 ways, 1-8 frames or unlimited frames, fragments of
1-16 signatures, short head-lookahead and streaming windows, and fetch
delays of 0-8 references — and traces of length 0, 1 and n over a small
hierarchy that evicts constantly.  The traces loop over a handful of
blocks, so heads recur, fragments stream and prefetches are used and
evicted unused within a few hundred references.  The compiled kernel,
the interpreted fast loop and the legacy engine must agree on the result
payload and on every statistics object of the predictor.
"""

import dataclasses
import os
import subprocess
import sys
from array import array

from conftest import kernel_disabled
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceColumns, TraceStream

HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="L1-tiny", size_bytes=1024, block_size=64, associativity=2),
    l2=CacheConfig(name="L2-tiny", size_bytes=4096, block_size=64, associativity=4),
)


@st.composite
def ltcords_configs(draw):
    ways = draw(st.integers(1, 8))
    sets = draw(st.sampled_from([s for s in (1, 2, 4, 8, 16, 32, 64) if s * ways <= 64]))
    max_confidence = draw(st.integers(1, 3))
    return LTCordsConfig(
        cache_config=HIERARCHY.l1,
        signature_cache_config=SignatureCacheConfig(num_entries=sets * ways, associativity=ways),
        storage_config=SequenceStorageConfig(
            num_frames=draw(st.integers(1, 8)),
            unlimited_frames=draw(st.booleans()),
            fragment_size=draw(st.integers(1, 16)),
            head_lookahead=draw(st.integers(1, 8)),
        ),
        stream_window=draw(st.integers(1, 8)),
        fetch_delay_accesses=draw(st.integers(0, 8)),
        confidence_threshold=draw(st.integers(0, max_confidence)),
        initial_confidence=draw(st.integers(0, max_confidence)),
        max_confidence=max_confidence,
    )


@st.composite
def looping_traces(draw):
    """A loop over a few blocks with occasional strays, of length 0, 1 or n."""
    length = draw(st.sampled_from([0, 1, draw(st.integers(2, 1500))]))
    num_blocks = draw(st.integers(4, 48))
    blocks = draw(st.lists(st.integers(0, 1 << 24), min_size=num_blocks, max_size=num_blocks))
    pcs = draw(st.lists(st.integers(0, 15), min_size=num_blocks, max_size=num_blocks))
    seed = draw(st.integers(0, 1 << 16))
    pc, address, is_write = array("q"), array("q"), array("b")
    for i in range(length):
        stray = (i * 2654435761 + seed) % 11 == 0
        k = (i * 7 + seed) % num_blocks if stray else i % num_blocks
        pc.append(0x400000 + 4 * pcs[k])
        address.append(blocks[k] * 64 + (i % 8) * 8)
        is_write.append((i + seed) % 5 == 0)
    columns = TraceColumns(pc, address, is_write, array("q", range(0, 3 * length, 3)))
    return TraceStream.from_columns(columns, name="loop")


def _replay(prefetcher, trace, engine="fast"):
    sim = TraceDrivenSimulator(prefetcher=prefetcher, hierarchy_config=HIERARCHY, engine=engine)
    result = sim.run(trace)
    return sim, (
        result.to_dict(),
        dataclasses.asdict(prefetcher.ltstats),
        dataclasses.asdict(prefetcher.storage.stats),
        dataclasses.asdict(prefetcher.signature_cache.stats),
        dataclasses.asdict(prefetcher.stats),
        dataclasses.asdict(prefetcher.history.stats),
    )


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(config=ltcords_configs(), trace=looping_traces())
def test_kernel_interpreted_and_legacy_agree(config, trace):
    sim, kernel = _replay(LTCordsPrefetcher(config), trace)
    if load_kernel() is not None:
        assert sim.last_tier == "kernel-ltcords"
    with kernel_disabled():
        interpreted_sim, interpreted = _replay(LTCordsPrefetcher(config), trace)
    assert interpreted_sim.last_tier == "interpreted"
    _, legacy = _replay(LTCordsPrefetcher(config), trace, engine="legacy")
    assert kernel == interpreted
    assert kernel == legacy


def test_looping_trace_exercises_every_kernel_path():
    """One fixed example with every structure busy, checked field by field."""
    config = LTCordsConfig(
        cache_config=HIERARCHY.l1,
        signature_cache_config=SignatureCacheConfig(num_entries=16, associativity=4),
        storage_config=SequenceStorageConfig(num_frames=4, fragment_size=8, head_lookahead=3),
        stream_window=4,
        fetch_delay_accesses=2,
        confidence_threshold=1,
    )
    blocks = [(37 * k + 5) % 4096 for k in range(40)]
    n = 4000
    columns = TraceColumns(
        array("q", [0x400000 + 4 * (i % 40 % 13) for i in range(n)]),
        array("q", [blocks[i % 40] * 64 for i in range(n)]),
        array("b", [i % 3 == 0 for i in range(n)]),
        array("q", range(0, 3 * n, 3)),
    )
    trace = TraceStream.from_columns(columns, name="loop")
    _, kernel = _replay(LTCordsPrefetcher(config), trace)
    with kernel_disabled():
        _, interpreted = _replay(LTCordsPrefetcher(config), trace)
    _, legacy = _replay(LTCordsPrefetcher(config), trace, engine="legacy")
    assert kernel == interpreted == legacy
    result, ltstats, storage, signature_cache, stats, _ = kernel
    for name in ("head_matches", "signature_cache_predictions", "signatures_streamed",
                 "confidence_increments"):
        assert ltstats[name] > 0, name
    assert storage["frames_overwritten"] > 0 and storage["confidence_updates"] > 0
    assert signature_cache["replacements"] > 0
    assert stats["prefetches_used"] > 0 and result["breakdown"]["correct"] > 0


def test_kernel_heap_grows_with_accesses_not_storage_capacity(tmp_path):
    """The paper's 160MB storage and a 1M-entry signature cache cost nothing up front."""
    script = (
        "import resource\n"
        "from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher\n"
        "from repro.core.sequence_storage import PAPER_STORAGE_CONFIG\n"
        "from repro.core.signature_cache import SignatureCacheConfig\n"
        "from repro.sim.trace_driven import TraceDrivenSimulator\n"
        "from repro.workloads.base import WorkloadConfig\n"
        "from repro.workloads.registry import get_workload\n"
        "trace = get_workload('mcf', WorkloadConfig(num_accesses=3000)).generate()\n"
        "config = LTCordsConfig(storage_config=PAPER_STORAGE_CONFIG,\n"
        "    signature_cache_config=SignatureCacheConfig(num_entries=1 << 20, associativity=2))\n"
        "sim = TraceDrivenSimulator(prefetcher=LTCordsPrefetcher(config))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sim.run(trace)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(sim.last_tier, (after - before) // 1024)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "REPRO_TRACE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    tier, grown_mb = proc.stdout.split()
    if tier == "kernel-ltcords":
        # Preallocating 32M signatures would take ~768MB.
        assert int(grown_mb) < 32
