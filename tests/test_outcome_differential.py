"""Differential suite: timing and pairwise runs on every replay tier.

Timing runs (Table 3) and pairwise multiprogram runs (Figure 11) are
consumers of the trace-driven replay's per-access outcome column, so
they take the compiled kernel or the interpreted fast loops like any
trace run, and are checked against the legacy oracle (``tests/oracle.py``).  Hypothesis draws the inputs with a fixed
example budget and every tier must produce the same result payload (and,
for timing runs, the same outcome column):

* timing: predictors ``none``/``dbcp``/``ltcords``/``ghb``, the perfect
  L1D on and off, the default and the 4 MB L2, and traces of length 0,
  1 and n that loop over blocks crowded into four L1 sets (so the L1
  thrashes, the L2 serves small loops and memory serves large ones);
  the kernel run's timing model walks in C, the other two in Python;
* pairwise: drawn pairings, per-application lengths and quanta.
"""

from array import array

import pytest
from conftest import kernel_disabled
from oracle import LegacyTimingSimulator, legacy_engine
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import L2_4MB_CONFIG
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.obs.metrics import REGISTRY
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.registry import build_predictor
from repro.run import RunSpec, Session
from repro.sim.timing import TimingSimulator
from repro.sim.trace_driven import OUTCOME_FILL_SHIFT, OUTCOME_FILL_SPILL
from repro.trace.stream import TraceColumns, TraceStream

L1_SETS = 512  # the default 64 KB, 2-way L1D
HIERARCHIES = {"default": HierarchyConfig(), "4mb-l2": HierarchyConfig(l2=L2_4MB_CONFIG)}
KERNEL_TIERS = {"none": "kernel-baseline", "dbcp": "kernel-dbcp", "ltcords": "kernel-ltcords",
                "ghb": "kernel-ghb", "stride": "kernel-stride"}
PAIR_BENCHMARKS = ["mcf", "gzip", "swim", "em3d", "gcc", "art"]

BUDGET = settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def crowded_loops(draw):
    """A loop over blocks in four L1 sets with occasional strays, of length 0, 1 or n."""
    length = draw(st.sampled_from([0, 1, draw(st.integers(2, 1200))]))
    num_blocks = draw(st.integers(3, 160))
    tags = draw(st.lists(st.integers(0, 255), min_size=num_blocks, max_size=num_blocks))
    seed = draw(st.integers(0, 1 << 16))
    pc, address, is_write = array("q"), array("q"), array("b")
    for i in range(length):
        stray = (i * 2654435761 + seed) % 13 == 0
        k = (i * 7 + seed) % num_blocks if stray else i % num_blocks
        pc.append(0x400000 + 4 * (k % 16))
        address.append((tags[k] * L1_SETS + k % 4) * 64 + (i % 8) * 8)
        is_write.append((i + seed) % 5 == 0)
    icount = array("q", range(0, 3 * length, 3))
    return TraceStream.from_columns(TraceColumns(pc, address, is_write, icount), name="loop")


def _timing(predictor, trace, perfect_l1, hierarchy, simulator=TimingSimulator):
    """A timing run's simulator and its result payload plus outcome column."""
    prefetcher = None if predictor == "none" else build_predictor(predictor)
    sim = simulator(
        prefetcher=prefetcher, hierarchy_config=HIERARCHIES[hierarchy], perfect_l1=perfect_l1
    )
    return sim, (sim.run(trace).to_dict(), sim.outcomes)


@BUDGET
@given(
    predictor=st.sampled_from(["none", "dbcp", "ltcords", "ghb"]),
    perfect_l1=st.booleans(),
    hierarchy=st.sampled_from(sorted(HIERARCHIES)),
    trace=crowded_loops(),
)
def test_timing_kernel_interpreted_and_legacy_agree(predictor, perfect_l1, hierarchy, trace):
    sim, kernel = _timing(predictor, trace, perfect_l1, hierarchy)
    if load_kernel() is not None:
        assert sim.simulator.last_tier == KERNEL_TIERS[predictor]
        assert sim.timing_tier == "kernel-timing"
    with kernel_disabled():
        interpreted_sim, interpreted = _timing(predictor, trace, perfect_l1, hierarchy)
    assert interpreted_sim.simulator.last_tier == "interpreted"
    assert interpreted_sim.timing_tier == "interpreted"
    legacy_sim, legacy = _timing(
        predictor, trace, perfect_l1, hierarchy, simulator=LegacyTimingSimulator
    )
    assert legacy_sim.timing_tier == "interpreted"
    assert kernel == interpreted
    assert kernel == legacy


@pytest.mark.parametrize("predictor", ["dbcp", "ltcords", "ghb"])
def test_crowded_loop_exercises_prefetch_fills(predictor):
    """The drawn trace shape reaches prefetching, so fills are compared too."""
    trace = TraceStream.from_columns(TraceColumns(
        array("q", [0x400000 + 4 * (i % 40 % 16) for i in range(1200)]),
        array("q", [((i % 40) * 37 % 256 * L1_SETS + i % 40 % 4) * 64 for i in range(1200)]),
        array("b", bytes(1200)),
        array("q", range(0, 3600, 3)),
    ))
    sim, _ = _timing(predictor, trace, False, "default")
    fills = sim.hierarchy.stats.prefetches_from_memory
    assert fills > 0
    assert sum(outcome >> 3 for outcome in sim.outcomes) == fills


@pytest.mark.skipif(load_kernel() is None, reason="needs a C compiler")
def test_kernel_eligible_timing_and_pairwise_runs_count_kernel_tiers():
    counter = REGISTRY.counter("replay.tier.kernel-ltcords")
    before = counter.value
    Session(use_cache=False).run("mcf", sim="timing", predictor="ltcords", num_accesses=500)
    assert counter.value == before + 1
    _pair("mcf", "gzip", 500, 2000, 4)  # the paired and both standalone replays
    assert counter.value == before + 4


def test_deep_prefetch_degree_spills_exact_fill_counts():
    """More fills after one access than an outcome byte holds round-trip exactly."""
    trace = TraceStream.from_columns(TraceColumns(
        array("q", [0x400000] * 3000),
        array("q", range(0x1000000, 0x1000000 + 3000 * 256, 256)),
        array("b", bytes(3000)),
        array("q", range(0, 9000, 3)),
    ))
    config = GHBConfig(degree=40)
    sim = TimingSimulator(prefetcher=GHBPrefetcher(config))
    result = sim.run(trace).to_dict()
    spill = iter(sim.simulator.fill_spill)
    fills = [outcome >> OUTCOME_FILL_SHIFT for outcome in sim.outcomes]
    decoded = [next(spill) if count == OUTCOME_FILL_SPILL else count for count in fills]
    assert max(decoded) > OUTCOME_FILL_SPILL
    assert sum(decoded) == sim.hierarchy.stats.prefetches_from_memory
    legacy = LegacyTimingSimulator(prefetcher=GHBPrefetcher(config))
    assert legacy.run(trace).to_dict() == result
    assert legacy.outcomes == sim.outcomes
    assert legacy.simulator.fill_spill == sim.simulator.fill_spill


def _pair(primary, secondary, num_accesses, quantum, switches):
    spec = RunSpec(
        benchmark=primary, secondary=secondary, sim="multiprogram",
        num_accesses=num_accesses, quantum_instructions=quantum, max_switches=switches,
    )
    return Session(use_cache=False).run(spec).to_dict()


@settings(BUDGET, max_examples=12)
@given(
    pairing=st.lists(st.sampled_from(PAIR_BENCHMARKS), min_size=2, max_size=2, unique=True),
    num_accesses=st.integers(1, 1500),
    quantum=st.integers(1, 20_000),
    switches=st.integers(1, 60),
)
def test_pairwise_kernel_interpreted_and_legacy_agree(pairing, num_accesses, quantum, switches):
    args = (*pairing, num_accesses, quantum, switches)
    kernel = _pair(*args)
    with kernel_disabled():
        interpreted = _pair(*args)
    with legacy_engine():
        legacy = _pair(*args)
    assert kernel == interpreted
    assert kernel == legacy


def test_second_interpreted_timing_run_times_its_own_trace():
    """A reused simulator keeps its warm caches but times only the new trace."""
    trace = TraceStream.from_columns(TraceColumns(
        array("q", [0x400000] * 600),
        array("q", [(i % 60) * L1_SETS * 64 for i in range(600)]),
        array("b", bytes(600)),
        array("q", range(0, 1800, 3)),
    ))
    for simulator in (TimingSimulator, LegacyTimingSimulator):
        sim = simulator(prefetcher=GHBPrefetcher())
        # A kernel run cannot be continued: the fast reuse is the interpreted tier's.
        with kernel_disabled():
            first = sim.run(trace)
            second = sim.run(trace[:200])
        assert len(sim.outcomes) == 200
        assert second.breakdown.memory_references == 200
        assert first.breakdown.memory_references == 600
