"""Differential suite: multicore co-runs on both engines and against one core.

Hypothesis draws co-runs with a fixed example budget: 1-3 cores, the
``rr`` or ``icount`` interleave, a quantum of 1-2000 accesses, one
predictor per core (none, dbcp, ltcords, ghb or stride), per-core traces
of length 0, 1 and n, an address shift of 0 or 1 GB between cores, and
the default hierarchy or a small one whose L2 evicts within a few
hundred accesses.  With shift 0 the cores touch the same blocks, so the
shared L2's ownership map sees blocks reallocated across cores.

The fast engine on the compiled kernel (every lane a kernel state over
C shared L2s), the fast engine on the interpreted tier and the legacy
engine must produce the same ``MulticoreResult.to_dict``, and the
per-core result of a one-core co-run must equal the single-core
simulator's on both of the fast engine's tiers.  A co-run that cannot
run every lane on the kernel replays whole on the interpreted tier,
and every kernel state it opened is closed, however the co-run ends.
"""

from array import array
from functools import lru_cache

import pytest
from conftest import kernel_disabled
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.multicore.engine as engine_mod
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.multicore import DEFAULT_ADDRESS_SHIFT, MulticoreSimulator
from repro.obs.metrics import REGISTRY
from repro.prefetchers.null import NullPrefetcher
from repro.registry import build_predictor
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceColumns, TraceStream, shift_addresses
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

BENCHMARKS = ("mcf", "gzip", "swim", "em3d", "art")
PREDICTORS = ("none", "dbcp", "ltcords", "ghb", "stride")
KERNEL_TIERS = {"none": "kernel-baseline", "dbcp": "kernel-dbcp", "ltcords": "kernel-ltcords",
                "ghb": "kernel-ghb", "stride": "kernel-stride"}
GENERATED = 1500
HIERARCHIES = {
    "default": HierarchyConfig(),
    "small": HierarchyConfig(
        l1=CacheConfig("L1D", size_bytes=2048, block_size=64, associativity=2),
        l2=CacheConfig("L2", size_bytes=8192, block_size=64, associativity=4),
    ),
}

BUDGET = settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@lru_cache(maxsize=None)
def _workload_trace(benchmark):
    return get_workload(benchmark, WorkloadConfig(num_accesses=GENERATED, seed=42)).generate()


@st.composite
def co_runs(draw):
    """Per-core ``(trace, predictor)`` pairs for 1-3 cores."""
    cores = draw(st.integers(1, 3))
    lengths = st.sampled_from([0, 1, draw(st.integers(2, GENERATED))])
    shift = draw(st.sampled_from([0, DEFAULT_ADDRESS_SHIFT]))
    run = []
    for core in range(cores):
        trace = _workload_trace(draw(st.sampled_from(BENCHMARKS)))[: draw(lengths)]
        if core and shift:
            trace = shift_addresses(trace, core * shift)
        run.append((trace, draw(st.sampled_from(PREDICTORS))))
    return run


def _co_run(run, hierarchy, interleave, quantum, engine):
    simulator = MulticoreSimulator(
        [build_predictor(predictor) for _, predictor in run],
        hierarchy_config=HIERARCHIES[hierarchy],
        engine=engine, interleave=interleave, quantum_accesses=quantum,
    )
    result = simulator.run([trace for trace, _ in run]).to_dict()
    if engine == "legacy":
        expected = ["legacy"] * len(run)
    elif load_kernel() is None:
        expected = ["interpreted"] * len(run)
    else:
        expected = [KERNEL_TIERS[predictor] for _, predictor in run]
    assert [lane.last_tier for lane in simulator.lanes] == expected
    return result


def _single_core(trace, predictor, hierarchy):
    simulator = TraceDrivenSimulator(
        build_predictor(predictor), hierarchy_config=HIERARCHIES[hierarchy]
    )
    return simulator, simulator.run(trace).to_dict()


@BUDGET
@given(
    run=co_runs(),
    hierarchy=st.sampled_from(sorted(HIERARCHIES)),
    interleave=st.sampled_from(["rr", "icount"]),
    quantum=st.integers(1, 2000),
)
def test_co_run_engines_agree_and_one_core_is_the_single_core_run(
    run, hierarchy, interleave, quantum
):
    schedule = (hierarchy, interleave, quantum)
    fast = _co_run(run, *schedule, "fast")
    with kernel_disabled():
        assert _co_run(run, *schedule, "fast") == fast
    assert fast == _co_run(run, *schedule, "legacy")
    if len(run) > 1:
        return
    ((trace, predictor),) = run
    (per_core,) = fast["per_core"]
    assert fast["cross_core_evictions"] == 0
    simulator, kernel = _single_core(trace, predictor, hierarchy)
    if load_kernel() is not None:
        assert simulator.last_tier == KERNEL_TIERS[predictor]
    with kernel_disabled():
        simulator, interpreted = _single_core(trace, predictor, hierarchy)
    assert simulator.last_tier == "interpreted"
    assert per_core == kernel
    assert per_core == interpreted


def test_shared_blocks_change_owners_across_cores():
    """Unshifted co-runners of one trace reallocate each other's evicted L2 blocks.

    Each quantum of core 1 replays blocks that core 0's previous quantum
    allocated and its own later accesses evicted again.
    """
    trace = _workload_trace("mcf")
    for engine in ("fast", "legacy"):
        simulator = MulticoreSimulator(
            [build_predictor("ghb"), build_predictor("dbcp")],
            hierarchy_config=HIERARCHIES["small"], engine=engine, quantum_accesses=500,
        )
        result = simulator.run([trace, trace])
        owners = set(simulator.shared_l2.owners.values())
        assert owners == {0, 1}
        assert result.cross_core_evictions > 0


def _strided(start, step, n):
    return TraceStream.from_columns(TraceColumns(
        array("q", [0x400000] * n),
        array("q", [start + step * i for i in range(n)]),
        array("b", bytes(n)),
        array("q", range(0, 3 * n, 3)),
    ), name="strided")


def _corun_result(predictors, traces, engine, quantum=100):
    simulator = MulticoreSimulator(
        [build_predictor(predictor) if isinstance(predictor, str) else predictor
         for predictor in predictors],
        hierarchy_config=HIERARCHIES["small"], engine=engine, quantum_accesses=quantum,
    )
    return simulator, simulator.run(traces).to_dict()


@pytest.mark.parametrize("out_of_range", ["predictions", "addresses"])
def test_leaving_the_kernel_range_sends_the_whole_co_run_interpreted(out_of_range):
    """rc 2 mid-schedule or on a lane's first chunk.

    A GHB lane's predictions reach 2^54 in its last quantum, or a DBCP
    lane's addresses start beyond 2^54 (a dead state from its open).
    """
    if out_of_range == "predictions":
        predictors = ("ghb", "ltcords")
        traces = [_strided((1 << 54) - 4096 * 400, 4096, 400), _workload_trace("mcf")[:1000]]
        fallbacks = ["address-range", "co-runner"]
    else:
        predictors = ("ltcords", "dbcp")
        traces = [_workload_trace("mcf"), shift_addresses(_workload_trace("art"), 1 << 54)]
        fallbacks = ["co-runner", "address-range"]
    simulator, fast = _corun_result(predictors, traces, "fast")
    assert [lane.last_tier for lane in simulator.lanes] == ["interpreted", "interpreted"]
    if load_kernel() is not None:
        assert [lane.last_fallback for lane in simulator.lanes] == fallbacks
        assert load_kernel().live_states() == 0
    _, legacy = _corun_result(predictors, traces, "legacy")
    assert fast == legacy


class PluginPrefetcher(NullPrefetcher):
    """A registry-less predictor: no kernel route, on every engine."""

    name = "plugin"


def test_a_plugin_co_runner_keeps_every_lane_interpreted():
    counter = REGISTRY.counter("replay.fallback.co-runner")
    before = counter.value
    traces = [_workload_trace("mcf"), _workload_trace("art")]
    simulator, fast = _corun_result((PluginPrefetcher(), "ltcords"), traces, "fast")
    assert [lane.last_tier for lane in simulator.lanes] == ["interpreted", "interpreted"]
    if load_kernel() is not None:
        assert [lane.last_fallback for lane in simulator.lanes] == [None, "co-runner"]
        assert counter.value == before + 1
    _, legacy = _corun_result((PluginPrefetcher(), "ltcords"), traces, "legacy")
    assert fast == legacy


class _BrokenSchedule:
    """A schedule that yields the real chunks up to ``at``, then ``chunk`` or an error."""

    def __init__(self, chunks, at, chunk=None):
        self.chunks, self.at, self.chunk = chunks, at, chunk

    def __iter__(self):
        yield from self.chunks[: self.at]
        if self.chunk is None:
            raise RuntimeError("interrupted between chunks")
        yield self.chunk


@pytest.mark.skipif(load_kernel() is None, reason="needs a C compiler")
@pytest.mark.parametrize("bad_chunk", [None, (1, 0, 5)])
def test_a_co_run_that_raises_mid_schedule_closes_every_kernel_state(monkeypatch, bad_chunk):
    """A bad chunk (core 1 replaying from 0 again) or an error between chunks."""
    schedule = engine_mod.schedule_chunks
    monkeypatch.setattr(
        engine_mod, "schedule_chunks",
        lambda *args: _BrokenSchedule(schedule(*args), 5, bad_chunk),
    )
    kernel = load_kernel()
    before = kernel.live_states()
    traces = [_workload_trace("mcf"), _workload_trace("art"), _workload_trace("swim")]
    error = RuntimeError if bad_chunk is None else ValueError
    with pytest.raises(error):
        _corun_result(("ltcords", "ghb", "none"), traces, "fast")
    assert kernel.live_states() == before == 0
