"""Differential suite: multicore co-runs on both tiers, the oracle, and one core.

Hypothesis draws co-runs with a fixed example budget: 1-3 cores, the
``rr`` or ``icount`` interleave, a quantum of 1-2000 accesses, a
different predictor per core (none, dbcp, ltcords, ghb or stride) with
its configuration, per-core traces of length 0, 1 and n, an address shift
of 0 or 1 GB between cores, a request queue of 1-128 entries, and a
hierarchy.  Configurations and hierarchies come from the whole-domain
suite's strategies (``test_domain_differential.py``): tables down to one
entry, signature folds and history block sizes that keep a lane off the
kernel, and shared L2s of 1-16 ways and 1-64 sets that evict within a
few accesses.  With
shift 0 the cores touch the same blocks, so the shared L2's ownership
map sees blocks reallocated across cores.

The compiled kernel (every lane a kernel state over C shared L2s), the
interpreted tier and the legacy oracle (``tests/oracle.py``) must
produce the same ``MulticoreResult.to_dict``, and the per-core result
of a one-core co-run must equal the single-core simulator's on both
tiers.  A co-run that cannot
run every lane on the kernel replays whole on the interpreted tier,
and every kernel state it opened is closed, however the co-run ends.
"""

from array import array
from functools import lru_cache

import pytest
from conftest import kernel_disabled
from oracle import LegacyMulticoreSimulator
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_domain_differential import PREDICTORS as DOMAIN_PREDICTORS
from test_domain_differential import hierarchies

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
#: The co-run simulator of each side: the package's, or the legacy oracle.
SIMULATORS = {"fast": MulticoreSimulator, "legacy": LegacyMulticoreSimulator}
#: An L2 that evicts within a few hundred accesses.
SMALL = HierarchyConfig(
    l1=CacheConfig("L1D", size_bytes=2048, block_size=64, associativity=2),
    l2=CacheConfig("L2", size_bytes=8192, block_size=64, associativity=4),
)

BUDGET = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@lru_cache(maxsize=None)
def _workload_trace(benchmark):
    return get_workload(benchmark, WorkloadConfig(num_accesses=GENERATED, seed=42)).generate()


@st.composite
def co_runs(draw):
    """A hierarchy and per-core ``(trace, predictor, config)`` triples for 1-3 cores."""
    hierarchy = draw(hierarchies())
    cores = draw(st.integers(1, 3))
    lengths = st.sampled_from([0, 1, draw(st.integers(2, GENERATED))])
    shift = draw(st.sampled_from([0, DEFAULT_ADDRESS_SHIFT]))
    run = []
    predictors = draw(st.permutations(PREDICTORS))
    for core, predictor in zip(range(cores), predictors):
        trace = _workload_trace(draw(st.sampled_from(BENCHMARKS)))[: draw(lengths)]
        if core and shift:
            trace = shift_addresses(trace, core * shift)
        config = draw(DOMAIN_PREDICTORS[predictor][2](hierarchy.l1.block_size))
        run.append((trace, predictor, config))
    return hierarchy, run


def _prefetcher(predictor, config):
    cls = DOMAIN_PREDICTORS[predictor][1]
    return cls() if config is None else cls(config)


def _unfit(predictor, config, hierarchy):
    """Why a DBCP/LT-cords configuration keeps its lane off the kernel, or ``None``."""
    if predictor not in ("dbcp", "ltcords"):
        return None
    if config.signature_config.trace_hash_bits < 32:
        return "open-fold"
    if config.cache_config.block_size != hierarchy.l1.block_size:
        return "history-block"
    return None


def _co_run(run, hierarchy, queue_size, interleave, quantum, engine):
    simulator = SIMULATORS[engine](
        [_prefetcher(predictor, config) for _, predictor, config in run],
        hierarchy_config=hierarchy, request_queue_size=queue_size,
        interleave=interleave, quantum_accesses=quantum,
    )
    result = simulator.run([trace for trace, _, _ in run]).to_dict()
    reasons = [_unfit(predictor, config, hierarchy) for _, predictor, config in run]
    if engine == "legacy":
        expected = ["legacy"] * len(run)
    elif load_kernel() is None or any(reasons):
        expected = ["interpreted"] * len(run)
    else:
        expected = [KERNEL_TIERS[predictor] for _, predictor, _ in run]
    assert [lane.last_tier for lane in simulator.lanes] == expected
    if engine == "fast" and load_kernel() is not None and any(reasons):
        fallbacks = [reason or "co-runner" for reason in reasons]
        assert [lane.last_fallback for lane in simulator.lanes] == fallbacks
    return result


def _single_core(trace, predictor, config, hierarchy, queue_size):
    simulator = TraceDrivenSimulator(
        _prefetcher(predictor, config), hierarchy_config=hierarchy,
        request_queue_size=queue_size,
    )
    return simulator, simulator.run(trace).to_dict()


@BUDGET
@given(
    co_run=co_runs(),
    queue_size=st.integers(1, 128),
    interleave=st.sampled_from(["rr", "icount"]),
    quantum=st.integers(1, 2000),
)
def test_co_run_engines_agree_and_one_core_is_the_single_core_run(
    co_run, queue_size, interleave, quantum
):
    hierarchy, run = co_run
    schedule = (hierarchy, queue_size, interleave, quantum)
    fast = _co_run(run, *schedule, "fast")
    with kernel_disabled():
        assert _co_run(run, *schedule, "fast") == fast
    assert fast == _co_run(run, *schedule, "legacy")
    if len(run) > 1:
        return
    ((trace, predictor, config),) = run
    (per_core,) = fast["per_core"]
    assert fast["cross_core_evictions"] == 0
    simulator, kernel = _single_core(trace, predictor, config, hierarchy, queue_size)
    if load_kernel() is not None and not _unfit(predictor, config, hierarchy):
        assert simulator.last_tier == KERNEL_TIERS[predictor]
    with kernel_disabled():
        simulator, interpreted = _single_core(trace, predictor, config, hierarchy, queue_size)
    assert simulator.last_tier == "interpreted"
    assert per_core == kernel
    assert per_core == interpreted


def test_shared_blocks_change_owners_across_cores():
    """Unshifted co-runners of one trace reallocate each other's evicted L2 blocks.

    Each quantum of core 1 replays blocks that core 0's previous quantum
    allocated and its own later accesses evicted again.
    """
    trace = _workload_trace("mcf")
    for simulator_class in SIMULATORS.values():
        simulator = simulator_class(
            [build_predictor("ghb"), build_predictor("dbcp")],
            hierarchy_config=SMALL, quantum_accesses=500,
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
    simulator = SIMULATORS[engine](
        [build_predictor(predictor) if isinstance(predictor, str) else predictor
         for predictor in predictors],
        hierarchy_config=SMALL, quantum_accesses=quantum,
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
    """A registry-less predictor: no kernel route."""

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
