"""Differential suite: multicore co-runs on both engines and against one core.

Hypothesis draws co-runs with a fixed example budget: 1-3 cores, the
``rr`` or ``icount`` interleave, a quantum of 1-2000 accesses, one
predictor per core (none, dbcp, ltcords, ghb or stride), per-core traces
of length 0, 1 and n, an address shift of 0 or 1 GB between cores, and
the default hierarchy or a small one whose L2 evicts within a few
hundred accesses.  With shift 0 the cores touch the same blocks, so the
shared L2's ownership map sees blocks reallocated across cores.

The fast and legacy engines must produce the same
``MulticoreResult.to_dict``, and the per-core result of a one-core
co-run must equal the single-core simulator's, both on the compiled
kernel tier and on the interpreted tier.
"""

from functools import lru_cache

from conftest import kernel_disabled
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import load_kernel
from repro.multicore import DEFAULT_ADDRESS_SHIFT, MulticoreSimulator
from repro.registry import build_predictor
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import shift_addresses
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
        [build_predictor(predictor, engine=engine) for _, predictor in run],
        hierarchy_config=HIERARCHIES[hierarchy],
        engine=engine, interleave=interleave, quantum_accesses=quantum,
    )
    result = simulator.run([trace for trace, _ in run]).to_dict()
    assert [lane.last_tier for lane in simulator.lanes] == [
        "legacy" if engine == "legacy" else "interpreted"
    ] * len(run)
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
            [build_predictor("ghb", engine=engine), build_predictor("dbcp", engine=engine)],
            hierarchy_config=HIERARCHIES["small"], engine=engine, quantum_accesses=500,
        )
        result = simulator.run([trace, trace])
        owners = set(simulator.shared_l2.owners.values())
        assert owners == {0, 1}
        assert result.cross_core_evictions > 0
