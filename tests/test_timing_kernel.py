"""Differential suite: the compiled timing walk against ``OutOfOrderTimingModel``.

The kernel's ``repro_timing`` entry walks a timing run's icount column,
outcome column and fill spill in C.  Hypothesis draws the system
configuration (serialised misses, core IPC including fractional values
and values above the issue width, the MLP limit and MSHR count, the ROB
size, L2 and DRAM latencies, the bus, block sizes, signature traffic)
and the columns (non-monotonic icounts, all three service levels, fill
counts 0-15 with spills, lengths 0, 1 and n).  The oracle drives the
Python model directly; both walks of :func:`repro.sim.timing.settle_timing`
must reproduce its :class:`TimingBreakdown` field by field, floats
compared through ``float.hex``.  The error paths (a column that does
not match the trace, a spill list used up early or left over) are
checked on both walks, and through ``TimingSimulator.build_result``.
"""

from array import array
from contextlib import nullcontext

import pytest
from conftest import kernel_disabled, make_trace
from oracle import LegacyTimingSimulator
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import ServiceLevel
from repro.cache.vector import load_kernel
from repro.memory.bus import BusConfig
from repro.memory.dram import DRAMConfig
from repro.sim.timing import KERNEL_TIMING_TIER, TimingSimulator, settle_timing
from repro.sim.trace_driven import LEVEL_BY_CODE, OUTCOME_FILL_SHIFT, OUTCOME_FILL_SPILL
from repro.timing.config import SystemConfig
from repro.timing.model import OutOfOrderTimingModel

BUDGET = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

needs_kernel = pytest.mark.skipif(load_kernel() is None, reason="needs a C compiler")
WALKS = [pytest.param("kernel", marks=needs_kernel), "interpreted"]


@st.composite
def system_configs(draw):
    block = draw(st.sampled_from([16, 32, 64, 128]))
    l1d = CacheConfig(
        name="L1D", size_bytes=block * 2 * 64, block_size=block, associativity=2,
        hit_latency=2, num_mshrs=draw(st.integers(1, 32)),
    )
    l2 = CacheConfig(
        name="L2", size_bytes=block * 8 * 256, block_size=block, associativity=8,
        hit_latency=draw(st.integers(0, 60)),
    )
    dram = DRAMConfig(
        first_chunk_latency=draw(st.integers(0, 600)),
        chunk_latency=draw(st.integers(0, 12)),
        chunk_bytes=draw(st.sampled_from([8, 16, 32, 64])),
    )
    bus = BusConfig(
        width_bytes=draw(st.sampled_from([8, 16, 32, 64])),
        bus_clock_mhz=draw(st.sampled_from([400.0, 800.0, 1333.0, 1066.6])),
        core_clock_ghz=draw(st.sampled_from([1.0, 2.5, 4.0, 3.7])),
        request_cycles=draw(st.integers(0, 2)),
    )
    return SystemConfig(
        issue_width=draw(st.integers(1, 8)),
        rob_entries=draw(st.one_of(st.integers(1, 12), st.integers(1, 512))),
        l1d=l1d, l2=l2, dram=dram, bus=bus,
    )


@st.composite
def columns(draw):
    """``(icount, outcomes, spill)``: a drawn column of length 0, 1 or n."""
    length = draw(st.sampled_from([0, 1, draw(st.integers(2, 300))]))
    if draw(st.booleans()):
        step = st.sampled_from([0, 1, 1, 2, 3, 5, 40])
        steps = draw(st.lists(step, min_size=length, max_size=length))
        icount = [sum(steps[: i + 1]) for i in range(length)]
    else:
        icount = draw(st.lists(st.integers(-100, 5000), min_size=length, max_size=length))
    levels = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    fill = st.one_of(st.just(0), st.integers(0, OUTCOME_FILL_SPILL))
    fills = draw(st.lists(fill, min_size=length, max_size=length))
    spill = [draw(st.integers(0, 40)) for count in fills if count == OUTCOME_FILL_SPILL]
    outcomes = array("b", (level | count << OUTCOME_FILL_SHIFT for level, count in zip(levels, fills)))
    return array("q", icount), outcomes, spill


def _model(config, serialize, core_ipc, mlp):
    return OutOfOrderTimingModel(
        config, serialize_misses=serialize, core_ipc=core_ipc, effective_mlp=mlp,
    )


def _oracle(model, icount, outcomes, spill, fill_bytes, signature_bytes, perfect_l1):
    """The Python model driven access by access, as a timing run settles."""
    spilled = iter(spill)
    for count, outcome in zip(icount, outcomes):
        model.observe(count, ServiceLevel.L1 if perfect_l1 else LEVEL_BY_CODE[outcome & 3])
        fills = outcome >> OUTCOME_FILL_SHIFT
        if fills == OUTCOME_FILL_SPILL:
            fills = next(spilled)
        for _ in range(fills):
            model.add_bus_traffic(fill_bytes)
    model.add_bus_traffic(signature_bytes)
    return model.finalize()


def _exact(breakdown):
    """A breakdown's fields, floats as ``float.hex`` so equality is bitwise."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in vars(breakdown).items()
    }


def _walk(walk, model, *args, **kwargs):
    kernel = load_kernel() if walk == "kernel" else None
    return settle_timing(model, *args, kernel=kernel, **kwargs)


@BUDGET
@given(
    config=system_configs(),
    serialize=st.booleans(),
    core_ipc=st.one_of(
        st.none(), st.sampled_from([0.7, 1.3, 2.0, 9.5, 16.0]), st.floats(0.05, 12.0),
    ),
    mlp=st.integers(1, 40),
    cols=columns(),
    fill_bytes=st.sampled_from([16, 32, 64, 128]),
    signature_bytes=st.one_of(st.just(0), st.integers(1, 1 << 20)),
    perfect_l1=st.booleans(),
)
def test_both_walks_match_the_python_model(
    config, serialize, core_ipc, mlp, cols, fill_bytes, signature_bytes, perfect_l1,
):
    icount, outcomes, spill = cols
    args = (icount, outcomes, spill, fill_bytes, signature_bytes)
    expected = _exact(_oracle(_model(config, serialize, core_ipc, mlp), *args, perfect_l1))
    kernel = load_kernel()
    if kernel is not None:
        breakdown, tier = settle_timing(
            _model(config, serialize, core_ipc, mlp), *args, perfect_l1=perfect_l1, kernel=kernel,
        )
        assert tier == KERNEL_TIMING_TIER
        assert _exact(breakdown) == expected
    breakdown, tier = settle_timing(
        _model(config, serialize, core_ipc, mlp), *args, perfect_l1=perfect_l1,
    )
    assert tier == "interpreted"
    assert _exact(breakdown) == expected


def test_icounts_beyond_64_bit_sums_walk_in_python():
    """Deltas the C walk cannot add in int64 send the walk to the Python model."""
    icount = array("q", [-(1 << 63), (1 << 63) - 1, -(1 << 63), (1 << 63) - 1])
    outcomes = array("b", [2, 1, 0, 2])
    args = (icount, outcomes, [], 64, 0)
    expected = _exact(_oracle(OutOfOrderTimingModel(), *args, False))
    breakdown, tier = settle_timing(OutOfOrderTimingModel(), *args, kernel=load_kernel())
    assert tier == "interpreted"
    assert _exact(breakdown) == expected


# ------------------------------------------------------------------ error paths
@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("column_length", [2, 4])
def test_a_column_not_matching_the_trace_raises(walk, column_length):
    icount = array("q", [0, 3, 6])
    outcomes = array("b", [2] * column_length)
    with pytest.raises(ValueError, match="outcome column holds"):
        _walk(walk, OutOfOrderTimingModel(), icount, outcomes, [], 64, 0)


@pytest.mark.parametrize("walk", WALKS)
def test_a_spill_list_used_up_early_raises(walk):
    saturated = OUTCOME_FILL_SPILL << OUTCOME_FILL_SHIFT
    outcomes = array("b", [saturated, 1, saturated])
    with pytest.raises(ValueError, match="ran out"):
        _walk(walk, OutOfOrderTimingModel(), array("q", [0, 3, 6]), outcomes, [17], 64, 0)


@pytest.mark.parametrize("walk", WALKS)
def test_a_spill_list_left_over_raises(walk):
    outcomes = array("b", [OUTCOME_FILL_SPILL << OUTCOME_FILL_SHIFT, 2, 0])
    with pytest.raises(ValueError, match="no outcome byte uses"):
        _walk(walk, OutOfOrderTimingModel(), array("q", [0, 3, 6]), outcomes, [17, 20], 64, 0)


@pytest.mark.parametrize("walk", WALKS)
def test_a_level_code_3_raises(walk):
    with pytest.raises(ValueError, match="level code 3"):
        _walk(walk, OutOfOrderTimingModel(), array("q", [0]), array("b", [3]), [], 64, 0)


@pytest.mark.parametrize("walk", WALKS)
def test_build_result_rejects_a_truncated_outcome_column(walk):
    """The walk no longer stops silently at the shorter of trace and column."""
    trace = make_trace([0x1000 + 64 * (i % 300) for i in range(900)])
    with kernel_disabled() if walk == "interpreted" else nullcontext():
        sim = TimingSimulator()
        sim.replay(trace)
        del sim.outcomes[-1]
        with pytest.raises(ValueError, match="outcome column holds 899 accesses but the trace 900"):
            sim.build_result(trace)


@pytest.mark.parametrize("engine, walk", [
    pytest.param("fast", KERNEL_TIMING_TIER, marks=needs_kernel),
    ("legacy", "interpreted"),
])
def test_the_engine_chooses_the_walk(engine, walk):
    """The package walks on the kernel when it loads; the legacy oracle walks in Python."""
    sim = (LegacyTimingSimulator if engine == "legacy" else TimingSimulator)()
    sim.run(make_trace([0x1000 + 64 * (i % 300) for i in range(900)]))
    assert sim.timing_tier == walk
