"""Timing simulation: functional cache/predictor replay + the OoO timing model.

Used for the speedup comparison of Table 3 and the bandwidth study of
Figure 12.  A timing run is a trace-driven replay
(:meth:`TraceDrivenSimulator.replay`, so it takes the compiled kernel or
the interpreted tier exactly as a trace run does) that also records a per-access outcome column.  The
first-order out-of-order timing model then consumes that column in
program order (:func:`settle_timing`): each reference's main-hierarchy
service level, and one block of bus occupancy per memory-sourced
prefetch fill after it.  Predictor metadata traffic is charged to the
memory bus at the end.

The walk has two tiers, recorded as :attr:`TimingSimulator.timing_tier`
and as the ``tier`` field of the run's ``settle`` phase event.  With the
compiled kernel loaded, whatever tier replayed the trace, the column is walked by the kernel's ``repro_timing`` entry
(``kernel-timing``), a C port of the model that reproduces its
:class:`~repro.timing.model.TimingBreakdown` in every IEEE-754 bit.
Otherwise — ``REPRO_NO_VECTOR_KERNEL``, no compiler,
or icount values the C walk cannot add in 64 bits — the Python
:class:`~repro.timing.model.OutOfOrderTimingModel` walks it
(``interpreted``); it stays the oracle the C walk is tested against.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.cache import vector
from repro.cache.hierarchy import HierarchyConfig, ServiceLevel
from repro.core.interface import Prefetcher
from repro.obs.timers import PHASE_REPLAY, PHASE_SETTLE, PHASE_TRACE_ACQUIRE
from repro.obs.timers import phase as obs_phase
from repro.sim.trace_driven import (
    LEVEL_BY_CODE,
    OUTCOME_FILL_SHIFT,
    OUTCOME_LEVEL_MASK,
    OUTCOME_FILL_SPILL,
    TraceDrivenSimulator,
)
from repro.sim.vector_replay import c_column, replay_event_fields
from repro.timing.config import SystemConfig
from repro.timing.model import OutOfOrderTimingModel, TimingBreakdown
from repro.trace.stream import TraceStream
from repro.workloads.base import WorkloadConfig


#: The settle tier of a timing run walked by the kernel's ``repro_timing``.
KERNEL_TIMING_TIER = "kernel-timing"

_SPILL_SHORT = "the fill spill list ran out before the outcome column did"
_SPILL_LEFT = "the fill spill list holds entries no outcome byte uses"
_BAD_LEVEL = "an outcome byte holds level code 3"


def _length_mismatch(columns: int, accesses: int) -> ValueError:
    return ValueError(f"the outcome column holds {columns} accesses but the trace {accesses}")


def settle_timing(
    model: OutOfOrderTimingModel,
    icount: Sequence[int],
    outcomes: Sequence[int],
    spill: Sequence[int],
    fill_bytes: int,
    signature_bytes: int,
    perfect_l1: bool = False,
    kernel: Optional[vector.VectorKernel] = None,
) -> Tuple[TimingBreakdown, str]:
    """Walk a replay's outcome column through the fresh ``model``; ``(breakdown, tier)``.

    Each access is observed at its outcome byte's level (L1 throughout
    for a perfect L1), then charged ``fill_bytes`` of bus traffic per
    prefetch fill (saturated bytes take their count from ``spill``);
    ``signature_bytes`` are charged once at the end.  With ``kernel``
    the C walk runs unless the inputs leave its 64-bit range.  Either
    walk raises :class:`ValueError` when ``outcomes`` and ``icount``
    differ in length or ``spill`` is not used up exactly.
    """
    if kernel is not None:
        breakdown = _walk_kernel(
            kernel, model, icount, outcomes, spill, fill_bytes, signature_bytes, perfect_l1
        )
        if breakdown is not None:
            return breakdown, KERNEL_TIMING_TIER
    return (
        _walk_interpreted(model, icount, outcomes, spill, fill_bytes, signature_bytes, perfect_l1),
        "interpreted",
    )


def _walk_interpreted(model, icount, outcomes, spill, fill_bytes, signature_bytes, perfect_l1):
    if len(outcomes) != len(icount):
        raise _length_mismatch(len(outcomes), len(icount))
    observe = model.observe
    add_bus_traffic = model.add_bus_traffic
    levels = (ServiceLevel.L1,) * 3 if perfect_l1 else LEVEL_BY_CODE
    spilled = iter(spill)
    try:
        for count, outcome in zip(icount, outcomes):
            observe(count, levels[outcome & OUTCOME_LEVEL_MASK])
            fills = outcome >> OUTCOME_FILL_SHIFT
            if fills:
                if fills == OUTCOME_FILL_SPILL:
                    fills = next(spilled, None)
                    if fills is None:
                        raise ValueError(_SPILL_SHORT)
                # Prefetch transfers occupy the bus like any other off-chip
                # transfer; useful ones replace a later demand transfer, but
                # modelling the occupancy here keeps bandwidth-bound
                # benchmarks honest.
                for _ in range(fills):
                    add_bus_traffic(fill_bytes)
    except IndexError:
        raise ValueError(_BAD_LEVEL) from None
    if next(spilled, None) is not None:
        raise ValueError(_SPILL_LEFT)
    model.add_bus_traffic(signature_bytes)
    return model.finalize()


def _walk_kernel(kernel, model, icount, outcomes, spill, fill_bytes, signature_bytes, perfect_l1):
    """The C walk's breakdown; ``None`` when an input does not fit its 64-bit arithmetic."""
    config = model.config
    icount_c = c_column(icount, ctypes.c_int64, "q")
    outcomes_c = c_column(outcomes, ctypes.c_int8, "b")
    spill_c = c_column(spill, ctypes.c_int64, "q")
    if (
        icount_c is None or outcomes_c is None or spill_c is None
        or type(model.core_ipc) is not float  # an int divisor divides exactly in Python
        or max(config.rob_entries, model.effective_mlp) >= 1 << 63  # ctypes would truncate
    ):
        return None
    bus = config.bus
    params = (ctypes.c_double * 6)(
        model.core_ipc,
        config.l2_hit_latency,
        model._memory_block_latency,
        model._block_transfer_cycles,
        bus.transfer_core_cycles(fill_bytes) if fill_bytes > 0 else 0.0,
        bus.transfer_core_cycles(signature_bytes) if signature_bytes > 0 else 0.0,
    )
    flags = (ctypes.c_int64 * 4)(
        config.rob_entries, model.effective_mlp, bool(model.serialize_misses), perfect_l1,
    )
    counts = (ctypes.c_int64 * 5)()
    cycles = (ctypes.c_double * 4)()
    rc = kernel.timing(
        len(icount_c), icount_c, len(outcomes_c), outcomes_c, len(spill_c), spill_c,
        params, flags, counts, cycles,
    )
    if rc == 2:
        return None
    if rc == 1:
        raise MemoryError("the compiled timing walk ran out of memory")
    if rc == 3:
        raise _length_mismatch(len(outcomes_c), len(icount_c))
    if rc:
        raise ValueError({4: _SPILL_SHORT, 5: _SPILL_LEFT, 6: _BAD_LEVEL}[rc])
    return TimingBreakdown(*counts, *cycles)


@dataclass
class TimingResult:
    """IPC and cycle breakdown of one timing run."""

    benchmark: str
    predictor: str
    breakdown: TimingBreakdown
    l1_misses: int
    l2_misses: int
    signature_traffic_bytes: int = 0
    accesses: int = 0
    l2_hits: int = 0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.breakdown.ipc

    @property
    def cycles(self) -> float:
        """Total simulated cycles."""
        return self.breakdown.total_cycles

    def speedup_over(self, baseline: "TimingResult") -> float:
        """Percent performance improvement relative to ``baseline``."""
        if self.cycles <= 0:
            return 0.0
        return 100.0 * (baseline.cycles / self.cycles - 1.0)

    @property
    def l1_miss_rate(self) -> float:
        """L1D misses per demand access (as in :class:`HierarchyStats`)."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 local miss rate (as in :class:`HierarchyStats`)."""
        l2_accesses = self.l2_hits + self.l2_misses
        return self.l2_misses / l2_accesses if l2_accesses else 0.0

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe encoding (enables workers and the result cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimingResult":
        """Reconstruct a result from :meth:`to_dict` output."""
        payload = dict(data)
        payload["breakdown"] = TimingBreakdown(**payload["breakdown"])
        return cls(**payload)


class TimingSimulator:
    """Replays a trace with a predictor and accumulates first-order timing."""

    def __init__(
        self,
        prefetcher: Optional[Prefetcher] = None,
        hierarchy_config: Optional[HierarchyConfig] = None,
        system_config: Optional[SystemConfig] = None,
        perfect_l1: bool = False,
        request_queue_size: int = 128,
    ) -> None:
        #: Per-access outcome bytes of the replay (see TraceDrivenSimulator.outcomes).
        self.outcomes = array("b")
        self.simulator = TraceDrivenSimulator(
            prefetcher=prefetcher,
            hierarchy_config=hierarchy_config,
            request_queue_size=request_queue_size,
            outcomes=self.outcomes,
        )
        self.prefetcher = self.simulator.prefetcher
        self.hierarchy = self.simulator.hierarchy
        self.system_config = system_config or SystemConfig()
        self.perfect_l1 = perfect_l1
        #: Which walk settled the last result: "kernel-timing" or "interpreted".
        self.timing_tier: Optional[str] = None

    def run(self, trace: TraceStream) -> TimingResult:
        """Replay ``trace`` and return IPC/cycle results."""
        self.replay(trace)
        return self.build_result(trace)

    def replay(self, trace: TraceStream) -> None:
        """The functional replay only, recording ``trace``'s outcome column.

        The column of an earlier replay is dropped, so the timing model
        always walks the outcomes of the trace it is given.
        """
        del self.outcomes[:]
        self.simulator.fill_spill.clear()
        self.simulator.replay(trace)

    def build_result(self, trace: TraceStream) -> TimingResult:
        """Run the timing model over the recorded outcomes and fold the result.

        The walk is the kernel's when the kernel loads, else the Python
        model's; :attr:`timing_tier` records it.
        """
        serialize = bool(trace.metadata.get("serial_misses", False))
        core_ipc = trace.metadata.get("core_ipc")
        model = OutOfOrderTimingModel(
            self.system_config,
            serialize_misses=serialize,
            core_ipc=float(core_ipc) if core_ipc else None,
        )
        signature_bytes = self.prefetcher.signature_traffic_bytes()
        breakdown, self.timing_tier = settle_timing(
            model,
            trace.as_arrays().icount,
            self.outcomes,
            self.simulator.fill_spill,
            self.hierarchy.block_size,
            signature_bytes,
            perfect_l1=self.perfect_l1,
            kernel=vector.load_kernel(),
        )
        stats = self.hierarchy.stats
        return TimingResult(
            benchmark=trace.name,
            predictor="perfect-l1" if self.perfect_l1 else self.prefetcher.name,
            breakdown=breakdown,
            l1_misses=stats.l1_misses,
            l2_misses=stats.l2_misses,
            signature_traffic_bytes=signature_bytes,
            accesses=stats.accesses,
            l2_hits=stats.l2_hits,
        )


def _simulate_speedup(
    benchmark: str,
    prefetcher: Optional[Prefetcher] = None,
    num_accesses: int = 100_000,
    seed: int = 42,
    hierarchy_config: Optional[HierarchyConfig] = None,
    system_config: Optional[SystemConfig] = None,
    perfect_l1: bool = False,
    trace_store: Optional[object] = None,
    observer: Optional[object] = None,
) -> TimingResult:
    """Timing-simulation implementation (``repro.run.execute_spec`` target).

    Split into the trace_acquire / replay / settle phases of a trace
    run; settle runs the timing model over the replay's outcome column.
    """
    from repro.trace.store import load_or_generate_trace

    with obs_phase(PHASE_TRACE_ACQUIRE, observer=observer):
        trace = load_or_generate_trace(
            benchmark, WorkloadConfig(num_accesses=num_accesses, seed=seed), store=trace_store
        )
    simulator = TimingSimulator(
        prefetcher=prefetcher,
        hierarchy_config=hierarchy_config,
        system_config=system_config,
        perfect_l1=perfect_l1,
    )
    with obs_phase(PHASE_REPLAY, observer=observer) as event:
        simulator.replay(trace)
        event.update(replay_event_fields([simulator.simulator]))
    with obs_phase(PHASE_SETTLE, observer=observer) as event:
        result = simulator.build_result(trace)
        event["tier"] = simulator.timing_tier
        return result


def simulate_speedup(
    benchmark: str,
    prefetcher: Optional[Prefetcher] = None,
    num_accesses: int = 100_000,
    seed: int = 42,
    hierarchy_config: Optional[HierarchyConfig] = None,
    system_config: Optional[SystemConfig] = None,
    perfect_l1: bool = False,
) -> TimingResult:
    """Obtain the trace for ``benchmark`` (via the trace store) and run one timing simulation.

    Thin shim over the :class:`repro.run.Session` facade: the call is
    expressed as a timing :class:`~repro.run.RunSpec` and executed
    uncached (a passed ``prefetcher`` instance or ``system_config`` is
    not captured by the spec), producing output bit-identical to the
    historical direct path.
    """
    from repro.run import RunSpec, Session

    spec = RunSpec(
        benchmark=benchmark,
        predictor=getattr(prefetcher, "name", "none") if prefetcher is not None else "none",
        num_accesses=num_accesses,
        seed=seed,
        hierarchy_config=hierarchy_config,
        sim="timing",
        perfect_l1=perfect_l1,
    )
    return Session(use_cache=False).run(spec, prefetcher=prefetcher, system_config=system_config)
