"""Timing simulation: functional cache/predictor replay + the OoO timing model.

Used for the speedup comparison of Table 3 and the bandwidth study of
Figure 12.  A timing run is a trace-driven replay
(:meth:`TraceDrivenSimulator.replay`, so it takes the fast engine's
compiled kernel or interpreted tier, or the legacy engine, exactly as a
trace run does) that also records a per-access outcome column.  The
first-order out-of-order timing model then consumes that column in
program order: each reference's main-hierarchy service level, and one
block of bus occupancy per memory-sourced prefetch fill after it.
Predictor metadata traffic is charged to the memory bus at the end.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

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
from repro.timing.config import SystemConfig
from repro.timing.model import OutOfOrderTimingModel, TimingBreakdown
from repro.trace.stream import TraceStream
from repro.workloads.base import WorkloadConfig


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
        engine: str = "fast",
    ) -> None:
        #: Per-access outcome bytes of the replay (see TraceDrivenSimulator.outcomes).
        self.outcomes = array("b")
        self.simulator = TraceDrivenSimulator(
            prefetcher=prefetcher,
            hierarchy_config=hierarchy_config,
            request_queue_size=request_queue_size,
            engine=engine,
            outcomes=self.outcomes,
        )
        self.prefetcher = self.simulator.prefetcher
        self.hierarchy = self.simulator.hierarchy
        self.system_config = system_config or SystemConfig()
        self.perfect_l1 = perfect_l1

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
        """Run the timing model over the recorded outcomes and fold the result."""
        serialize = bool(trace.metadata.get("serial_misses", False))
        core_ipc = trace.metadata.get("core_ipc")
        timing = OutOfOrderTimingModel(
            self.system_config,
            serialize_misses=serialize,
            core_ipc=float(core_ipc) if core_ipc else None,
        )
        observe = timing.observe
        add_bus_traffic = timing.add_bus_traffic
        block_size = self.hierarchy.block_size
        levels = (ServiceLevel.L1,) * 3 if self.perfect_l1 else LEVEL_BY_CODE
        spill = iter(self.simulator.fill_spill)
        for icount, outcome in zip(trace.as_arrays().icount, self.outcomes):
            observe(icount, levels[outcome & OUTCOME_LEVEL_MASK])
            fills = outcome >> OUTCOME_FILL_SHIFT
            if fills:
                if fills == OUTCOME_FILL_SPILL:
                    fills = next(spill)
                # Prefetch transfers occupy the bus like any other off-chip
                # transfer; useful ones replace a later demand transfer, but
                # modelling the occupancy here keeps bandwidth-bound
                # benchmarks honest.
                for _ in range(fills):
                    add_bus_traffic(block_size)

        signature_bytes = self.prefetcher.signature_traffic_bytes()
        timing.add_bus_traffic(signature_bytes)
        breakdown = timing.finalize()
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
    engine: str = "fast",
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
        engine=engine,
    )
    with obs_phase(PHASE_REPLAY, observer=observer):
        simulator.replay(trace)
    with obs_phase(PHASE_SETTLE, observer=observer):
        return simulator.build_result(trace)


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
