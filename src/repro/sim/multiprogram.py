"""Multi-programmed (context-switching) simulation — Section 5.5, Figure 11.

The paper alternates execution between pairs of benchmarks in quanta of
60M (integer) or 120M (floating-point) instructions, shifts one
application's addresses so physical ranges do not overlap, and measures
whether shared LT-cords structures still deliver standalone coverage.
This module reproduces the experiment at the simulator's scale: quanta
are expressed in (scaled) dynamic instructions, the second application's
addresses are shifted by a large constant, and coverage is reported per
application, standalone versus paired.

The pair replays like any trace run (:meth:`TraceDrivenSimulator.replay`,
so on the compiled kernel when it is available) with one
shared LT-cords predictor; per-application coverage is counted from the
replay's per-access outcome column, attributed by address range.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import HierarchyConfig
from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher
from repro.obs.timers import PHASE_REPLAY, PHASE_SETTLE, PHASE_TRACE_ACQUIRE
from repro.obs.timers import phase as obs_phase
from repro.sim.trace_driven import OUTCOME_BASE_MISS, OUTCOME_LEVEL_MASK, TraceDrivenSimulator
from repro.sim.vector_replay import replay_event_fields
from repro.trace.stream import interleave_quantum, shift_addresses
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import benchmark_metadata

#: Address shift applied to the second application in a pair (1GB), mirroring
#: the paper's "non-overlapping physical address ranges".
DEFAULT_ADDRESS_SHIFT = 1 << 30


def coverage_retention(paired_coverage: float, standalone_coverage: float) -> float:
    """Paired coverage relative to standalone, guarded against zero opportunity.

    An application with no standalone coverage cannot lose any to
    co-scheduling, so retention is defined as 1.0 there.  Single source
    for both retention properties below and for the shared-L2 retention
    columns of the Figure 11 driver.
    """
    if standalone_coverage == 0:
        return 1.0
    return paired_coverage / standalone_coverage


@dataclass
class MultiProgramResult:
    """Coverage of each application when co-scheduled."""

    primary: str
    secondary: str
    primary_coverage: float
    secondary_coverage: float
    primary_standalone_coverage: float
    secondary_standalone_coverage: float
    context_switches: int

    @property
    def primary_coverage_retention(self) -> float:
        """Paired coverage of the primary application relative to standalone."""
        return coverage_retention(self.primary_coverage, self.primary_standalone_coverage)

    @property
    def secondary_coverage_retention(self) -> float:
        """Paired coverage of the secondary application relative to standalone."""
        return coverage_retention(self.secondary_coverage, self.secondary_standalone_coverage)

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-safe encoding (enables workers and the result cache)."""
        return {
            "primary": self.primary,
            "secondary": self.secondary,
            "primary_coverage": self.primary_coverage,
            "secondary_coverage": self.secondary_coverage,
            "primary_standalone_coverage": self.primary_standalone_coverage,
            "secondary_standalone_coverage": self.secondary_standalone_coverage,
            "context_switches": self.context_switches,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MultiProgramResult":
        """Reconstruct a result from :meth:`to_dict` output."""
        return cls(**data)


def _quantum_instructions(benchmark: str, base_quantum: int) -> int:
    """Scaled context-switch quantum: FP applications get twice the instructions.

    The paper assumes IPC 1.5 for integer and 3.0 for floating-point
    applications, giving 60M/120M-instruction quanta at a fixed time
    slice; the 2x ratio is what matters at our scale.
    """
    metadata = benchmark_metadata(benchmark)
    return base_quantum * 2 if metadata.is_floating_point else base_quantum


def _coverage_by_app(outcomes: array, addresses, address_split: int) -> Tuple[float, float]:
    """Coverage per application of a paired replay, split by address range.

    ``outcomes`` is the replay's per-access outcome column: an access
    is a prediction opportunity on a baseline L1 miss and is covered
    when the main hierarchy hit in the L1 anyway.
    """
    base_misses = [0, 0]
    correct = [0, 0]
    for outcome, address in zip(outcomes, addresses):
        if outcome & OUTCOME_BASE_MISS:
            app = address >= address_split
            base_misses[app] += 1
            if not outcome & OUTCOME_LEVEL_MASK:
                correct[app] += 1
    return tuple(
        correct[app] / base_misses[app] if base_misses[app] else 0.0 for app in (0, 1)
    )


def _simulate_pair(
    primary: str,
    secondary: str,
    num_accesses: int = 120_000,
    quantum_instructions: int = 20_000,
    max_switches: int = 60,
    seed: int = 42,
    hierarchy_config: Optional[HierarchyConfig] = None,
    ltcords_config: Optional[LTCordsConfig] = None,
    trace_store: Optional[object] = None,
    observer: Optional[object] = None,
) -> MultiProgramResult:
    """Multi-programmed-simulation implementation (``repro.run.execute_spec`` target).

    Three replays — the interleaved pair with
    one shared LT-cords predictor, then each application standalone on
    its full trace — split into the trace_acquire / replay / settle
    phases of a trace run.
    """
    from repro.trace.store import load_or_generate_trace

    with obs_phase(PHASE_TRACE_ACQUIRE, observer=observer):
        config = WorkloadConfig(num_accesses=num_accesses, seed=seed)
        primary_trace = load_or_generate_trace(primary, config, store=trace_store)
        secondary_trace = shift_addresses(
            load_or_generate_trace(secondary, config, store=trace_store), DEFAULT_ADDRESS_SHIFT
        )
        interleaved = interleave_quantum(
            [primary_trace, secondary_trace],
            quanta=[
                _quantum_instructions(primary, quantum_instructions),
                _quantum_instructions(secondary, quantum_instructions),
            ],
            max_switches=max_switches,
            name=f"{primary}+{secondary}",
        )

    outcomes = array("b")
    paired, *standalone = (
        TraceDrivenSimulator(
            prefetcher=LTCordsPrefetcher(ltcords_config),
            hierarchy_config=hierarchy_config,
            outcomes=column,
        )
        for column in (outcomes, None, None)
    )
    traces = (primary_trace, secondary_trace)
    with obs_phase(PHASE_REPLAY, observer=observer) as event:
        paired.replay(interleaved)
        for simulator, trace in zip(standalone, traces):
            simulator.replay(trace)
        event.update(replay_event_fields([paired, *standalone]))
    with obs_phase(PHASE_SETTLE, observer=observer):
        primary_cov, secondary_cov = _coverage_by_app(
            outcomes, interleaved.as_arrays().address, DEFAULT_ADDRESS_SHIFT
        )
        primary_alone, secondary_alone = (
            simulator.build_result(trace).coverage
            for simulator, trace in zip(standalone, traces)
        )

    return MultiProgramResult(
        primary=primary,
        secondary=secondary,
        primary_coverage=primary_cov,
        secondary_coverage=secondary_cov,
        primary_standalone_coverage=primary_alone,
        secondary_standalone_coverage=secondary_alone,
        context_switches=max_switches,
    )


def simulate_pair(
    primary: str,
    secondary: str,
    num_accesses: int = 120_000,
    quantum_instructions: int = 20_000,
    max_switches: int = 60,
    seed: int = 42,
    hierarchy_config: Optional[HierarchyConfig] = None,
    ltcords_config: Optional[LTCordsConfig] = None,
) -> MultiProgramResult:
    """Simulate ``primary`` co-scheduled with ``secondary`` under shared LT-cords state.

    ``num_accesses`` is the per-application trace length; ``quantum_instructions``
    is the (scaled) integer-application context-switch quantum.  Thin shim
    over the :class:`repro.run.Session` facade: the pairing is expressed
    as a multiprogram :class:`~repro.run.RunSpec` and executed uncached,
    bit-identical to the historical direct path.
    """
    from repro.run import RunSpec, Session

    spec = RunSpec(
        benchmark=primary,
        secondary=secondary,
        sim="multiprogram",
        predictor="ltcords",
        predictor_config=ltcords_config,
        num_accesses=num_accesses,
        quantum_instructions=quantum_instructions,
        max_switches=max_switches,
        seed=seed,
        hierarchy_config=hierarchy_config,
    )
    return Session(use_cache=False).run(spec)
