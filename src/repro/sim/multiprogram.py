"""Multi-programmed (context-switching) simulation — Section 5.5, Figure 11.

The paper alternates execution between pairs of benchmarks in quanta of
60M (integer) or 120M (floating-point) instructions, shifts one
application's addresses so physical ranges do not overlap, and measures
whether shared LT-cords structures still deliver standalone coverage.
This module reproduces the experiment at the simulator's scale: quanta
are expressed in (scaled) dynamic instructions, the second application's
addresses are shifted by a large constant, and coverage is reported per
application, standalone versus paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import HierarchyConfig
from repro.core.interface import AccessOutcome, Prefetcher
from repro.core.ltcords import FastLTCordsPrefetcher, LTCordsConfig, LTCordsPrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceStream, interleave_quantum, shift_addresses
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import benchmark_metadata, get_workload

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


def _coverage_by_app(
    trace: TraceStream,
    prefetcher: Prefetcher,
    address_split: int,
    hierarchy_config: Optional[HierarchyConfig],
) -> Tuple[float, float]:
    """Run the interleaved trace; report coverage separately per address range."""
    simulator = TraceDrivenSimulator(prefetcher=prefetcher, hierarchy_config=hierarchy_config)
    hierarchy_config = simulator.hierarchy_config

    per_app_base = {0: 0, 1: 0}
    per_app_correct = {0: 0, 1: 0}
    l1_config = hierarchy_config.l1

    # Reuse the simulator's machinery access by access so that misses can be
    # attributed to the owning application (by address range).
    for access in trace:
        app = 1 if access.address >= address_split else 0
        base_result = simulator.baseline.access(access.address, access.is_write)
        main_result = simulator.hierarchy.access(access.address, access.is_write)
        if base_result.l1_miss:
            per_app_base[app] += 1
            if main_result.l1_hit:
                per_app_correct[app] += 1

        block_address = l1_config.block_address(access.address)
        if main_result.l1_hit and main_result.prefetch_hit:
            info = simulator._prefetched.pop(block_address, None)
            if info is not None:
                prefetcher.on_prefetch_used(block_address, info[0])
        if main_result.l1_miss and main_result.l1_result.evicted_was_prefetched_unused:
            simulator._notify_unused_eviction(main_result.l1_result.evicted_address)

        outcome = AccessOutcome(
            access=access,
            block_address=block_address,
            set_index=main_result.l1_result.set_index,
            l1_hit=main_result.l1_hit,
            prefetch_hit=main_result.prefetch_hit,
            evicted_address=main_result.l1_result.evicted_address,
            evicted_was_unused_prefetch=main_result.l1_result.evicted_was_prefetched_unused,
        )
        for command in prefetcher.on_access(outcome):
            simulator.request_queue.push(command.address, command.victim_address, tag=command.tag)
        simulator._execute_prefetches()

    def coverage(app: int) -> float:
        return per_app_correct[app] / per_app_base[app] if per_app_base[app] else 0.0

    return coverage(0), coverage(1)


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
) -> MultiProgramResult:
    """Multi-programmed-simulation implementation (``repro.run.execute_spec`` target)."""
    from repro.trace.store import load_or_generate_trace

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

    paired_prefetcher = LTCordsPrefetcher(ltcords_config)
    primary_cov, secondary_cov = _coverage_by_app(
        interleaved, paired_prefetcher, DEFAULT_ADDRESS_SHIFT, hierarchy_config
    )

    # Standalone runs, truncated to roughly what each application executed
    # in the interleaved run so the comparison is opportunity-for-opportunity.
    # The flat predictor is bit-identical to the object one and lets the
    # fast engine replay on its compiled kernel.
    standalone: Dict[str, float] = {}
    for name, trace in ((primary, primary_trace), (secondary, secondary_trace)):
        simulator = TraceDrivenSimulator(
            prefetcher=FastLTCordsPrefetcher(ltcords_config), hierarchy_config=hierarchy_config
        )
        standalone[name] = simulator.run(trace).coverage

    return MultiProgramResult(
        primary=primary,
        secondary=secondary,
        primary_coverage=primary_cov,
        secondary_coverage=secondary_cov,
        primary_standalone_coverage=standalone[primary],
        secondary_standalone_coverage=standalone[secondary],
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
