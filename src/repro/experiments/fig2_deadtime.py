"""Figure 2 — cumulative distribution of cache-block dead-times."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.cdf import merge_distributions, power_of_two_buckets
from repro.analysis.deadtime import measure_dead_times
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, selected_benchmarks
from repro.trace.store import load_or_generate_trace
from repro.workloads.base import WorkloadConfig


@dataclass
class DeadTimeSeries:
    """The dead-time CDF aggregated across benchmarks."""

    thresholds: List[int]
    cdf: List[float]
    fraction_longer_than_memory_latency: float
    memory_latency_cycles: int

    def as_rows(self) -> List[Tuple[int, float]]:
        """``(dead-time threshold in cycles, CDF)`` pairs."""
        return list(zip(self.thresholds, self.cdf))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    memory_latency_cycles: int = 200,
) -> DeadTimeSeries:
    """Measure the dead-time distribution averaged across benchmarks."""
    distributions = []
    for name in selected_benchmarks(benchmarks):
        trace = load_or_generate_trace(name, WorkloadConfig(num_accesses=num_accesses, seed=seed))
        result = measure_dead_times(trace, memory_latency_cycles=memory_latency_cycles)
        distributions.append(result.distribution)
    pooled = merge_distributions(distributions)
    thresholds = power_of_two_buckets(14)  # 1 .. 16384 cycles, as in the paper's x-axis
    cdf = [pooled.fraction_at_or_below(t) for t in thresholds]
    longer = 1.0 - pooled.fraction_at_or_below(memory_latency_cycles)
    return DeadTimeSeries(
        thresholds=thresholds,
        cdf=cdf,
        fraction_longer_than_memory_latency=longer,
        memory_latency_cycles=memory_latency_cycles,
    )


def format_results(series: DeadTimeSeries) -> str:
    """Render the Figure 2 series."""
    table = format_table(
        ["dead time (cycles)", "CDF of cache blocks"],
        [(t, f"{v:.3f}") for t, v in series.as_rows()],
    )
    headline = (
        f"\nFraction of dead times longer than the {series.memory_latency_cycles}-cycle memory latency: "
        f"{100.0 * series.fraction_longer_than_memory_latency:.1f}% (paper: >85%)"
    )
    return table + headline
