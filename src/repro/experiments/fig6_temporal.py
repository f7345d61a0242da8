"""Figure 6 — temporal correlation of cache misses and correlated sequence lengths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.temporal import measure_figure6
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, selected_benchmarks
from repro.trace.store import load_or_generate_trace
from repro.workloads.base import WorkloadConfig

#: Correlation-distance thresholds of the paper's x-axis (Figure 6, left).
DISTANCE_THRESHOLDS = (1, 3, 7, 15, 31, 63, 127, 255)


@dataclass
class TemporalCorrelationRow:
    """Per-benchmark temporal correlation summary."""

    benchmark: str
    perfect_fraction: float
    uncorrelated_fraction: float
    cdf_by_distance: Dict[int, float]
    longest_sequence: int


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    sequence_distance: int = 16,
) -> List[TemporalCorrelationRow]:
    """Measure the Figure 6 metrics for each benchmark."""
    rows: List[TemporalCorrelationRow] = []
    for name in selected_benchmarks(benchmarks):
        trace = load_or_generate_trace(name, WorkloadConfig(num_accesses=num_accesses, seed=seed))
        correlation, sequences = measure_figure6(trace, max_distance=sequence_distance)
        rows.append(
            TemporalCorrelationRow(
                benchmark=name,
                perfect_fraction=correlation.perfect_correlation_fraction,
                uncorrelated_fraction=correlation.uncorrelated_fraction,
                cdf_by_distance={d: correlation.fraction_within(d) for d in DISTANCE_THRESHOLDS},
                longest_sequence=sequences.longest_sequence,
            )
        )
    return rows


def format_results(rows: Sequence[TemporalCorrelationRow]) -> str:
    """Render the Figure 6 summary table."""
    headers = ["benchmark", "perfect (+1)", "uncorrelated"] + [f"<= {d}" for d in DISTANCE_THRESHOLDS] + ["longest seq"]
    body = []
    for r in rows:
        body.append(
            (r.benchmark, f"{100 * r.perfect_fraction:.0f}%", f"{100 * r.uncorrelated_fraction:.0f}%")
            + tuple(f"{100 * r.cdf_by_distance[d]:.0f}%" for d in DISTANCE_THRESHOLDS)
            + (r.longest_sequence,)
        )
    return format_table(headers, body)
