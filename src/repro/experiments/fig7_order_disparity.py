"""Figure 7 — last-touch versus cache-miss order correlation distance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.order_disparity import measure_order_disparity
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, selected_benchmarks
from repro.trace.store import load_or_generate_trace
from repro.workloads.base import WorkloadConfig

#: The paper's x-axis: |last-touch to miss correlation distance| up to 2K.
DISTANCE_THRESHOLDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass
class OrderDisparityRow:
    """Per-benchmark order-disparity summary."""

    benchmark: str
    perfect_fraction: float
    cdf_by_distance: Dict[int, float]
    reorder_window_for_98pct: float


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
) -> List[OrderDisparityRow]:
    """Measure Figure 7's distributions for each benchmark."""
    rows: List[OrderDisparityRow] = []
    for name in selected_benchmarks(benchmarks):
        trace = load_or_generate_trace(name, WorkloadConfig(num_accesses=num_accesses, seed=seed))
        result = measure_order_disparity(trace)
        rows.append(
            OrderDisparityRow(
                benchmark=name,
                perfect_fraction=result.perfect_fraction,
                cdf_by_distance={d: result.fraction_within(d) for d in DISTANCE_THRESHOLDS},
                reorder_window_for_98pct=result.reorder_tolerance_for(0.98),
            )
        )
    return rows


def average_perfect_fraction(rows: Sequence[OrderDisparityRow]) -> float:
    """Average fraction of perfectly ordered evictions (paper: ~21%)."""
    if not rows:
        return 0.0
    return sum(r.perfect_fraction for r in rows) / len(rows)


def format_results(rows: Sequence[OrderDisparityRow]) -> str:
    """Render the Figure 7 summary table."""
    headers = ["benchmark", "perfect (+1)"] + [f"<= {d}" for d in DISTANCE_THRESHOLDS] + ["98% window"]
    body = []
    for r in rows:
        body.append(
            (r.benchmark, f"{100 * r.perfect_fraction:.0f}%")
            + tuple(f"{100 * r.cdf_by_distance[d]:.0f}%" for d in DISTANCE_THRESHOLDS)
            + (f"{r.reorder_window_for_98pct:.0f}",)
        )
    footer = f"\nAverage perfectly-ordered fraction: {100 * average_perfect_fraction(rows):.0f}% (paper: 21%)"
    return format_table(headers, body) + footer
