"""Figure 12 — memory-bus utilisation breakdown with LT-cords."""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.bandwidth import BandwidthBreakdown, bandwidth_breakdown

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
if TYPE_CHECKING:
    from repro.run import Session


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
) -> SweepSpec:
    """Declarative Figure 12 sweep: LT-cords on every benchmark."""
    return SweepSpec(
        name="fig12-bandwidth",
        benchmarks=selected_benchmarks(benchmarks),
        variants=[PredictorVariant("ltcords")],
        num_accesses=[num_accesses],
        seeds=[seed],
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    session: Optional["Session"] = None,
) -> List[BandwidthBreakdown]:
    """Measure the per-benchmark bus-traffic breakdown under LT-cords."""
    spec = sweep(benchmarks, num_accesses=num_accesses, seed=seed)
    campaign = run_sweep(spec, session=session)
    return [bandwidth_breakdown(result) for result in campaign.results]


def average_overhead_fraction(rows: Sequence[BandwidthBreakdown], min_base: float = 1.0) -> float:
    """Average predictor overhead for applications above ``min_base`` bytes/instruction.

    The paper reports ~17% overhead for applications exceeding 1 byte per
    instruction of base off-chip traffic and under 4% on average overall.
    """
    eligible = [r for r in rows if r.base_data >= min_base]
    if not eligible:
        return 0.0
    return sum(r.overhead_fraction for r in eligible) / len(eligible)


def format_results(rows: Sequence[BandwidthBreakdown]) -> str:
    """Render the Figure 12 stacked-bar values (bytes per instruction)."""
    body = [
        (r.benchmark, f"{r.base_data:.3f}", f"{r.incorrect_predictions:.3f}",
         f"{r.sequence_creation:.3f}", f"{r.sequence_fetch:.3f}", f"{r.total:.3f}")
        for r in rows
    ]
    footer = (
        f"\nAverage LT-cords overhead for >1 B/instr applications: "
        f"{100 * average_overhead_fraction(rows):.0f}% (paper: ~17%)"
    )
    return format_table(
        ["benchmark", "base data", "incorrect", "seq creation", "seq fetch", "total B/instr"], body
    ) + footer
