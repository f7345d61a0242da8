"""Table 2 — baseline L1/L2 miss rates and IPC per benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
from repro.workloads.registry import benchmark_metadata
if TYPE_CHECKING:
    from repro.run import Session


@dataclass
class BaselineRow:
    """Measured versus paper-reported baseline characteristics of one benchmark."""

    benchmark: str
    l1_miss_pct: float
    l2_miss_pct: float
    ipc: float
    paper_l1_miss_pct: float
    paper_l2_miss_pct: float
    paper_ipc: float


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
) -> SweepSpec:
    """Declarative Table 2 sweep: one baseline timing run per benchmark."""
    return SweepSpec(
        name="table2-baseline",
        benchmarks=selected_benchmarks(benchmarks),
        variants=[PredictorVariant("none", label="baseline")],
        num_accesses=[num_accesses],
        seeds=[seed],
        sim="timing",
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    session: Optional["Session"] = None,
) -> List[BaselineRow]:
    """Measure baseline miss rates and model IPC for each benchmark."""
    spec = sweep(benchmarks, num_accesses=num_accesses, seed=seed)
    campaign = run_sweep(spec, session=session)
    rows: List[BaselineRow] = []
    for name in spec.benchmarks:
        metadata = benchmark_metadata(name)
        result = campaign.one(benchmark=name, label="baseline")
        rows.append(
            BaselineRow(
                benchmark=name,
                l1_miss_pct=100.0 * result.l1_miss_rate,
                l2_miss_pct=100.0 * result.l2_miss_rate,
                ipc=result.ipc,
                paper_l1_miss_pct=metadata.paper_l1_miss_pct,
                paper_l2_miss_pct=metadata.paper_l2_miss_pct,
                paper_ipc=metadata.paper_ipc,
            )
        )
    return rows


def format_results(rows: Sequence[BaselineRow]) -> str:
    """Render Table 2 (measured alongside the paper's values)."""
    return format_table(
        ["benchmark", "L1 miss %", "L2 miss %", "IPC", "paper L1 %", "paper L2 %", "paper IPC"],
        [
            (r.benchmark, f"{r.l1_miss_pct:.0f}", f"{r.l2_miss_pct:.0f}", f"{r.ipc:.2f}",
             f"{r.paper_l1_miss_pct:.0f}", f"{r.paper_l2_miss_pct:.0f}", f"{r.paper_ipc:.2f}")
            for r in rows
        ],
    )
