"""Figure 4 — DBCP coverage versus on-chip correlation-table size.

The paper sweeps the DBCP table from 160KB to 320MB and normalises
coverage to an unlimited-storage DBCP, showing that practical table sizes
achieve a small fraction of achievable coverage (and that the worst-case
benchmark, wupwise, gets essentially nothing below 80MB).  The
reproduction sweeps table sizes scaled to the synthetic footprints and
reports the same normalised metric for the average and worst benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
from repro.prefetchers.dbcp import DBCPConfig
if TYPE_CHECKING:
    from repro.run import Session

#: Default sweep of correlation-table capacities (in signatures).  The
#: paper sweeps 160KB..320MB (~32K..64M signatures at 5 bytes each); the
#: scaled sweep covers the same two-orders-of-magnitude range relative to
#: the scaled footprints.
DEFAULT_TABLE_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536)


@dataclass
class DBCPSensitivityResult:
    """Normalised DBCP coverage per table size."""

    table_sizes: List[int]
    average_normalized_coverage: List[float]
    worst_case_normalized_coverage: List[float]
    unlimited_coverage: Dict[str, float]


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
) -> SweepSpec:
    """Declarative Figure 4 sweep: every benchmark x {unlimited, each table size}."""
    variants = [PredictorVariant("dbcp", DBCPConfig(table_entries=None), label="unlimited")]
    variants.extend(
        PredictorVariant("dbcp", DBCPConfig(table_entries=size), label=f"entries:{size}")
        for size in table_sizes
    )
    return SweepSpec(
        name="fig4-dbcp-sensitivity",
        benchmarks=selected_benchmarks(benchmarks),
        variants=variants,
        num_accesses=[num_accesses],
        seeds=[seed],
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    table_sizes: Sequence[int] = DEFAULT_TABLE_SIZES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    session: Optional["Session"] = None,
) -> DBCPSensitivityResult:
    """Sweep DBCP table sizes and normalise coverage to the unlimited table."""
    spec = sweep(benchmarks, table_sizes=table_sizes, num_accesses=num_accesses, seed=seed)
    names = list(spec.benchmarks)
    campaign = run_sweep(spec, session=session)

    unlimited = {name: campaign.one(benchmark=name, label="unlimited").coverage for name in names}
    # Benchmarks with no achievable coverage cannot be normalised; drop them.
    usable = [name for name, cov in unlimited.items() if cov > 0.01]

    average_series: List[float] = []
    worst_series: List[float] = []
    for size in table_sizes:
        normalised = []
        for name in usable:
            coverage = campaign.one(benchmark=name, label=f"entries:{size}").coverage
            normalised.append(coverage / unlimited[name])
        average_series.append(sum(normalised) / len(normalised) if normalised else 0.0)
        worst_series.append(min(normalised) if normalised else 0.0)

    return DBCPSensitivityResult(
        table_sizes=list(table_sizes),
        average_normalized_coverage=average_series,
        worst_case_normalized_coverage=worst_series,
        unlimited_coverage=unlimited,
    )


def format_results(result: DBCPSensitivityResult) -> str:
    """Render the Figure 4 series."""
    sig_bytes = DBCPConfig().signature_config.stored_bytes
    return format_table(
        ["table entries", "table size", "avg % of achievable", "worst-case %"],
        [
            (size, f"{size * sig_bytes // 1024}KB",
             f"{100.0 * avg:.0f}", f"{100.0 * worst:.0f}")
            for size, avg, worst in zip(
                result.table_sizes,
                result.average_normalized_coverage,
                result.worst_case_normalized_coverage,
            )
        ],
    )
