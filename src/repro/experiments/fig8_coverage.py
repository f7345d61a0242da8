"""Figure 8 — LT-cords coverage/accuracy versus an unlimited-storage DBCP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.core.ltcords import LTCordsConfig
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
from repro.prefetchers.dbcp import DBCPConfig
from repro.sim.trace_driven import SimulationResult
if TYPE_CHECKING:
    from repro.run import Session


@dataclass
class CoverageRow:
    """Figure 8 bars for one benchmark: LT-cords (A) and unlimited DBCP (B)."""

    benchmark: str
    ltcords: SimulationResult
    oracle_dbcp: SimulationResult

    @property
    def coverage_gap(self) -> float:
        """Oracle coverage minus LT-cords coverage (fraction of opportunity)."""
        return self.oracle_dbcp.coverage - self.ltcords.coverage


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    ltcords_config: Optional[LTCordsConfig] = None,
) -> SweepSpec:
    """Declarative Figure 8 sweep: every benchmark x {LT-cords, oracle DBCP}."""
    return SweepSpec(
        name="fig8-coverage",
        benchmarks=selected_benchmarks(benchmarks),
        variants=[
            PredictorVariant("ltcords", ltcords_config, label="ltcords"),
            PredictorVariant("dbcp", DBCPConfig.unlimited(), label="oracle"),
        ],
        num_accesses=[num_accesses],
        seeds=[seed],
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    ltcords_config: Optional[LTCordsConfig] = None,
    session: Optional["Session"] = None,
) -> List[CoverageRow]:
    """Run LT-cords and the unlimited-storage DBCP oracle on each benchmark."""
    spec = sweep(benchmarks, num_accesses=num_accesses, seed=seed, ltcords_config=ltcords_config)
    campaign = run_sweep(spec, session=session)
    return [
        CoverageRow(
            benchmark=name,
            ltcords=campaign.one(benchmark=name, label="ltcords"),
            oracle_dbcp=campaign.one(benchmark=name, label="oracle"),
        )
        for name in spec.benchmarks
    ]


def average_coverage(rows: Sequence[CoverageRow]) -> float:
    """Average LT-cords coverage across benchmarks (paper: 69% of L1D misses)."""
    if not rows:
        return 0.0
    return sum(r.ltcords.coverage for r in rows) / len(rows)


def format_results(rows: Sequence[CoverageRow]) -> str:
    """Render the Figure 8 breakdown (A = LT-cords, B = unlimited DBCP)."""
    body = []
    for r in rows:
        for label, res in (("A:ltcords", r.ltcords), ("B:oracle", r.oracle_dbcp)):
            b = res.breakdown
            body.append(
                (r.benchmark, label, f"{b.coverage_pct:.0f}%", f"{b.incorrect_pct:.0f}%",
                 f"{b.train_pct:.0f}%", f"{b.early_pct:.0f}%")
            )
    footer = f"\nAverage LT-cords coverage: {100 * average_coverage(rows):.0f}% of L1D misses (paper: 69%)"
    return format_table(
        ["benchmark", "predictor", "correct", "incorrect", "train", "early"], body
    ) + footer
