"""Figure 11 — LT-cords coverage in a multi-programmed environment.

Two models of co-scheduling are reported side by side:

* the **pairwise (context-switching) mode** — the historical
  approximation: one core, quantum-interleaved traces with shifted
  address ranges, shared LT-cords structures
  (:mod:`repro.sim.multiprogram`); and
* the **shared-L2 mode** — the :mod:`repro.multicore` co-run: two cores
  with private L1s and per-core LT-cords prefetchers genuinely
  contending for one L2 and one bus, which additionally surfaces the
  structural interference (cross-core evictions) the pairwise mode
  cannot see.

Both modes measure the paper's question — how much standalone coverage
survives co-scheduling — against the same standalone baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING, Tuple

from repro.campaign.spec import PointSpec, SweepSpec
from repro.experiments.common import format_table, run_sweep
from repro.multicore import MulticoreResult, MulticoreSpec
from repro.sim.multiprogram import MultiProgramResult, coverage_retention
if TYPE_CHECKING:
    from repro.run import Session

#: The benchmark pairings shown in Figure 11 of the paper (primary, secondary).
DEFAULT_PAIRINGS: Tuple[Tuple[str, str], ...] = (
    ("gcc", "mcf"), ("gcc", "gzip"), ("gcc", "swim"),
    ("mcf", "gcc"), ("mcf", "vortex"), ("mcf", "fma3d"),
    ("swim", "fma3d"), ("swim", "mesa"), ("swim", "gcc"),
    ("fma3d", "swim"), ("fma3d", "facerec"), ("fma3d", "mcf"),
    ("lucas", "applu"), ("lucas", "mgrid"),
)


@dataclass
class MultiProgramRow:
    """One pairing's coverage: standalone, pairwise-paired, and shared-L2."""

    result: MultiProgramResult
    #: The shared-L2 co-run of the same pairing (``None`` when the
    #: shared-L2 mode was not swept).
    shared: Optional[MulticoreResult] = None

    @property
    def label(self) -> str:
        """``primary w/ secondary`` label matching the paper's x-axis."""
        return f"{self.result.primary} w/ {self.result.secondary}"

    @property
    def shared_primary_coverage(self) -> float:
        """Primary coverage under genuine shared-L2 contention."""
        return self.shared.per_core[0].coverage if self.shared is not None else 0.0

    @property
    def shared_primary_retention(self) -> float:
        """Shared-L2 primary coverage relative to the standalone run."""
        return coverage_retention(
            self.shared_primary_coverage, self.result.primary_standalone_coverage
        )


def sweep(
    pairings: Optional[Sequence[Tuple[str, str]]] = None,
    num_accesses: int = 90_000,
    quantum_instructions: int = 20_000,
    max_switches: int = 60,
    seed: int = 42,
    shared_l2: bool = True,
) -> SweepSpec:
    """Declarative Figure 11 sweep: per pairing, one multiprogram point
    (pairwise mode) and — unless ``shared_l2=False`` — one 2-core
    multicore co-run (shared-L2 mode)."""
    pairings = tuple(pairings if pairings is not None else DEFAULT_PAIRINGS)
    points: List[object] = [
        PointSpec(
            benchmark=primary,
            secondary=secondary,
            sim="multiprogram",
            num_accesses=num_accesses,
            quantum_instructions=quantum_instructions,
            max_switches=max_switches,
            seed=seed,
            label=f"{primary}+{secondary}",
        )
        for primary, secondary in pairings
    ]
    if shared_l2:
        points.extend(
            MulticoreSpec(
                benchmarks=(primary, secondary),
                predictors=("ltcords",),
                num_accesses=num_accesses,
                seed=seed,
                label=f"{primary}+{secondary}:shared-l2",
            )
            for primary, secondary in pairings
        )
    return SweepSpec(name="fig11-multiprogram", extra_points=points)


def run(
    pairings: Optional[Sequence[Tuple[str, str]]] = None,
    num_accesses: int = 90_000,
    quantum_instructions: int = 20_000,
    max_switches: int = 60,
    seed: int = 42,
    shared_l2: bool = True,
    session: Optional["Session"] = None,
) -> List[MultiProgramRow]:
    """Simulate each pairing in both co-scheduling modes."""
    pairings = tuple(pairings if pairings is not None else DEFAULT_PAIRINGS)
    spec = sweep(
        pairings,
        num_accesses=num_accesses,
        quantum_instructions=quantum_instructions,
        max_switches=max_switches,
        seed=seed,
        shared_l2=shared_l2,
    )
    campaign = run_sweep(spec, session=session)
    # sweep() emits the pairwise points first, then the shared-L2 points,
    # both in pairing order.
    pairwise = campaign.results[: len(pairings)]
    shared = campaign.results[len(pairings):] if shared_l2 else [None] * len(pairings)
    return [
        MultiProgramRow(result=result, shared=co_run)
        for result, co_run in zip(pairwise, shared)
    ]


def format_results(rows: Sequence[MultiProgramRow]) -> str:
    """Render the Figure 11 comparison (both co-scheduling modes)."""
    with_shared = any(row.shared is not None for row in rows)
    headers = ["pairing", "standalone coverage", "paired coverage", "retention"]
    if with_shared:
        headers += ["shared-L2 coverage", "shared-L2 retention", "xcore evictions"]
    body = []
    for row in rows:
        cells = [
            row.label,
            f"{100 * row.result.primary_standalone_coverage:.0f}%",
            f"{100 * row.result.primary_coverage:.0f}%",
            f"{100 * row.result.primary_coverage_retention:.0f}%",
        ]
        if with_shared:
            if row.shared is not None:
                cells += [
                    f"{100 * row.shared_primary_coverage:.0f}%",
                    f"{100 * row.shared_primary_retention:.0f}%",
                    str(row.shared.cross_core_evictions),
                ]
            else:
                cells += ["-", "-", "-"]
        body.append(tuple(cells))
    return format_table(headers, body)
