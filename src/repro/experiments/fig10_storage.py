"""Figure 10 — LT-cords coverage versus off-chip sequence storage size."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.core.ltcords import LTCordsConfig
from repro.core.sequence_storage import SequenceStorageConfig
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
if TYPE_CHECKING:
    from repro.run import Session

#: Off-chip capacities swept, in signatures.  The paper sweeps 2M..32M for
#: full-size benchmarks; the scaled traces create tens of thousands of
#: signatures, so the sweep covers the same relative range.
DEFAULT_CAPACITIES = (4096, 8192, 16384, 32768, 65536, 131072)

#: Benchmarks the paper highlights as having the largest storage needs.
DEFAULT_BENCHMARKS = ("lucas", "mgrid", "applu", "swim", "mcf", "art")


@dataclass
class StorageSweep:
    """Coverage per off-chip storage capacity (fraction of achievable)."""

    capacities: List[int]
    normalized_coverage: Dict[str, List[float]]


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    fragment_size: int = 512,
) -> SweepSpec:
    """Declarative Figure 10 sweep: every benchmark x off-chip capacity."""
    names = selected_benchmarks(list(benchmarks) if benchmarks is not None else list(DEFAULT_BENCHMARKS))
    variants = [
        PredictorVariant(
            "ltcords",
            LTCordsConfig(
                storage_config=SequenceStorageConfig(
                    num_frames=max(1, capacity // fragment_size), fragment_size=fragment_size
                ),
            ),
            label=f"capacity:{capacity}",
        )
        for capacity in capacities
    ]
    return SweepSpec(
        name="fig10-storage",
        benchmarks=names,
        variants=variants,
        num_accesses=[num_accesses],
        seeds=[seed],
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    fragment_size: int = 512,
    session: Optional["Session"] = None,
) -> StorageSweep:
    """Sweep the number of off-chip frames (capacity = frames x fragment size)."""
    spec = sweep(
        benchmarks,
        capacities=capacities,
        num_accesses=num_accesses,
        seed=seed,
        fragment_size=fragment_size,
    )
    names = list(spec.benchmarks)
    campaign = run_sweep(spec, session=session)
    coverage: Dict[str, List[float]] = {name: [] for name in names}
    for capacity in capacities:
        for name in names:
            coverage[name].append(campaign.one(benchmark=name, label=f"capacity:{capacity}").coverage)

    normalised: Dict[str, List[float]] = {}
    for name in names:
        best = max(coverage[name]) or 1.0
        normalised[name] = [c / best if best > 0.01 else 0.0 for c in coverage[name]]
    return StorageSweep(capacities=list(capacities), normalized_coverage=normalised)


def format_results(sweep: StorageSweep) -> str:
    """Render the Figure 10 series."""
    headers = ["benchmark"] + [f"{c // 1024}K sigs" for c in sweep.capacities]
    body = [
        (name,) + tuple(f"{100 * v:.0f}%" for v in series)
        for name, series in sorted(sweep.normalized_coverage.items())
    ]
    return format_table(headers, body)
