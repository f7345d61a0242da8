"""Figure 9 — LT-cords coverage sensitivity to signature-cache size."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.campaign.spec import PredictorVariant, SweepSpec
from repro.core.ltcords import LTCordsConfig
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.experiments.common import DEFAULT_NUM_ACCESSES, format_table, run_sweep, selected_benchmarks
if TYPE_CHECKING:
    from repro.run import Session

#: Signature-cache sizes swept (entries).  The paper sweeps 128 .. 128K.
DEFAULT_SIZES = (128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


@dataclass
class SignatureCacheSweep:
    """Normalised coverage per signature-cache size."""

    sizes: List[int]
    normalized_coverage: List[float]
    per_benchmark: Dict[str, Dict[int, float]]


def sweep(
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    associativity: int = 8,
) -> SweepSpec:
    """Declarative Figure 9 sweep: every benchmark x signature-cache size."""
    storage = SequenceStorageConfig(num_frames=1, fragment_size=512, unlimited_frames=True)
    variants = [
        PredictorVariant(
            "ltcords",
            LTCordsConfig(
                signature_cache_config=SignatureCacheConfig(
                    num_entries=size, associativity=associativity
                ),
                storage_config=storage,
            ),
            label=f"size:{size}",
        )
        for size in sizes
    ]
    return SweepSpec(
        name="fig9-sigcache",
        benchmarks=selected_benchmarks(benchmarks),
        variants=variants,
        num_accesses=[num_accesses],
        seeds=[seed],
    )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_accesses: int = DEFAULT_NUM_ACCESSES,
    seed: int = 42,
    associativity: int = 8,
    session: Optional["Session"] = None,
) -> SignatureCacheSweep:
    """Sweep signature-cache sizes, normalising to the largest size swept.

    As in the paper's experiment, the off-chip sequence storage is made
    effectively unlimited so the signature cache is the only bottleneck,
    and a higher associativity (8-way) removes conflict bias at small sizes.
    """
    spec = sweep(
        benchmarks, sizes=sizes, num_accesses=num_accesses, seed=seed, associativity=associativity
    )
    names = list(spec.benchmarks)
    campaign = run_sweep(spec, session=session)
    per_benchmark: Dict[str, Dict[int, float]] = {name: {} for name in names}
    for size in sizes:
        for name in names:
            per_benchmark[name][size] = campaign.one(benchmark=name, label=f"size:{size}").coverage

    normalised: List[float] = []
    reference_size = max(sizes)
    for size in sizes:
        values = []
        for name in names:
            reference = per_benchmark[name][reference_size]
            if reference > 0.01:
                values.append(per_benchmark[name][size] / reference)
        normalised.append(sum(values) / len(values) if values else 0.0)
    return SignatureCacheSweep(sizes=list(sizes), normalized_coverage=normalised, per_benchmark=per_benchmark)


def format_results(sweep: SignatureCacheSweep) -> str:
    """Render the Figure 9 series."""
    return format_table(
        ["signature cache entries", "% of achievable coverage"],
        [(s, f"{100 * v:.0f}") for s, v in zip(sweep.sizes, sweep.normalized_coverage)],
    )
