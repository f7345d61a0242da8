"""Shared helpers for the experiment drivers.

The paper's evaluation runs 28 benchmarks for billions of instructions;
the reproduction scales both the benchmark set and the trace length so a
full figure regenerates in minutes of pure Python.  By default the
experiment drivers run a representative subset covering every access
pattern family; set the environment variable ``REPRO_FULL=1`` (or pass
``benchmarks=...`` explicitly) to sweep all 28 benchmarks.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

# Single-sourced from the spec layer (long enough for three to four
# outer-loop iterations of the largest workloads); re-exported here for
# the experiment drivers.
from repro.campaign.spec import DEFAULT_NUM_ACCESSES
from repro.workloads.registry import BENCHMARK_NAMES

if TYPE_CHECKING:
    from repro.campaign.runner import CampaignResult
    from repro.campaign.spec import PointSpec, SweepSpec
    from repro.run import Session

#: Small, fast subset used by the pytest-benchmark harnesses.
QUICK_BENCHMARKS: List[str] = ["mcf", "swim", "em3d", "gzip"]

#: Representative subset covering every access-pattern family: pointer
#: chasing (mcf, em3d, bh), strided loops (swim, applu), indirect gathers
#: (art), streaming with little reuse (gap), hash-dominated (gzip, twolf),
#: cache-resident (crafty) and mixed (gcc).
REPRESENTATIVE_BENCHMARKS: List[str] = [
    "mcf", "em3d", "bh", "treeadd", "swim", "applu", "art", "equake",
    "gap", "gzip", "twolf", "crafty", "gcc",
]


def selected_benchmarks(benchmarks: Optional[Sequence[str]] = None) -> List[str]:
    """Resolve the benchmark list for an experiment run.

    Explicit ``benchmarks`` win; otherwise ``REPRO_FULL=1`` selects all 28
    paper benchmarks and the default is the representative subset.
    """
    if benchmarks is not None:
        unknown = [b for b in benchmarks if b not in BENCHMARK_NAMES]
        if unknown:
            raise KeyError(f"unknown benchmarks: {', '.join(unknown)}")
        return list(benchmarks)
    if os.environ.get("REPRO_FULL", "").strip() in {"1", "true", "yes"}:
        return list(BENCHMARK_NAMES)
    return list(REPRESENTATIVE_BENCHMARKS)


def run_sweep(
    spec: "SweepSpec | Sequence[PointSpec]",
    session: "Optional[Session]" = None,
) -> "CampaignResult":
    """Execute a driver's sweep through the :class:`~repro.run.Session` facade.

    Every figure/table driver funnels its campaign through here, so the
    facade owns caching and parallelism for all of them.
    """
    from repro.run import Session

    return (session or Session()).sweep(spec)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table (the benches print these)."""
    materialised = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialised)
    return "\n".join(lines)
