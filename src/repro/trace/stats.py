"""Summary statistics over a memory-reference trace.

These are used by the workload tests to verify that each synthetic
benchmark has the structural properties (footprint, read/write mix,
distinct PCs, repetitiveness) that its paper counterpart motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.trace.stream import TraceStream


@dataclass
class TraceStatistics:
    """Aggregate properties of a trace."""

    name: str
    num_accesses: int
    num_loads: int
    num_stores: int
    instruction_count: int
    unique_pcs: int
    unique_blocks_64b: int
    footprint_bytes: int
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def write_fraction(self) -> float:
        """Fraction of references that are stores."""
        if self.num_accesses == 0:
            return 0.0
        return self.num_stores / self.num_accesses

    @property
    def memory_instruction_fraction(self) -> float:
        """Fraction of dynamic instructions that are memory references."""
        if self.instruction_count == 0:
            return 0.0
        return self.num_accesses / self.instruction_count


def compute_trace_statistics(trace: TraceStream, block_size: int = 64) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace``."""
    columns = trace.as_arrays()
    stores = sum(columns.is_write)
    blocks = trace.unique_blocks(block_size)
    return TraceStatistics(
        name=trace.name,
        num_accesses=len(trace),
        num_loads=len(columns) - stores,
        num_stores=stores,
        instruction_count=trace.instruction_count,
        unique_pcs=len(set(columns.pc)),
        unique_blocks_64b=blocks,
        footprint_bytes=blocks * block_size,
        metadata=dict(trace.metadata),
    )
