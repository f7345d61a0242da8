"""DRAM parameters.

Table 1 of the paper specifies off-chip memory with a 200-cycle latency
for the first 32 bytes of a transfer and 3 additional cycles for each
subsequent 32-byte chunk, over a 1GB (30-bit) physical space.  The
latency formula over these parameters is
:meth:`repro.timing.config.SystemConfig.memory_block_latency`; bus
traffic is accounted by :mod:`repro.memory.bus`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMConfig:
    """Off-chip memory timing and capacity parameters (Table 1)."""

    size_bytes: int = 1 << 30
    first_chunk_latency: int = 200
    chunk_latency: int = 3
    chunk_bytes: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.first_chunk_latency < 0 or self.chunk_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
