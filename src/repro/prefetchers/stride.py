"""Per-PC stride prefetcher (reference prediction table).

A classic Baer/Chen-style stride predictor, included as an additional
baseline and as an ablation point: the paper notes that GHB PC/DC
subsumes stride prefetching, and the benchmark harness can verify that
the GHB baseline never does worse than this simpler predictor on the
strided synthetic workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher


@dataclass(frozen=True)
class StrideConfig:
    """Reference-prediction-table geometry and aggressiveness."""

    table_entries: int = 256
    degree: int = 2
    block_size: int = 64
    train_threshold: int = 2

    def __post_init__(self) -> None:
        if self.table_entries <= 0:
            raise ValueError("table_entries must be positive")
        if self.degree <= 0:
            raise ValueError("degree must be positive")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if self.train_threshold <= 0:
            raise ValueError("train_threshold must be positive")


@dataclass
class _RPTEntry:
    last_address: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher(Prefetcher):
    """Per-PC stride predictor with a small LRU reference prediction table."""

    name = "stride"

    def __init__(self, config: Optional[StrideConfig] = None) -> None:
        super().__init__()
        self.config = config or StrideConfig()
        self._table: "OrderedDict[int, _RPTEntry]" = OrderedDict()

    def _entry_for(self, pc: int) -> Optional[_RPTEntry]:
        entry = self._table.get(pc)
        if entry is not None:
            self._table.move_to_end(pc)
        return entry

    def _install(self, pc: int, address: int) -> _RPTEntry:
        if len(self._table) >= self.config.table_entries:
            self._table.popitem(last=False)
        entry = _RPTEntry(last_address=address)
        self._table[pc] = entry
        return entry

    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        self.stats.accesses_observed += 1
        if outcome.l1_miss:
            self.stats.misses_observed += 1

        pc = outcome.access.pc
        address = outcome.access.address
        entry = self._entry_for(pc)
        if entry is None:
            self._install(pc, address)
            return []

        stride = address - entry.last_address
        if stride == entry.stride and stride != 0:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = 0
            entry.stride = stride
        entry.last_address = address

        if entry.confidence < self.config.train_threshold or not outcome.l1_miss:
            return []

        commands: List[PrefetchCommand] = []
        mask = ~(self.config.block_size - 1)
        seen = set()
        for k in range(1, self.config.degree + 1):
            target = address + entry.stride * k
            if target < 0:
                break
            aligned = target & mask
            if aligned == outcome.block_address or aligned in seen:
                continue
            seen.add(aligned)
            self.stats.predictions_issued += 1
            commands.append(PrefetchCommand(address=aligned, victim_address=None, tag=pc))
        return commands
