"""Dead-Block Correlating Prefetcher (DBCP), the on-chip baseline.

DBCP (Lai & Falsafi, ISCA 2001; Section 2 of the LT-cords paper) builds
exactly the same last-touch signatures as LT-cords but stores the
correlation data in an on-chip table.  With unlimited capacity it is the
"oracle" upper bound LT-cords is compared against (Figure 8); with a
practical 2MB table it is the realistic baseline of Table 3, and its
coverage collapses as the table shrinks (Figure 4).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.core.history import HistoryTable
from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher
from repro.core.signatures import SignatureConfig


@dataclass(frozen=True)
class DBCPConfig:
    """DBCP configuration.

    ``table_entries`` is the capacity of the on-chip correlation table in
    signatures; ``None`` models the unlimited-storage oracle.  The paper's
    realistic DBCP uses a 2MB table; at roughly 5 bytes per signature that
    is ~400K entries.
    """

    cache_config: CacheConfig = L1D_CONFIG
    signature_config: SignatureConfig = field(default_factory=SignatureConfig)
    table_entries: Optional[int] = 400 * 1024
    confidence_threshold: int = 2
    initial_confidence: int = 2
    max_confidence: int = 3

    def __post_init__(self) -> None:
        if self.table_entries is not None and self.table_entries <= 0:
            raise ValueError("table_entries must be positive or None for unlimited")
        if not 0 <= self.initial_confidence <= self.max_confidence:
            raise ValueError("initial_confidence must lie within the counter range")
        if self.max_confidence >= 256:
            # The compiled kernel packs a table entry as (predicted << 8) | confidence.
            raise ValueError("max_confidence must fit an 8-bit confidence counter")

    @property
    def is_unlimited(self) -> bool:
        """``True`` when the correlation table has no capacity limit."""
        return self.table_entries is None

    def table_bytes(self) -> Optional[int]:
        """On-chip correlation table size in bytes (``None`` when unlimited)."""
        if self.table_entries is None:
            return None
        return self.table_entries * self.signature_config.stored_bytes

    @classmethod
    def with_table_bytes(cls, table_bytes: int, **kwargs) -> "DBCPConfig":
        """Build a configuration whose table holds ``table_bytes`` of signatures."""
        signature_config = kwargs.pop("signature_config", SignatureConfig())
        entries = max(1, table_bytes // signature_config.stored_bytes)
        return cls(signature_config=signature_config, table_entries=entries, **kwargs)

    @classmethod
    def unlimited(cls, **kwargs) -> "DBCPConfig":
        """Build the unlimited-storage oracle configuration."""
        return cls(table_entries=None, **kwargs)


class _TableEntry:
    __slots__ = ("predicted_address", "confidence")

    def __init__(self, predicted_address: int, confidence: int) -> None:
        self.predicted_address = predicted_address
        self.confidence = confidence


@dataclass
class DBCPStats:
    """DBCP-specific counters."""

    signatures_recorded: int = 0
    table_evictions: int = 0
    table_hits: int = 0
    low_confidence_suppressions: int = 0


class DBCPPrefetcher(Prefetcher):
    """Dead-block correlating prefetcher with a finite on-chip table."""

    name = "dbcp"

    def __init__(self, config: Optional[DBCPConfig] = None) -> None:
        super().__init__()
        self.config = config or DBCPConfig()
        self.history = HistoryTable(self.config.cache_config, self.config.signature_config)
        # LRU-ordered correlation table: key -> entry, most recently used last.
        self._table: "OrderedDict[int, _TableEntry]" = OrderedDict()
        self.dbcp_stats = DBCPStats()
        self._outstanding: Dict[int, int] = {}  # prefetched block address -> signature key
        # Config values consulted on every committed reference (the config
        # is frozen, so caching them as plain attributes is safe).
        self._confidence_threshold = self.config.confidence_threshold
        self._table_entries = self.config.table_entries

    # ------------------------------------------------------------------ table
    def __len__(self) -> int:
        return len(self._table)

    def _record(self, key: int, predicted_address: int) -> None:
        existing = self._table.get(key)
        if existing is not None:
            existing.predicted_address = predicted_address
            self._table.move_to_end(key)
            return
        if self._table_entries is not None and len(self._table) >= self._table_entries:
            self._table.popitem(last=False)
            self.dbcp_stats.table_evictions += 1
        self._table[key] = _TableEntry(
            predicted_address=predicted_address,
            confidence=self.config.initial_confidence,
        )
        self.dbcp_stats.signatures_recorded += 1

    # ------------------------------------------------------------------ protocol
    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        stats = self.stats
        stats.accesses_observed += 1

        if not outcome.l1_hit:
            stats.misses_observed += 1
            if outcome.evicted_address is not None:
                key, predicted = self.history.observe_eviction(outcome.evicted_address, outcome.block_address)
                self._record(key, predicted)

        access = outcome.access
        candidate_key = self.history.observe_access(access.pc, access.address)
        entry = self._table.get(candidate_key)
        if entry is None:
            return []
        # A table hit refreshes the entry's LRU position.
        self._table.move_to_end(candidate_key)
        self.dbcp_stats.table_hits += 1
        if entry.confidence < self._confidence_threshold:
            self.dbcp_stats.low_confidence_suppressions += 1
            return []
        stats.predictions_issued += 1
        self._outstanding[entry.predicted_address] = candidate_key
        return [
            PrefetchCommand(
                address=entry.predicted_address,
                victim_address=outcome.block_address,
                tag=candidate_key,
            )
        ]

    def on_prefetch_installed(
        self,
        address: int,
        evicted_address: Optional[int],
        tag: Optional[object] = None,
    ) -> None:
        """Keep the history table consistent when a prefetch displaces a block.

        The displaced block is the predicted-dead block whose last-touch
        signature just fired; recording its eviction re-learns the same
        correlation and opens a fresh history entry for the prefetched
        block (with the displaced block as its address history), so that
        the prefetched block's own last touch can be recognised later.
        """
        if evicted_address is None:
            return
        key, predicted = self.history.observe_eviction(evicted_address, address)
        self._record(key, predicted)

    # ------------------------------------------------------------------ feedback
    def _update_confidence(self, block_address: int, tag: Optional[object], delta: int) -> None:
        key = self._outstanding.pop(block_address, None)
        if key is None and isinstance(tag, int):
            key = tag
        if key is None:
            return
        entry = self._table.get(key)
        if entry is not None:
            entry.confidence = max(0, min(self.config.max_confidence, entry.confidence + delta))

    def on_prefetch_used(self, block_address: int, tag: Optional[object]) -> None:
        super().on_prefetch_used(block_address, tag)
        self._update_confidence(block_address, tag, +1)

    def on_prefetch_evicted_unused(self, block_address: int, tag: Optional[object]) -> None:
        super().on_prefetch_evicted_unused(block_address, tag)
        self._update_confidence(block_address, tag, -1)

    def table_utilization_bytes(self) -> int:
        """Bytes of correlation data currently resident in the table."""
        return len(self._table) * self.config.signature_config.stored_bytes
