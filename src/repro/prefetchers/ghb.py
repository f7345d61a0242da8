"""Global History Buffer PC/DC (delta correlation) prefetcher.

The paper's strongest conventional baseline (Table 1: "GHB PC/DC, 4-deep,
256-entry IT, 256-entry GHB") follows Nesbit & Smith (HPCA 2004): L1D
misses are appended to a circular global history buffer; an index table
maps the miss PC to the most recent GHB entry for that PC, and entries for
the same PC are chained through link pointers.  On a miss, the chain is
walked to reconstruct the recent per-PC miss-address history, deltas are
computed, the most recent delta pair is located earlier in the delta
stream (delta correlation), and the deltas that followed that earlier
occurrence are replayed from the current miss address to generate up to
``degree`` prefetches.  When no correlation is found, a repeating last
delta (classic stride behaviour, which PC/DC subsumes) is used.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher


@dataclass(frozen=True)
class GHBConfig:
    """GHB PC/DC configuration (defaults follow Table 1)."""

    index_table_entries: int = 256
    ghb_entries: int = 256
    degree: int = 4
    history_depth: int = 16
    block_size: int = 64

    def __post_init__(self) -> None:
        if self.index_table_entries <= 0 or self.ghb_entries <= 0:
            raise ValueError("table sizes must be positive")
        if self.degree <= 0:
            raise ValueError("degree must be positive")
        if self.history_depth < 3:
            raise ValueError("history_depth must be at least 3 for delta correlation")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")


@dataclass
class _GHBEntry:
    """One global-history-buffer slot."""

    address: int
    pc: int
    link: Optional[int]  # global serial of the previous entry for the same PC
    serial: int


@dataclass
class GHBStats:
    """GHB-specific counters."""

    misses_inserted: int = 0
    delta_correlations: int = 0
    stride_fallbacks: int = 0
    chains_too_short: int = 0


def _delta_correlate(history: List[int], degree: int, stats: "GHBStats") -> List[int]:
    """PC/DC prediction from a most-recent-first miss history.

    Delta-correlate on the history, fall back to a stable repeating last
    delta (stride behaviour), and replay the predicted deltas from the
    newest address, stopping at ``degree`` predictions or a negative
    address.
    """
    if len(history) < 3:
        stats.chains_too_short += 1
        return []
    # Oldest-first delta stream.
    addresses = list(reversed(history))
    deltas = [addresses[i + 1] - addresses[i] for i in range(len(addresses) - 1)]
    key_pair = (deltas[-2], deltas[-1])

    predicted_deltas: List[int] = []
    # Search backwards (excluding the final position itself) for the most
    # recent earlier occurrence of the last delta pair.
    for i in range(len(deltas) - 3, 0, -1):
        if (deltas[i - 1], deltas[i]) == key_pair:
            predicted_deltas = deltas[i + 1:i + 1 + degree]
            stats.delta_correlations += 1
            break
    if not predicted_deltas:
        # Fall back to repeating the last delta when it is stable
        # (stride behaviour); otherwise make no prediction.
        if deltas[-1] != 0 and deltas[-1] == deltas[-2]:
            predicted_deltas = [deltas[-1]] * degree
            stats.stride_fallbacks += 1
        else:
            return []

    predictions: List[int] = []
    current = addresses[-1]
    for delta in predicted_deltas:
        current += delta
        if current < 0:
            break
        predictions.append(current)
        if len(predictions) >= degree:
            break
    return predictions


class GHBPrefetcher(Prefetcher):
    """PC-localised delta-correlating prefetcher over a global history buffer."""

    name = "ghb"

    def __init__(self, config: Optional[GHBConfig] = None) -> None:
        super().__init__()
        self.config = config or GHBConfig()
        self._buffer: List[Optional[_GHBEntry]] = [None] * self.config.ghb_entries
        self._head = 0  # next slot to fill
        self._serial = 0  # monotonically increasing entry id
        # Index table: a small fully-associative, LRU-managed map from miss PC
        # to the serial of that PC's newest GHB entry (Nesbit & Smith tag the
        # index table with the PC; an untagged direct-mapped table would chain
        # unrelated PCs together on aliasing).
        self._index_table: "OrderedDict[int, int]" = OrderedDict()
        self.ghb_stats = GHBStats()

    # ------------------------------------------------------------------ buffer helpers
    def _entry_by_serial(self, serial: Optional[int]) -> Optional[_GHBEntry]:
        if serial is None:
            return None
        # Entries older than the buffer capacity have been overwritten.
        if serial <= self._serial - self.config.ghb_entries:
            return None
        slot = (serial - 1) % self.config.ghb_entries
        entry = self._buffer[slot]
        if entry is None or entry.serial != serial:
            return None
        return entry

    def _insert_miss(self, pc: int, block_address: int) -> _GHBEntry:
        self._serial += 1
        previous_serial = self._index_table.get(pc)
        entry = _GHBEntry(address=block_address, pc=pc, link=previous_serial, serial=self._serial)
        self._buffer[self._head] = entry
        self._head = (self._head + 1) % self.config.ghb_entries
        if pc in self._index_table:
            self._index_table.move_to_end(pc)
        elif len(self._index_table) >= self.config.index_table_entries:
            self._index_table.popitem(last=False)
        self._index_table[pc] = entry.serial
        self.ghb_stats.misses_inserted += 1
        return entry

    def _pc_history(self, entry: _GHBEntry) -> List[int]:
        """Most-recent-first miss addresses for this PC, up to ``history_depth``."""
        history = [entry.address]
        current = self._entry_by_serial(entry.link)
        while current is not None and current.pc == entry.pc and len(history) < self.config.history_depth:
            history.append(current.address)
            current = self._entry_by_serial(current.link)
        return history

    # ------------------------------------------------------------------ delta correlation
    def _predict(self, history: List[int]) -> List[int]:
        """Delta-correlate on the per-PC history; return predicted block addresses."""
        return _delta_correlate(history, self.config.degree, self.ghb_stats)

    # ------------------------------------------------------------------ protocol
    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        self.stats.accesses_observed += 1
        if not outcome.l1_miss:
            return []
        self.stats.misses_observed += 1

        block_address = outcome.block_address
        entry = self._insert_miss(outcome.access.pc, block_address)
        history = self._pc_history(entry)
        predictions = self._predict(history)
        commands: List[PrefetchCommand] = []
        seen = set()
        for address in predictions:
            aligned = address & ~(self.config.block_size - 1)
            if aligned == block_address or aligned in seen:
                continue
            seen.add(aligned)
            self.stats.predictions_issued += 1
            commands.append(PrefetchCommand(address=aligned, victim_address=None, tag=outcome.access.pc))
        return commands
