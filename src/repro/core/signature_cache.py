"""The on-chip signature cache (Sections 3.2, 4.3 and 5.6).

The signature cache temporarily holds the portion of each active
last-touch signature sequence that is currently needed for prediction.
It is a set-associative structure indexed by the low-order bits of the
signature key and tagged by the high-order bits, with entries replaced in
FIFO order.  Each entry stores the prediction-address tag, the 2-bit
confidence counter, and a pointer to the signature's exact location in
off-chip sequence storage (used to advance the fragment's sliding window
and to write confidence updates back).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import DeferredSets
from repro.cache.replacement import FIFOReplacement
from repro.core.signatures import SignatureConfig


@dataclass(frozen=True)
class SignatureCacheConfig:
    """Geometry of the signature cache.

    The paper's realistic configuration (Section 5.6) uses 32K entries,
    2-way set-associative, 42 bits per entry (~204KB including tags).
    """

    num_entries: int = 32 * 1024
    associativity: int = 2

    def __post_init__(self) -> None:
        if self.num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.num_entries % self.associativity:
            raise ValueError("num_entries must be a multiple of associativity")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_entries // self.associativity

    @property
    def index_bits(self) -> int:
        """Number of index bits taken from the low end of the signature key."""
        return self.num_sets.bit_length() - 1

    def storage_bits(self, signature_config: Optional[SignatureConfig] = None) -> int:
        """Total storage in bits for the configured entry format."""
        signature_config = signature_config or SignatureConfig()
        return self.num_entries * signature_config.signature_cache_entry_bits

    def storage_bytes(self, signature_config: Optional[SignatureConfig] = None) -> int:
        """Total storage in bytes."""
        return -(-self.storage_bits(signature_config) // 8)


@dataclass
class SignatureCacheEntry:
    """One resident signature."""

    key: int
    predicted_address: int
    confidence: int
    pointer: Optional[Tuple[int, int]] = None  # (frame index, offset within fragment)


@dataclass
class SignatureCacheStats:
    """Lookup and replacement counters."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    replacements: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits per lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


class SignatureCache:
    """Set-associative, FIFO-replaced store of last-touch signatures."""

    def __init__(self, config: Optional[SignatureCacheConfig] = None) -> None:
        self.config = config or SignatureCacheConfig()
        # The per-set maps are built on first use, so a replay on the
        # compiled kernel (which models the cache itself) never allocates them.
        self._sets = DeferredSets(self, "_sets")
        self._ways = DeferredSets(self, "_ways")
        self._policy = FIFOReplacement(self.config.num_sets, self.config.associativity)
        self.stats = SignatureCacheStats()
        # Consulted on every lookup: the config derives both per call.
        self._set_mask = self.config.num_sets - 1
        self._index_bits = self.config.index_bits

    def _build_sets(self) -> None:
        num_sets = self.config.num_sets
        self._sets: List[Dict[int, SignatureCacheEntry]] = [dict() for _ in range(num_sets)]
        self._ways: List[Dict[int, int]] = [dict() for _ in range(num_sets)]

    # ------------------------------------------------------------------ indexing
    def _index(self, key: int) -> int:
        return key & self._set_mask

    def _tag(self, key: int) -> int:
        return key >> self._index_bits

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __contains__(self, key: int) -> bool:
        return self._tag(key) in self._sets[self._index(key)]

    # ------------------------------------------------------------------ operations
    def lookup(self, key: int) -> Optional[SignatureCacheEntry]:
        """Return the entry for ``key`` if resident (counts as a lookup)."""
        stats = self.stats
        stats.lookups += 1
        entry = self._sets[key & self._set_mask].get(key >> self._index_bits)
        if entry is not None:
            stats.hits += 1
        return entry

    def peek(self, key: int) -> Optional[SignatureCacheEntry]:
        """Return the entry for ``key`` without counting a lookup."""
        return self._sets[self._index(key)].get(self._tag(key))

    def insert(self, entry: SignatureCacheEntry) -> Optional[SignatureCacheEntry]:
        """Insert ``entry``, replacing the FIFO victim if the set is full.

        Returns the displaced entry, or ``None`` if no replacement occurred.
        If the key is already resident, the existing entry is updated in place.
        """
        set_index = self._index(entry.key)
        tag = self._tag(entry.key)
        bucket = self._sets[set_index]
        ways = self._ways[set_index]
        self.stats.inserts += 1

        if tag in bucket:
            existing = bucket[tag]
            existing.predicted_address = entry.predicted_address
            existing.confidence = entry.confidence
            existing.pointer = entry.pointer
            return None

        victim: Optional[SignatureCacheEntry] = None
        used_ways = set(ways.values())
        free_way = next((w for w in range(self.config.associativity) if w not in used_ways), None)
        if free_way is None:
            victim_way = self._policy.victim_way(set_index, sorted(ways.values()))
            victim_tag = next(t for t, w in ways.items() if w == victim_way)
            victim = bucket.pop(victim_tag)
            del ways[victim_tag]
            self.stats.replacements += 1
            free_way = victim_way
        bucket[tag] = entry
        ways[tag] = free_way
        self._policy.on_fill(set_index, free_way)
        return victim

    def invalidate(self, key: int) -> Optional[SignatureCacheEntry]:
        """Remove the entry for ``key`` if resident; return it."""
        set_index = self._index(key)
        tag = self._tag(key)
        entry = self._sets[set_index].pop(tag, None)
        if entry is not None:
            del self._ways[set_index][tag]
            self.stats.invalidations += 1
        return entry

    def clear(self) -> None:
        """Drop every resident signature."""
        for set_index in range(self.config.num_sets):
            self._sets[set_index].clear()
            self._ways[set_index].clear()

    def resident_entries(self) -> List[SignatureCacheEntry]:
        """All resident entries (for tests and inspection)."""
        out: List[SignatureCacheEntry] = []
        for bucket in self._sets:
            out.extend(bucket.values())
        return out
