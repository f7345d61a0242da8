"""The pre-fast-path set-associative cache model (reference engine).

This is the original dict-of-:class:`CacheBlock` implementation of
:class:`~repro.cache.cache.SetAssociativeCache`, kept verbatim as the
behavioural reference for the array-backed fast path.  The equivalence
suite (``tests/test_cache_fastpath.py`` and
``tests/test_engine_equivalence.py``) drives both engines on identical
access sequences and asserts identical hits, victim choices, statistics
and end-to-end :meth:`SimulationResult.to_dict` output, and
``repro.bench`` times the two against each other.

Two changes relative to the seed implementation are intentional.  The
``by_prefetch`` wiring (shared with the fast path): prefetch-caused
evictions are counted in ``CacheStats.prefetch_caused_evictions`` and
``AccessResult.evicted_by_prefetch`` is reported only when an insertion
actually displaced a block.  And the model is LRU only, like every cache
of the paper's hierarchy: it builds its :class:`LRUReplacement`
directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import AccessResult, CacheBlock, CacheStats
from repro.cache.config import CacheConfig
from repro.cache.replacement import LRUReplacement


class LegacySetAssociativeCache:
    """Object-per-block write-back, write-allocate set-associative cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[Dict[int, CacheBlock]] = [dict() for _ in range(config.num_sets)]
        self._ways: List[Dict[int, int]] = [dict() for _ in range(config.num_sets)]  # tag -> way
        self._policy = LRUReplacement(config.num_sets, config.associativity)
        self.stats = CacheStats()
        self._serial = 0

    # ------------------------------------------------------------------ helpers
    def _lookup(self, set_index: int, tag: int) -> Optional[CacheBlock]:
        return self._sets[set_index].get(tag)

    def contains(self, address: int) -> bool:
        """Return ``True`` if the block holding ``address`` is resident."""
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        return tag in self._sets[set_index]

    def resident_blocks(self) -> List[int]:
        """Block addresses of all resident blocks (for inspection in tests)."""
        out: List[int] = []
        for blocks in self._sets:
            out.extend(block.block_address for block in blocks.values())
        return out

    def _free_way(self, set_index: int) -> Optional[int]:
        used = set(self._ways[set_index].values())
        for way in range(self.config.associativity):
            if way not in used:
                return way
        return None

    def _evict(self, set_index: int, by_prefetch: bool) -> CacheBlock:
        occupied = sorted(self._ways[set_index].values())
        victim_way = self._policy.victim_way(set_index, occupied)
        victim_tag = next(tag for tag, way in self._ways[set_index].items() if way == victim_way)
        return self._remove(set_index, victim_tag, by_prefetch=by_prefetch)

    def _remove(self, set_index: int, tag: int, by_prefetch: bool = False) -> CacheBlock:
        block = self._sets[set_index].pop(tag)
        del self._ways[set_index][tag]
        self.stats.evictions += 1
        if by_prefetch:
            self.stats.prefetch_caused_evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.prefetched and not block.referenced:
            self.stats.prefetch_unused_evictions += 1
        return block

    def _install(self, set_index: int, tag: int, block: CacheBlock, way: Optional[int] = None) -> None:
        if way is None:
            way = self._free_way(set_index)
        if way is None:
            raise RuntimeError("attempted to install into a full set without eviction")
        self._sets[set_index][tag] = block
        self._ways[set_index][tag] = way
        self._policy.on_fill(set_index, way)

    # ------------------------------------------------------------------ accesses
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform a demand access to ``address``.

        On a miss the block is allocated (write-allocate); the LRU victim
        is evicted if the set is full.
        """
        self._serial += 1
        self.stats.accesses += 1
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        block_address = self.config.block_address(address)
        block = self._lookup(set_index, tag)

        if block is not None:
            self.stats.hits += 1
            prefetch_hit = block.prefetched and not block.referenced
            if prefetch_hit:
                self.stats.prefetch_hits += 1
            block.referenced = True
            block.last_access_serial = self._serial
            if is_write:
                block.dirty = True
            way = self._ways[set_index][tag]
            self._policy.on_access(set_index, way)
            return AccessResult(
                hit=True,
                block_address=block_address,
                set_index=set_index,
                prefetch_hit=prefetch_hit,
            )

        # Miss: allocate, evicting if necessary.
        self.stats.misses += 1
        evicted_address: Optional[int] = None
        evicted_dirty = False
        evicted_unused_prefetch = False
        if self._free_way(set_index) is None:
            victim = self._evict(set_index, by_prefetch=False)
            evicted_address = victim.block_address
            evicted_dirty = victim.dirty
            evicted_unused_prefetch = victim.prefetched and not victim.referenced
        new_block = CacheBlock(
            tag=tag,
            block_address=block_address,
            dirty=is_write,
            prefetched=False,
            referenced=True,
            fill_serial=self._serial,
            last_access_serial=self._serial,
        )
        self._install(set_index, tag, new_block)
        return AccessResult(
            hit=False,
            block_address=block_address,
            set_index=set_index,
            evicted_address=evicted_address,
            evicted_dirty=evicted_dirty,
            evicted_was_prefetched_unused=evicted_unused_prefetch,
        )

    def insert_prefetch(self, address: int, victim_address: Optional[int] = None) -> AccessResult:
        """Insert a prefetched block directly into the cache.

        If ``victim_address`` is given and resident in the same set, that
        block is displaced (the predicted-dead block); otherwise the LRU
        way is the victim if the set is full.  If the block is already
        resident the insertion is a no-op.
        """
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        block_address = self.config.block_address(address)
        if tag in self._sets[set_index]:
            return AccessResult(hit=True, block_address=block_address, set_index=set_index)

        self._serial += 1
        self.stats.prefetch_insertions += 1
        evicted_address: Optional[int] = None
        evicted_dirty = False
        evicted_unused_prefetch = False
        evicted = False
        if self._free_way(set_index) is None:
            victim_block: Optional[CacheBlock] = None
            if victim_address is not None:
                victim_tag = self.config.tag(victim_address)
                victim_set = self.config.set_index(victim_address)
                if victim_set == set_index and victim_tag in self._sets[set_index]:
                    victim_block = self._remove(set_index, victim_tag, by_prefetch=True)
            if victim_block is None:
                victim_block = self._evict(set_index, by_prefetch=True)
            evicted = True
            evicted_address = victim_block.block_address
            evicted_dirty = victim_block.dirty
            evicted_unused_prefetch = victim_block.prefetched and not victim_block.referenced
        new_block = CacheBlock(
            tag=tag,
            block_address=block_address,
            dirty=False,
            prefetched=True,
            referenced=False,
            fill_serial=self._serial,
            last_access_serial=self._serial,
        )
        self._install(set_index, tag, new_block)
        return AccessResult(
            hit=False,
            block_address=block_address,
            set_index=set_index,
            evicted_address=evicted_address,
            evicted_dirty=evicted_dirty,
            evicted_was_prefetched_unused=evicted_unused_prefetch,
            evicted_by_prefetch=evicted,
        )

    def __repr__(self) -> str:
        return (
            f"LegacySetAssociativeCache({self.config.name}, {self.config.size_bytes}B, "
            f"{self.config.associativity}-way, {self.config.num_sets} sets)"
        )
