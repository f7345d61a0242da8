"""Set-associative cache model (array-backed fast path).

The cache operates on block-aligned addresses and reports, for every
access, whether it hit, which block (if any) was evicted, and whether a
hit consumed a block that had been brought in by a prefetch.  These
outcomes are exactly the events the last-touch predictors observe: the
history table is updated on every access, and signatures are created on
every eviction (Section 4.1).

Implementation notes (the fast path)
------------------------------------
Every figure in the paper replays hundreds of thousands of references
through two cache hierarchies, so the per-access cost of this model sets
the wall-clock of the whole reproduction.  The hot structures are flat
per-set arrays rather than per-block objects:

* ``_tags[set][way]`` — resident tag per way (``-1`` = invalid),
* ``_blocks[set][way]`` — the block-aligned address,
* ``_flags[set][way]`` — packed state bits (dirty/prefetched/referenced),
* ``_stamps[set][way]`` — last-touch serial, which *is* the LRU state
  (victim = occupied way with the smallest stamp), so no replacement
  policy object is kept,
* ``_counts[set]`` — occupied ways per set.

These are exactly the per-set fields of the compiled kernel's cache
(:mod:`repro.cache.vector`).

The arrays are materialised on first use, so a cache that is only ever
replayed by the compiled kernel (:mod:`repro.cache.vector`) never
allocates them: until then each attribute holds a :class:`DeferredSets`
stand-in whose first read builds all five.  The hot ``access_fast``
bodies are unchanged and, once built, read plain instance attributes
(no ``__getattr__`` and no class swap, either of which would keep the
interpreter from specialising those reads and halve their speed).

The allocation-free entry points :meth:`access_fast` and
:meth:`insert_prefetch_fast` write miss/eviction details into the
reusable ``__slots__`` struct :attr:`SetAssociativeCache.last` and
return a small int code; the object-returning :meth:`access` /
:meth:`insert_prefetch` wrappers preserve the original API for tests,
the oracle and external callers.  The pre-fast-path
object-per-block model is the test suite's reference oracle
(``tests/oracle.py``); the equivalence suite drives both on identical
sequences and asserts identical results, victim choices and statistics.

Every cache of the paper's hierarchy (Table 1) is LRU, and so is this
model.  The two-way L1D shape takes a branch-free specialisation of
:meth:`access_fast`, bound per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.config import CacheConfig

#: The per-set arrays built on first use, in attribute order.
_SET_ARRAYS = ("_tags", "_blocks", "_flags", "_stamps", "_counts")

# Packed per-way state bits.
_DIRTY = 1
_PREFETCHED = 2
_REFERENCED = 4


class AccessResult:
    """Outcome of a single cache access or prefetch insertion.

    A plain ``__slots__`` record (constructed only by the compatibility
    wrappers — the fast path reports through the reusable
    :class:`FastAccessState` instead).
    """

    __slots__ = (
        "hit",
        "block_address",
        "set_index",
        "evicted_address",
        "evicted_dirty",
        "evicted_was_prefetched_unused",
        "evicted_by_prefetch",
        "prefetch_hit",
    )

    def __init__(
        self,
        hit: bool,
        block_address: int,
        set_index: int,
        evicted_address: Optional[int] = None,
        evicted_dirty: bool = False,
        evicted_was_prefetched_unused: bool = False,
        evicted_by_prefetch: bool = False,
        prefetch_hit: bool = False,
    ) -> None:
        self.hit = hit
        self.block_address = block_address
        self.set_index = set_index
        self.evicted_address = evicted_address
        self.evicted_dirty = evicted_dirty
        self.evicted_was_prefetched_unused = evicted_was_prefetched_unused
        self.evicted_by_prefetch = evicted_by_prefetch
        self.prefetch_hit = prefetch_hit

    @property
    def miss(self) -> bool:
        """``True`` when the access missed."""
        return not self.hit

    def _astuple(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"AccessResult({fields})"


class FastAccessState:
    """Reusable result struct filled in place by the fast-path entry points.

    One instance lives on each cache as :attr:`SetAssociativeCache.last`;
    miss/eviction details are valid until the next fast-path call on the
    same cache.  Callers that need to retain a result across accesses
    must copy the fields (or use the object-returning wrappers).
    """

    __slots__ = (
        "hit",
        "block_address",
        "set_index",
        "evicted_address",
        "evicted_dirty",
        "evicted_unused_prefetch",
        "evicted_by_prefetch",
        "prefetch_hit",
    )

    def __init__(self) -> None:
        self.hit = False
        self.block_address = 0
        self.set_index = 0
        self.evicted_address: Optional[int] = None
        self.evicted_dirty = False
        self.evicted_unused_prefetch = False
        self.evicted_by_prefetch = False
        self.prefetch_hit = False


class DeferredSets:
    """Stands in for one per-set array of a structure not yet built.

    The owner holds one stand-in per array attribute and defines
    ``_build_sets()``, which replaces all of them with the real arrays.
    The first read through any stand-in calls it; a stand-in held
    elsewhere keeps working by delegating to the owner's real array.
    """

    __slots__ = ("_owner", "_name")

    def __init__(self, owner: object, name: str) -> None:
        self._owner = owner
        self._name = name

    def _array(self):
        array = getattr(self._owner, self._name)
        if array is self:
            self._owner._build_sets()  # type: ignore[attr-defined]
            array = getattr(self._owner, self._name)
        return array

    def __getitem__(self, index):
        return self._array()[index]

    def __setitem__(self, index, value) -> None:
        self._array()[index] = value

    def __iter__(self):
        return iter(self._array())

    def __len__(self) -> int:
        return len(self._array())


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetch_insertions: int = 0
    prefetch_hits: int = 0
    prefetch_unused_evictions: int = 0
    writebacks: int = 0
    #: Evictions forced by a prefetch insertion (named victim or
    #: policy-chosen) rather than by a demand miss.
    prefetch_caused_evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits per access (0 when no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache.

    The cache is a functional model: it tracks contents, replacement state
    and statistics, but not timing (timing is handled by
    :mod:`repro.timing`).  Prefetched blocks can be inserted directly into
    the array via :meth:`insert_prefetch`, optionally displacing a specific
    predicted-dead victim as DBCP and LT-cords do.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets = config.num_sets
        assoc = config.associativity
        self._assoc = assoc
        self._offset_bits = config.offset_bits
        self._set_mask = num_sets - 1
        self._tag_shift = config.offset_bits + config.index_bits
        self._block_mask = ~(config.block_size - 1)
        for name in _SET_ARRAYS:
            setattr(self, name, DeferredSets(self, name))
        self.stats = CacheStats()
        self._serial = 0
        self.last = FastAccessState()
        if assoc == 2:
            # The L1D shape takes a branch-free two-way body, bound per
            # instance (caches are never pickled).
            self.access_fast = self._access_fast_lru2  # type: ignore[method-assign]

    def _build_sets(self) -> None:
        """Allocate the per-set arrays (all ways invalid), replacing the stand-ins."""
        num_sets = self.config.num_sets
        assoc = self._assoc
        self._tags: List[List[int]] = [[-1] * assoc for _ in range(num_sets)]
        self._blocks: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._flags: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._stamps: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._counts: List[int] = [0] * num_sets

    # ------------------------------------------------------------------ helpers
    def contains(self, address: int) -> bool:
        """Return ``True`` if the block holding ``address`` is resident."""
        set_index = (address >> self._offset_bits) & self._set_mask
        return (address >> self._tag_shift) in self._tags[set_index]

    def resident_blocks(self) -> List[int]:
        """Block addresses of all resident blocks (for inspection in tests)."""
        out: List[int] = []
        for set_index, tags in enumerate(self._tags):
            blocks = self._blocks[set_index]
            for way, tag in enumerate(tags):
                if tag >= 0:
                    out.append(blocks[way])
        return out

    # ------------------------------------------------------------------ fast path
    def access_fast(self, address: int, is_write: bool) -> int:
        """Demand access without allocating a result object.

        Returns ``1`` on a hit, ``2`` on a hit that consumed an unused
        prefetched block, and ``0`` on a miss (the block is allocated,
        evicting the LRU way of a full set, and miss/eviction details are
        written into :attr:`last`).
        """
        serial = self._serial + 1
        self._serial = serial
        stats = self.stats
        stats.accesses += 1
        set_index = (address >> self._offset_bits) & self._set_mask
        tag = address >> self._tag_shift
        tags = self._tags[set_index]

        # Two C-speed scans ("in" then .index) beat try/except around a
        # single .index here: raising on a miss costs far more than the
        # second scan, and miss-heavy workloads are exactly the hot case.
        if tag in tags:
            way = tags.index(tag)
            stats.hits += 1
            flags = self._flags[set_index]
            state = flags[way]
            flags[way] = (state | _REFERENCED | _DIRTY) if is_write else (state | _REFERENCED)
            self._stamps[set_index][way] = serial
            if state & _PREFETCHED and not state & _REFERENCED:
                stats.prefetch_hits += 1
                return 2
            return 1

        # Miss: allocate, evicting the least-recently-stamped way if the
        # set is full.
        stats.misses += 1
        last = self.last
        flags = self._flags[set_index]
        stamps = self._stamps[set_index]
        if self._counts[set_index] == self._assoc:
            way = stamps.index(min(stamps))
            state = flags[way]
            stats.evictions += 1
            if state & _DIRTY:
                stats.writebacks += 1
                last.evicted_dirty = True
            else:
                last.evicted_dirty = False
            if state & _PREFETCHED and not state & _REFERENCED:
                stats.prefetch_unused_evictions += 1
                last.evicted_unused_prefetch = True
            else:
                last.evicted_unused_prefetch = False
            last.evicted_address = self._blocks[set_index][way]
        else:
            way = tags.index(-1)
            self._counts[set_index] += 1
            last.evicted_address = None
            last.evicted_dirty = False
            last.evicted_unused_prefetch = False
        block_address = address & self._block_mask
        tags[way] = tag
        self._blocks[set_index][way] = block_address
        flags[way] = (_REFERENCED | _DIRTY) if is_write else _REFERENCED
        stamps[way] = serial
        last.hit = False
        last.block_address = block_address
        last.set_index = set_index
        last.evicted_by_prefetch = False
        last.prefetch_hit = False
        return 0

    def _access_fast_lru2(self, address: int, is_write: bool) -> int:
        """Two-way LRU specialisation of :meth:`access_fast` (same contract)."""
        serial = self._serial + 1
        self._serial = serial
        stats = self.stats
        stats.accesses += 1
        set_index = (address >> self._offset_bits) & self._set_mask
        tag = address >> self._tag_shift
        tags = self._tags[set_index]

        if tags[0] == tag:
            way = 0
        elif tags[1] == tag:
            way = 1
        else:
            # Miss: allocate, evicting the stamp-older way if the set is full.
            stats.misses += 1
            last = self.last
            flags = self._flags[set_index]
            stamps = self._stamps[set_index]
            if self._counts[set_index] == 2:
                way = 0 if stamps[0] < stamps[1] else 1
                state = flags[way]
                stats.evictions += 1
                if state & _DIRTY:
                    stats.writebacks += 1
                    last.evicted_dirty = True
                else:
                    last.evicted_dirty = False
                if state & _PREFETCHED and not state & _REFERENCED:
                    stats.prefetch_unused_evictions += 1
                    last.evicted_unused_prefetch = True
                else:
                    last.evicted_unused_prefetch = False
                last.evicted_address = self._blocks[set_index][way]
            else:
                way = 0 if tags[0] == -1 else 1
                self._counts[set_index] += 1
                last.evicted_address = None
                last.evicted_dirty = False
                last.evicted_unused_prefetch = False
            block_address = address & self._block_mask
            tags[way] = tag
            self._blocks[set_index][way] = block_address
            flags[way] = (_REFERENCED | _DIRTY) if is_write else _REFERENCED
            stamps[way] = serial
            last.hit = False
            last.block_address = block_address
            last.set_index = set_index
            last.evicted_by_prefetch = False
            last.prefetch_hit = False
            return 0

        stats.hits += 1
        flags = self._flags[set_index]
        state = flags[way]
        flags[way] = (state | _REFERENCED | _DIRTY) if is_write else (state | _REFERENCED)
        self._stamps[set_index][way] = serial
        if state & _PREFETCHED and not state & _REFERENCED:
            stats.prefetch_hits += 1
            return 2
        return 1

    def insert_prefetch_fast(self, address: int, victim_address: Optional[int] = None) -> int:
        """Prefetch insertion without allocating a result object.

        Returns ``1`` when the block was already resident (no-op) and
        ``0`` when it was installed (details in :attr:`last`).
        """
        set_index = (address >> self._offset_bits) & self._set_mask
        tag = address >> self._tag_shift
        if tag in self._tags[set_index]:
            return 1
        self._insert_prefetch_absent(set_index, tag, address, victim_address)
        return 0

    def _insert_prefetch_absent(
        self, set_index: int, tag: int, address: int, victim_address: Optional[int]
    ) -> None:
        """Install a prefetched block the caller has verified is not resident.

        The hierarchy's prefetch path probes residency itself before
        deciding where the data comes from, so this entry point skips the
        redundant re-probe.
        """
        tags = self._tags[set_index]
        serial = self._serial + 1
        self._serial = serial
        stats = self.stats
        stats.prefetch_insertions += 1
        last = self.last
        stamps = self._stamps[set_index]
        if self._counts[set_index] == self._assoc:
            way = -1
            if victim_address is not None:
                if (victim_address >> self._offset_bits) & self._set_mask == set_index:
                    victim_tag = victim_address >> self._tag_shift
                    if victim_tag in tags:
                        way = tags.index(victim_tag)
            if way < 0:
                way = stamps.index(min(stamps))
            state = self._flags[set_index][way]
            stats.evictions += 1
            stats.prefetch_caused_evictions += 1
            if state & _DIRTY:
                stats.writebacks += 1
            unused = bool(state & _PREFETCHED) and not state & _REFERENCED
            if unused:
                stats.prefetch_unused_evictions += 1
            last.evicted_address = self._blocks[set_index][way]
            last.evicted_dirty = bool(state & _DIRTY)
            last.evicted_unused_prefetch = unused
            last.evicted_by_prefetch = True
        else:
            way = tags.index(-1)
            self._counts[set_index] += 1
            last.evicted_address = None
            last.evicted_dirty = False
            last.evicted_unused_prefetch = False
            last.evicted_by_prefetch = False
        block_address = address & self._block_mask
        tags[way] = tag
        self._blocks[set_index][way] = block_address
        self._flags[set_index][way] = _PREFETCHED
        stamps[way] = serial
        last.hit = False
        last.block_address = block_address
        last.set_index = set_index
        last.prefetch_hit = False

    # ------------------------------------------------------------------ accesses
    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform a demand access to ``address``.

        On a miss the block is allocated (write-allocate); the LRU victim
        is evicted if the set is full.  This wrapper allocates a fresh
        :class:`AccessResult` for tests and the oracle; replays use :meth:`access_fast`.
        """
        code = self.access_fast(address, is_write)
        if code:
            return AccessResult(
                hit=True,
                block_address=address & self._block_mask,
                set_index=(address >> self._offset_bits) & self._set_mask,
                prefetch_hit=code == 2,
            )
        last = self.last
        return AccessResult(
            hit=False,
            block_address=last.block_address,
            set_index=last.set_index,
            evicted_address=last.evicted_address,
            evicted_dirty=last.evicted_dirty,
            evicted_was_prefetched_unused=last.evicted_unused_prefetch,
        )

    def insert_prefetch(self, address: int, victim_address: Optional[int] = None) -> AccessResult:
        """Insert a prefetched block directly into the cache.

        If ``victim_address`` is given and resident in the same set, that
        block is displaced (the predicted-dead block); otherwise the LRU
        way is the victim if the set is full.  If the block is already
        resident the insertion is a no-op.
        ``evicted_by_prefetch`` is reported only when the insertion
        actually displaced a block.
        """
        code = self.insert_prefetch_fast(address, victim_address)
        if code:
            return AccessResult(
                hit=True,
                block_address=address & self._block_mask,
                set_index=(address >> self._offset_bits) & self._set_mask,
            )
        last = self.last
        return AccessResult(
            hit=False,
            block_address=last.block_address,
            set_index=last.set_index,
            evicted_address=last.evicted_address,
            evicted_dirty=last.evicted_dirty,
            evicted_was_prefetched_unused=last.evicted_unused_prefetch,
            evicted_by_prefetch=last.evicted_by_prefetch,
        )

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.config.name}, {self.config.size_bytes}B, "
            f"{self.config.associativity}-way, {self.config.num_sets} sets)"
        )
