"""The last-touch history table (Section 2, Figure 1; Section 4.1).

The history table mirrors the L1D tag array.  For every resident block it
accumulates a hash of the program counters of the committed memory
instructions that have accessed *that block* since it was filled, plus
the tag of the block it replaced (the address-history component of the
signature).  The signature of a block therefore stops changing at the
block's last touch; when the block is finally evicted, the accumulated
signature is exactly the one that was current at the last touch, so a
recurrence of the same access pattern re-creates the same signature at
the same point — which is what lets the predictor recognise a last touch
*before* the eviction happens.

On an eviction the table emits ``(signature key, replacement block
address)`` — the correlation pair stored by DBCP's on-chip table or
LT-cords' off-chip sequence storage.  On every committed access it emits
the *candidate* key for the block just touched, which the predictors look
up to decide whether this access is a last touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.core.signatures import _HASH_INCREMENT, _HASH_MULTIPLIER, _MASK_64, SignatureConfig


@dataclass
class HistoryTableStats:
    """Counters describing history-table activity."""

    accesses: int = 0
    evictions: int = 0
    cold_evictions: int = 0


class HistoryTable:
    """Builds last-touch signature keys from the committed reference stream.

    One flat ``[pc_trace_hash, previous_block]`` record per tracked block,
    in a single map keyed by block address (the L1D's (set, tag) pair is a
    bijection of the block address, so this is the per-set table of
    Figure 1 without the per-set split).  The xor-fold of the 64-bit raw
    hash down to the key width is closed-form for keys of 32 bits or more
    (at most two fold terms).  The compiled replay kernel uses the same
    fold, but keeps each record in the simulated L1 way holding its block:
    the predictors create a record on a demand access or for an
    eviction's replacement and drop the victim's on every L1 eviction, so
    the tracked blocks are exactly the resident ones whenever the
    history's block size is the L1's (the kernel's condition).
    """

    def __init__(
        self,
        cache_config: CacheConfig,
        signature_config: Optional[SignatureConfig] = None,
    ) -> None:
        self.cache_config = cache_config
        self.signature_config = signature_config or SignatureConfig()
        #: block address -> [pc_trace_hash, previous_block]
        self._blocks: Dict[int, list] = {}
        self.stats = HistoryTableStats()
        self._block_mask = ~(cache_config.block_size - 1)
        self._key_bits = self.signature_config.trace_hash_bits
        self._key_mask = (1 << self._key_bits) - 1

    # ------------------------------------------------------------------ geometry
    @property
    def num_sets(self) -> int:
        """Number of sets tracked (equals the number of L1D sets)."""
        return self.cache_config.num_sets

    def tracked_blocks(self) -> int:
        """Number of blocks with live history entries (for tests/inspection)."""
        return len(self._blocks)

    def storage_bits(self, trace_hash_bits: Optional[int] = None, tag_bits: int = 15) -> int:
        """Nominal on-chip storage of the history table, in bits.

        One entry per L1D block: the running trace hash plus the
        previous-block tag.  This is part of the "214KB of on-chip
        storage" the paper quotes alongside the signature cache and
        sequence tag array.
        """
        hash_bits = trace_hash_bits if trace_hash_bits is not None else self.signature_config.trace_hash_bits
        per_entry = hash_bits + tag_bits
        return per_entry * self.cache_config.num_blocks

    # ------------------------------------------------------------------ key construction
    def _key(self, trace_hash: int, previous_block: int, block: int) -> int:
        """fold_hash(hash_combine(hash_combine(trace, previous), block)), inlined."""
        raw = ((trace_hash ^ previous_block) * _HASH_MULTIPLIER + _HASH_INCREMENT) & _MASK_64
        raw = ((raw ^ block) * _HASH_MULTIPLIER + _HASH_INCREMENT) & _MASK_64
        bits = self._key_bits
        if bits >= 32:
            # raw < 2**64, so raw >> bits < 2**bits: exactly two fold terms.
            return (raw & self._key_mask) ^ (raw >> bits)
        key = 0
        mask = self._key_mask
        while raw:
            key ^= raw & mask
            raw >>= bits
        return key

    def observe_access(self, pc: int, address: int) -> int:
        """Fold a committed access into the block's trace; return the candidate key.

        The candidate key is the signature that *will* be recorded if this
        access turns out to be the block's last touch; the predictors look
        it up to identify last touches.
        """
        self.stats.accesses += 1
        block = address & self._block_mask
        entry = self._blocks.get(block)
        if entry is None:
            entry = self._blocks[block] = [0, 0]
        trace_hash = entry[0] = ((entry[0] ^ pc) * _HASH_MULTIPLIER + _HASH_INCREMENT) & _MASK_64
        # _key, inlined (this is the per-reference hot path).
        raw = ((trace_hash ^ entry[1]) * _HASH_MULTIPLIER + _HASH_INCREMENT) & _MASK_64
        raw = ((raw ^ block) * _HASH_MULTIPLIER + _HASH_INCREMENT) & _MASK_64
        bits = self._key_bits
        if bits >= 32:
            return (raw & self._key_mask) ^ (raw >> bits)
        key = 0
        mask = self._key_mask
        while raw:
            key ^= raw & mask
            raw >>= bits
        return key

    def peek_key(self, address: int) -> int:
        """Candidate key for the block holding ``address`` without updating its trace."""
        block = address & self._block_mask
        trace_hash, previous = self._blocks.get(block, (0, 0))
        return self._key(trace_hash, previous, block)

    def observe_eviction(self, evicted_address: int, replacement_address: int) -> Tuple[int, int]:
        """Record an eviction; return ``(signature_key, predicted_block_address)``.

        The evicted block's accumulated history (which last changed at its
        last touch) forms the key; the replacing block's address is the
        prediction target.  The evicted block's entry is retired and a
        fresh entry is opened for the replacement with the evicted block's
        address as its address history.
        """
        self.stats.evictions += 1
        evicted_block = evicted_address & self._block_mask
        entry = self._blocks.pop(evicted_block, None)
        if entry is None:
            self.stats.cold_evictions += 1
            entry = [0, 0]
        key = self._key(entry[0], entry[1], evicted_block)
        # Recycle the retired record as the replacement's fresh entry.
        entry[0] = 0
        entry[1] = evicted_block
        predicted = replacement_address & self._block_mask
        self._blocks[predicted] = entry
        return key, predicted

    def reset(self) -> None:
        """Clear all per-block state (used between independent simulations)."""
        self._blocks.clear()
