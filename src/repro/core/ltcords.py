"""The LT-cords prefetcher (Sections 3 and 4 of the paper).

LT-cords combines four structures:

* the **history table** builds a candidate last-touch signature on every
  committed memory reference and the recorded signature on every L1D
  eviction (shared with DBCP);
* newly created signatures are appended, in eviction order, to fragments
  in **off-chip sequence storage**; each fragment is associated with a
  *head signature* that precedes it in the sequence;
* when a head signature recurs, the corresponding fragment is **streamed**
  into the on-chip **signature cache**, a small set-associative FIFO
  structure, a sliding window at a time;
* when the candidate signature of an access hits in the signature cache
  with sufficient **confidence**, the access is identified as a last touch
  and the signature's correlated replacement address is prefetched
  directly into the L1D, displacing the dying block.

The implementation below is a functional model: streaming latency can be
modelled with ``fetch_delay_accesses`` (signatures become visible to the
predictor only after that many further references), and all off-chip
signature traffic is accounted for the bandwidth study (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.config import CacheConfig, L1D_CONFIG
from repro.core.history import HistoryTable
from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher
from repro.core.sequence_storage import SequenceStorage, SequenceStorageConfig
from repro.core.signature_cache import SignatureCache, SignatureCacheConfig, SignatureCacheEntry
from repro.core.signatures import LastTouchSignature, SignatureConfig


@dataclass(frozen=True)
class LTCordsConfig:
    """Complete LT-cords configuration.

    Defaults follow the realistic configuration of Section 5.6 scaled only
    in the signature width used for lookups (32-bit keys avoid aliasing in
    software, exactly as the paper's trace-driven studies do).
    """

    cache_config: CacheConfig = L1D_CONFIG
    signature_config: SignatureConfig = field(default_factory=SignatureConfig)
    signature_cache_config: SignatureCacheConfig = field(default_factory=SignatureCacheConfig)
    storage_config: SequenceStorageConfig = field(default_factory=SequenceStorageConfig)
    confidence_threshold: int = 2
    initial_confidence: int = 2
    max_confidence: int = 3
    stream_window: int = 64
    fetch_delay_accesses: int = 0

    def __post_init__(self) -> None:
        if self.confidence_threshold < 0:
            raise ValueError("confidence_threshold must be non-negative")
        if not 0 <= self.initial_confidence <= self.max_confidence:
            raise ValueError("initial_confidence must lie within the counter range")
        if self.stream_window <= 0:
            raise ValueError("stream_window must be positive")
        if self.fetch_delay_accesses < 0:
            raise ValueError("fetch_delay_accesses must be non-negative")

    def on_chip_storage_bytes(self) -> int:
        """Total on-chip storage: signature cache + sequence tag array + history table."""
        sig_cache = self.signature_cache_config.storage_bytes(self.signature_config)
        tag_array = -(-self.storage_config.sequence_tag_array_bits() // 8)
        history = HistoryTable(self.cache_config, self.signature_config).storage_bits() // 8
        return sig_cache + tag_array + history


@dataclass
class LTCordsStats:
    """LT-cords specific counters (beyond the common PrefetcherStats)."""

    signatures_created: int = 0
    head_matches: int = 0
    signature_cache_predictions: int = 0
    low_confidence_suppressions: int = 0
    signatures_streamed: int = 0
    confidence_increments: int = 0
    confidence_decrements: int = 0


class LTCordsPrefetcher(Prefetcher):
    """Last-Touch Correlated Data Streaming predictor."""

    name = "ltcords"

    def __init__(self, config: Optional[LTCordsConfig] = None) -> None:
        super().__init__()
        self.config = config or LTCordsConfig()
        self.history = HistoryTable(self.config.cache_config, self.config.signature_config)
        self.signature_cache = SignatureCache(self.config.signature_cache_config)
        self.storage = SequenceStorage(self.config.storage_config)
        self.ltstats = LTCordsStats()
        # Prefetched-block feedback: block address -> (key, off-chip pointer).
        self._outstanding: Dict[int, Tuple[int, Optional[Tuple[int, int]]]] = {}
        # Streamed signatures not yet visible (models off-chip fetch latency).
        self._pending: List[Tuple[int, SignatureCacheEntry]] = []
        self._access_counter = 0

    # ------------------------------------------------------------------ streaming helpers
    def _install_entry(self, signature: LastTouchSignature, pointer: Tuple[int, int]) -> None:
        entry = SignatureCacheEntry(
            key=signature.key,
            predicted_address=signature.predicted_address,
            confidence=signature.confidence,
            pointer=pointer,
        )
        if self.config.fetch_delay_accesses:
            available_at = self._access_counter + self.config.fetch_delay_accesses
            self._pending.append((available_at, entry))
        else:
            self.signature_cache.insert(entry)
        self.ltstats.signatures_streamed += 1

    def _drain_pending(self) -> None:
        if not self._pending:
            return
        ready = [e for t, e in self._pending if t <= self._access_counter]
        if ready:
            self._pending = [(t, e) for t, e in self._pending if t > self._access_counter]
            for entry in ready:
                self.signature_cache.insert(entry)

    def _stream_from(self, frame_index: int, start: int, count: int) -> None:
        chunk = self.storage.read_window(frame_index, start, count)
        for signature, pointer in chunk:
            self._install_entry(signature, pointer)
        if chunk:
            self.storage.advance_window(frame_index, start + len(chunk))

    def _begin_sequence(self, frame_index: int) -> None:
        """Start (or restart) streaming a fragment whose head signature recurred."""
        self.ltstats.head_matches += 1
        self._stream_from(frame_index, 0, self.config.stream_window)

    def _advance_sequence(self, pointer: Tuple[int, int]) -> None:
        """Advance the sliding window of the fragment a used signature belongs to."""
        frame_index, offset = pointer
        window_end = self.storage.window_position(frame_index)
        desired_end = offset + 1 + self.config.stream_window
        if desired_end > window_end:
            self._stream_from(frame_index, window_end, desired_end - window_end)

    # ------------------------------------------------------------------ main protocol
    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        self._access_counter += 1
        self.stats.accesses_observed += 1
        self._drain_pending()

        # Record a new last-touch signature on every L1D eviction, in
        # eviction order (Section 4.1).  This must happen before the miss's
        # own PC is folded into the (freshly reset) set trace.
        if outcome.l1_miss:
            self.stats.misses_observed += 1
            if outcome.evicted_address is not None:
                key, predicted = self.history.observe_eviction(outcome.evicted_address, outcome.block_address)
                signature = LastTouchSignature(
                    key=key,
                    predicted_address=predicted,
                    confidence=self.config.initial_confidence,
                )
                self.storage.record_signature(signature)
                self.ltstats.signatures_created += 1

        candidate_key = self.history.observe_access(outcome.access.pc, outcome.access.address)

        commands: List[PrefetchCommand] = []

        # Last-touch prediction: the candidate signature hits in the
        # signature cache (Section 4.3).
        entry = self.signature_cache.lookup(candidate_key)
        if entry is not None:
            if entry.confidence >= self.config.confidence_threshold:
                self.ltstats.signature_cache_predictions += 1
                self.stats.predictions_issued += 1
                commands.append(
                    PrefetchCommand(
                        address=entry.predicted_address,
                        victim_address=outcome.block_address,
                        tag=(candidate_key, entry.pointer),
                    )
                )
                self._outstanding[entry.predicted_address] = (candidate_key, entry.pointer)
            else:
                self.ltstats.low_confidence_suppressions += 1
            if entry.pointer is not None:
                self._advance_sequence(entry.pointer)

        # Head-signature match: begin streaming the corresponding fragment
        # (Section 4.2).  Sequences restart every time their head recurs
        # (e.g. at the start of each outer-loop iteration).
        frame_index = self.storage.lookup_head(candidate_key)
        if frame_index is not None:
            self._begin_sequence(frame_index)

        return commands

    def on_prefetch_installed(
        self,
        address: int,
        evicted_address: Optional[int],
        tag: Optional[object] = None,
    ) -> None:
        """Keep the history table and recorded sequence consistent with prefetch fills.

        A prefetch displaces the predicted-dead block; that is an eviction
        like any other, so its signature is recorded off chip (recording
        never stops, Section 4.2) and a fresh history entry is opened for
        the prefetched block so its own last touch can be recognised on
        the next recurrence.
        """
        if evicted_address is None:
            return
        key, predicted = self.history.observe_eviction(evicted_address, address)
        signature = LastTouchSignature(
            key=key,
            predicted_address=predicted,
            confidence=self.config.initial_confidence,
        )
        self.storage.record_signature(signature)
        self.ltstats.signatures_created += 1

    # ------------------------------------------------------------------ feedback
    def _update_confidence(self, block_address: int, tag: Optional[object], delta: int) -> None:
        info = self._outstanding.pop(block_address, None)
        if info is None and isinstance(tag, tuple) and len(tag) == 2:
            info = tag  # fall back to the command tag carried by the simulator
        if info is None:
            return
        key, pointer = info
        resident = self.signature_cache.peek(key)
        new_confidence = None
        if resident is not None:
            resident.confidence = max(0, min(self.config.max_confidence, resident.confidence + delta))
            new_confidence = resident.confidence
        if pointer is not None:
            stored = self.storage.signature_at(pointer)
            if stored is not None:
                if new_confidence is None:
                    new_confidence = max(0, min(self.config.max_confidence, stored.confidence + delta))
                self.storage.update_confidence(pointer, new_confidence)
        if delta > 0:
            self.ltstats.confidence_increments += 1
        else:
            self.ltstats.confidence_decrements += 1

    def on_prefetch_used(self, block_address: int, tag: Optional[object]) -> None:
        super().on_prefetch_used(block_address, tag)
        self._update_confidence(block_address, tag, +1)

    def on_prefetch_evicted_unused(self, block_address: int, tag: Optional[object]) -> None:
        super().on_prefetch_evicted_unused(block_address, tag)
        self._update_confidence(block_address, tag, -1)

    # ------------------------------------------------------------------ reporting
    def signature_traffic_bytes(self) -> int:
        """Bytes of off-chip signature traffic (sequence creation + fetch)."""
        return self.storage.stats.bytes_read + self.storage.stats.bytes_written

    def sequence_creation_bytes(self) -> int:
        """Bytes written off chip (signature recording and confidence updates)."""
        return self.storage.stats.bytes_written

    def sequence_fetch_bytes(self) -> int:
        """Bytes read from off-chip sequence storage (signature streaming)."""
        return self.storage.stats.bytes_read

    def on_chip_storage_bytes(self) -> int:
        """On-chip storage footprint of this configuration."""
        return self.config.on_chip_storage_bytes()
