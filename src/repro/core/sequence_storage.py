"""Off-chip sequence storage, frames, fragments and the sequence tag array.

Section 4.2 of the paper: LT-cords divides main-memory sequence storage
into *frames*, each holding a fixed-length *fragment* of consecutive
last-touch signatures.  Fragments map to frames direct-mapped on the
low-order bits of their *head signature* — a signature that precedes the
fragment in the recorded sequence by several hundred positions, so that
retrieval can begin early enough to hide off-chip latency.  The on-chip
*sequence tag array* stores, per frame, the head hash and the position of
the fragment's sliding window.

Recording is continuous: as long as cache misses occur, newly created
signatures are appended to the current fragment; when the fragment fills,
a new frame is allocated (overwriting whatever fragment previously mapped
there, as in a direct-mapped cache).  To model the paper's bandwidth
accounting (Figure 12), the storage tracks bytes written (sequence
creation and confidence updates) and bytes read (sequence fetch).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.signatures import LastTouchSignature, SignatureConfig


@dataclass(frozen=True)
class SequenceStorageConfig:
    """Off-chip sequence storage parameters.

    The paper's realistic configuration (Section 5.6) uses 160MB of
    off-chip storage partitioned into 4K frames of 8K signatures each
    (32M signatures total, 5 bytes per signature), with the head
    signature preceding its fragment by several hundred signatures and
    signatures streamed on chip in small transfer units.  That geometry
    is available as :data:`PAPER_STORAGE_CONFIG`.

    The *default* fragment size here is scaled down (512 signatures) to
    match the scaled synthetic workloads, whose outer loops produce a few
    thousand — not a few million — misses per iteration; the paper's own
    sensitivity study (Section 5.4) found coverage insensitive to
    fragment size, so the scaling preserves behaviour while letting
    sequences wrap around within short traces.
    """

    num_frames: int = 4096
    fragment_size: int = 512
    head_lookahead: int = 256
    transfer_unit: int = 8
    unlimited_frames: bool = False
    signature_config: SignatureConfig = field(default_factory=SignatureConfig)

    def __post_init__(self) -> None:
        if self.num_frames <= 0 and not self.unlimited_frames:
            raise ValueError("num_frames must be positive unless unlimited_frames is set")
        if self.fragment_size <= 0:
            raise ValueError("fragment_size must be positive")
        if self.head_lookahead < 0:
            raise ValueError("head_lookahead must be non-negative")
        if self.transfer_unit <= 0:
            raise ValueError("transfer_unit must be positive")

    @property
    def total_signatures(self) -> int:
        """Capacity in signatures (meaningless when ``unlimited_frames``)."""
        return self.num_frames * self.fragment_size

    @property
    def storage_bytes(self) -> int:
        """Off-chip storage footprint in bytes."""
        return self.total_signatures * self.signature_config.stored_bytes

    def sequence_tag_array_bits(self, window_bits: int = 13) -> int:
        """On-chip sequence tag array size in bits (head hash + window position per frame)."""
        head_bits = self.signature_config.trace_hash_bits
        return self.num_frames * (head_bits + window_bits)


@dataclass
class SequenceFrame:
    """One frame of off-chip storage holding a fragment of signatures."""

    frame_index: int
    head_key: Optional[int] = None
    signatures: List[LastTouchSignature] = field(default_factory=list)
    generation: int = 0

    @property
    def is_empty(self) -> bool:
        """``True`` when no signatures have been recorded into this frame."""
        return not self.signatures

    def __len__(self) -> int:
        return len(self.signatures)


@dataclass
class SequenceTagEntry:
    """On-chip tracking state for one frame (head hash and sliding window)."""

    head_key: Optional[int] = None
    window_position: int = 0
    generation: int = 0


class SequenceTagArray:
    """The on-chip array tracking the contents of off-chip sequence storage."""

    def __init__(self, num_frames: int) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        self._entries: Dict[int, SequenceTagEntry] = {}

    def entry(self, frame_index: int) -> SequenceTagEntry:
        """Tag entry for ``frame_index`` (created on demand)."""
        return self._entries.setdefault(frame_index, SequenceTagEntry())

    def set_head(self, frame_index: int, head_key: Optional[int], generation: int) -> None:
        """Record the head hash for a (re)allocated frame and reset its window."""
        entry = self.entry(frame_index)
        entry.head_key = head_key
        entry.window_position = 0
        entry.generation = generation

    def lookup_head(self, key: int) -> Optional[int]:
        """Frame index whose head hash equals ``key``, or ``None``."""
        for frame_index, entry in self._entries.items():
            if entry.head_key == key:
                return frame_index
        return None


@dataclass
class SequenceStorageStats:
    """Traffic and occupancy counters."""

    signatures_recorded: int = 0
    frames_allocated: int = 0
    frames_overwritten: int = 0
    signatures_fetched: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    confidence_updates: int = 0


class SequenceStorage:
    """Frame-structured off-chip store of last-touch signature sequences."""

    def __init__(self, config: Optional[SequenceStorageConfig] = None) -> None:
        self.config = config or SequenceStorageConfig()
        self._frames: Dict[int, SequenceFrame] = {}
        # Direct map from head-key index to the frame currently holding the
        # fragment recorded under that head (invariant: at most one frame per
        # head index in limited mode; unlimited mode allocates fresh indices).
        self._head_to_frame: Dict[int, int] = {}
        self.tag_array = SequenceTagArray(max(1, self.config.num_frames))
        self.stats = SequenceStorageStats()
        self._recording_frame: Optional[int] = None
        self._recent_keys: Deque[int] = deque(maxlen=max(1, self.config.head_lookahead))
        self._generation = 0
        self._next_unlimited_index = 0
        self._sig_bytes = self.config.signature_config.stored_bytes

    # ------------------------------------------------------------------ frame management
    def frame(self, frame_index: int) -> Optional[SequenceFrame]:
        """Return the frame at ``frame_index`` if it exists."""
        return self._frames.get(frame_index)

    @property
    def num_allocated_frames(self) -> int:
        """Number of frames that currently hold a fragment."""
        return len(self._frames)

    def total_signatures_stored(self) -> int:
        """Signatures currently resident across all frames."""
        return sum(len(f) for f in self._frames.values())

    def _frame_index_for_head(self, head_key: Optional[int]) -> int:
        if self.config.unlimited_frames:
            index = self._next_unlimited_index
            self._next_unlimited_index += 1
            return index
        if head_key is None:
            return 0
        return head_key % self.config.num_frames

    def _allocate_frame(self, head_key: Optional[int]) -> SequenceFrame:
        frame_index = self._frame_index_for_head(head_key)
        self._generation += 1
        existing = self._frames.get(frame_index)
        if existing is not None:
            self.stats.frames_overwritten += 1
            if existing.head_key is not None:
                self._head_to_frame.pop(existing.head_key, None)
        frame = SequenceFrame(frame_index=frame_index, head_key=head_key, generation=self._generation)
        self._frames[frame_index] = frame
        if head_key is not None:
            self._head_to_frame[head_key] = frame_index
        self.tag_array.set_head(frame_index, head_key, self._generation)
        self.stats.frames_allocated += 1
        return frame

    # ------------------------------------------------------------------ recording
    def record_signature(self, signature: LastTouchSignature) -> Tuple[int, int]:
        """Append a newly created signature to the recorded sequence.

        Returns the off-chip pointer ``(frame_index, offset)`` where the
        signature was stored.  A new frame is allocated whenever the
        current fragment is full; its head signature is the key recorded
        ``head_lookahead`` signatures earlier (or the fragment's own first
        key during early training when no such predecessor exists yet).
        """
        if self._recording_frame is None or len(self._frames[self._recording_frame]) >= self.config.fragment_size:
            head_key = self._recent_keys[0] if self._recent_keys else signature.key
            frame = self._allocate_frame(head_key)
            self._recording_frame = frame.frame_index
        frame = self._frames[self._recording_frame]
        offset = len(frame.signatures)
        frame.signatures.append(signature)
        self.stats.signatures_recorded += 1
        self.stats.bytes_written += self._sig_bytes
        self._recent_keys.append(signature.key)
        return frame.frame_index, offset

    # ------------------------------------------------------------------ streaming
    def lookup_head(self, key: int) -> Optional[int]:
        """Frame index whose fragment is headed by signature ``key``, if any."""
        frame_index = self._head_to_frame.get(key)
        if frame_index is None:
            return None
        frame = self._frames.get(frame_index)
        if frame is None or frame.head_key != key:
            return None
        return frame_index

    def read_window(self, frame_index: int, start: int, count: int) -> List[Tuple[LastTouchSignature, Tuple[int, int]]]:
        """Stream ``count`` signatures of frame ``frame_index`` starting at ``start``.

        Returns ``(signature, pointer)`` pairs and accounts the off-chip
        read traffic.  Reading past the end of the fragment returns only
        the available signatures.
        """
        if count <= 0:
            return []
        frame = self._frames.get(frame_index)
        if frame is None or start >= len(frame.signatures):
            return []
        chunk = frame.signatures[start:start + count]
        self.stats.signatures_fetched += len(chunk)
        self.stats.bytes_read += len(chunk) * self._sig_bytes
        return [(sig, (frame_index, start + i)) for i, sig in enumerate(chunk)]

    def advance_window(self, frame_index: int, position: int) -> None:
        """Record that the sliding window of ``frame_index`` has reached ``position``."""
        entry = self.tag_array.entry(frame_index)
        if position > entry.window_position:
            entry.window_position = position

    def window_position(self, frame_index: int) -> int:
        """Current sliding-window position for ``frame_index``."""
        return self.tag_array.entry(frame_index).window_position

    # ------------------------------------------------------------------ confidence
    def update_confidence(self, pointer: Tuple[int, int], confidence: int) -> bool:
        """Write an updated confidence value back to off-chip storage.

        Returns ``True`` if the pointed-to signature still exists (the
        frame may have been overwritten since the pointer was captured).
        Confidence updates use otherwise-idle bus cycles but still move
        bytes, which the stats account for (Section 4.4).
        """
        frame_index, offset = pointer
        frame = self._frames.get(frame_index)
        self.stats.confidence_updates += 1
        self.stats.bytes_written += 1
        if frame is None or offset >= len(frame.signatures):
            return False
        frame.signatures[offset].confidence = confidence
        return True

    def signature_at(self, pointer: Tuple[int, int]) -> Optional[LastTouchSignature]:
        """Return the stored signature at ``pointer`` (for tests/inspection)."""
        frame_index, offset = pointer
        frame = self._frames.get(frame_index)
        if frame is None or offset >= len(frame.signatures):
            return None
        return frame.signatures[offset]


#: The hardware configuration evaluated in Section 5.6 of the paper:
#: 4K frames of 8K signatures (32M signatures, ~160MB at 5 bytes each).
PAPER_STORAGE_CONFIG = SequenceStorageConfig(num_frames=4096, fragment_size=8192, head_lookahead=256)
