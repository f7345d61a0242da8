"""The paper's primary contribution: LT-cords and its last-touch machinery.

Sub-modules:

* :mod:`repro.core.interface` — the prefetcher interface shared with the
  baseline predictors.
* :mod:`repro.core.signatures` — last-touch signature encoding and hashing.
* :mod:`repro.core.history` — the DBCP/LT-cords history table (per-set PC
  trace and previously-evicted tags, Section 4.1).
* :mod:`repro.core.signature_cache` — the set-associative, FIFO-replaced
  on-chip signature cache (Sections 3.2 and 4.3).
* :mod:`repro.core.sequence_storage` — off-chip sequence storage: frames,
  fragments, head signatures and the sequence tag array (Section 4.2).
* :mod:`repro.core.ltcords` — the LT-cords prefetcher tying it together.
"""

from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher, PrefetcherStats
from repro.core.signatures import LastTouchSignature, SignatureConfig, fold_hash, hash_combine
from repro.core.history import HistoryTable
from repro.core.signature_cache import SignatureCache, SignatureCacheConfig, SignatureCacheEntry
from repro.core.sequence_storage import (
    SequenceFrame,
    SequenceStorage,
    SequenceStorageConfig,
    SequenceTagArray,
)
from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher

__all__ = [
    "AccessOutcome",
    "HistoryTable",
    "LTCordsConfig",
    "LTCordsPrefetcher",
    "LastTouchSignature",
    "PrefetchCommand",
    "Prefetcher",
    "PrefetcherStats",
    "SequenceFrame",
    "SequenceStorage",
    "SequenceStorageConfig",
    "SequenceTagArray",
    "SignatureCache",
    "SignatureCacheConfig",
    "SignatureCacheEntry",
    "SignatureConfig",
    "fold_hash",
    "hash_combine",
]
