"""Cache-hierarchy substrate.

Implements the cache structures the paper's evaluation assumes (Table 1):
LRU set-associative caches (an array-backed model and its object-per-block
legacy reference), a two-level hierarchy (64KB 2-way L1D backed by a 1MB
8-way unified L2), and support for prefetching blocks directly into the
L1D (as both DBCP and LT-cords do).  The out-of-order timing model keeps
its own ring of outstanding misses (:mod:`repro.timing.model`).
"""

from repro.cache.config import CacheConfig
from repro.cache.replacement import FIFOReplacement, LRUReplacement, ReplacementPolicy
from repro.cache.cache import AccessResult, CacheBlock, FastAccessState, SetAssociativeCache
from repro.cache.legacy import LegacySetAssociativeCache
from repro.cache.hierarchy import (
    CacheHierarchy,
    HierarchyAccessResult,
    HierarchyConfig,
    PrefetchOutcome,
    ServiceLevel,
)

__all__ = [
    "AccessResult",
    "CacheBlock",
    "CacheConfig",
    "CacheHierarchy",
    "FastAccessState",
    "FIFOReplacement",
    "LegacySetAssociativeCache",
    "HierarchyAccessResult",
    "HierarchyConfig",
    "LRUReplacement",
    "PrefetchOutcome",
    "ReplacementPolicy",
    "ServiceLevel",
    "SetAssociativeCache",
]
