"""Cache-hierarchy substrate.

Implements the cache structures the paper's evaluation assumes (Table 1):
LRU set-associative caches (an array-backed model the compiled kernel
mirrors), a two-level hierarchy (64KB 2-way L1D backed by a 1MB
8-way unified L2), and support for prefetching blocks directly into the
L1D (as both DBCP and LT-cords do).  The out-of-order timing model keeps
its own ring of outstanding misses (:mod:`repro.timing.model`).
"""

from repro.cache.config import CacheConfig
from repro.cache.replacement import FIFOReplacement, ReplacementPolicy
from repro.cache.cache import AccessResult, FastAccessState, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, ServiceLevel

__all__ = [
    "AccessResult",
    "CacheConfig",
    "CacheHierarchy",
    "FastAccessState",
    "FIFOReplacement",
    "HierarchyConfig",
    "ReplacementPolicy",
    "ServiceLevel",
    "SetAssociativeCache",
]
