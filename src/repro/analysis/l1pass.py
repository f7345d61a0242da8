"""The one L1 replay behind the trace studies of Figures 2, 6 and 7.

Each study needs, per access, whether it hit and which block (if any) a
miss evicted: :func:`l1_outcomes` returns that as one column, which the
studies ``zip`` with the trace's other columns.
"""

from __future__ import annotations

from typing import List

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.trace.stream import TraceColumns

#: Outcome of an access that hit.
HIT = -2
#: Outcome of a miss that filled a free way.
NO_EVICTION = -1


def l1_outcomes(columns: TraceColumns, config: CacheConfig) -> List[int]:
    """Replay ``columns`` through an empty ``config`` cache, one outcome per access.

    Each outcome is :data:`HIT`, :data:`NO_EVICTION`, or the (non-negative)
    block address the miss evicted.  A negative address (which would alias
    the cache's empty-way tag) raises ``ValueError``.
    """
    columns.check_addresses()
    cache = SetAssociativeCache(config)
    access = cache.access_fast
    last = cache.last
    outcomes: List[int] = []
    append = outcomes.append
    for address, is_write in zip(columns.address, columns.is_write):
        if access(address, is_write):
            append(HIT)
        else:
            evicted = last.evicted_address
            append(NO_EVICTION if evicted is None else evicted)
    return outcomes
