"""The prefetcher interface shared by LT-cords and the baseline predictors.

The trace-driven and timing simulators drive every predictor through the
same three-call protocol:

1. The simulator performs the demand access against the cache hierarchy.
2. It packages the outcome into an :class:`AccessOutcome` and passes it to
   :meth:`Prefetcher.on_access`, which returns zero or more
   :class:`PrefetchCommand` objects.
3. The simulator executes each command against the hierarchy and reports
   the result back through :meth:`Prefetcher.on_prefetch_installed`, and
   later reports consumption/eviction of prefetched blocks through
   :meth:`Prefetcher.on_prefetch_used` / :meth:`Prefetcher.on_prefetch_evicted_unused`.

This keeps every predictor purely reactive and lets the same simulator
drive DBCP, GHB, stride prefetching and LT-cords interchangeably.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional

from repro.trace.record import MemoryAccess


class AccessOutcome:
    """What the cache hierarchy did with one committed memory reference.

    A mutable ``__slots__`` record: the fast simulation engine reuses a
    single instance across the whole trace, so predictors must consume
    the fields inside :meth:`Prefetcher.on_access` and never retain the
    outcome (or its ``access``) beyond the call.
    """

    __slots__ = (
        "access",
        "block_address",
        "set_index",
        "l1_hit",
        "l2_hit",
        "prefetch_hit",
        "evicted_address",
        "evicted_was_unused_prefetch",
    )

    def __init__(
        self,
        access: MemoryAccess,
        block_address: int,
        set_index: int,
        l1_hit: bool,
        l2_hit: bool = False,
        prefetch_hit: bool = False,
        evicted_address: Optional[int] = None,
        evicted_was_unused_prefetch: bool = False,
    ) -> None:
        self.access = access
        self.block_address = block_address
        self.set_index = set_index
        self.l1_hit = l1_hit
        self.l2_hit = l2_hit
        self.prefetch_hit = prefetch_hit
        self.evicted_address = evicted_address
        self.evicted_was_unused_prefetch = evicted_was_unused_prefetch

    @property
    def l1_miss(self) -> bool:
        """``True`` if the reference missed in the L1D."""
        return not self.l1_hit


class PrefetchCommand:
    """A request to bring ``address`` into the L1D, displacing ``victim_address``."""

    __slots__ = ("address", "victim_address", "tag")

    def __init__(
        self,
        address: int,
        victim_address: Optional[int] = None,
        # Opaque tag the issuing predictor can use to match feedback callbacks
        # (LT-cords stores the off-chip signature pointer here).
        tag: Optional[object] = None,
    ) -> None:
        self.address = address
        self.victim_address = victim_address
        self.tag = tag


@dataclass
class PrefetcherStats:
    """Counters common to every predictor."""

    accesses_observed: int = 0
    misses_observed: int = 0
    predictions_issued: int = 0
    prefetches_used: int = 0
    prefetches_evicted_unused: int = 0

    @property
    def accuracy(self) -> float:
        """Used prefetches per issued prediction."""
        if self.predictions_issued == 0:
            return 0.0
        return self.prefetches_used / self.predictions_issued


class Prefetcher(ABC):
    """Abstract base class for all predictors.

    Every engine drives a predictor through the same calls:
    :meth:`on_access` once per access (it counts
    ``stats.accesses_observed`` and ``stats.misses_observed`` itself)
    and the prefetch feedback callbacks below.  The fast engine's interpreted loop passes one
    reused :class:`AccessOutcome`; the built-in predictors also replay
    on the compiled kernel (:mod:`repro.sim.vector_replay`), which
    settles their statistics objects at the end of the run.
    """

    name: str = "prefetcher"

    def __init__(self) -> None:
        self.stats = PrefetcherStats()

    @abstractmethod
    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        """Observe one committed memory reference; return prefetches to issue."""

    def on_prefetch_installed(
        self,
        address: int,
        evicted_address: Optional[int],
        tag: Optional[object] = None,
    ) -> None:
        """Called after a prefetched block was installed in the L1D.

        ``address`` is the (block-aligned) prefetched address and
        ``evicted_address`` the block the insertion displaced, if any.
        Predictors that maintain per-block history (DBCP, LT-cords) use
        this to keep the history table consistent with the cache contents
        — a prefetch-induced eviction is an eviction like any other.
        """

    def on_prefetch_used(self, block_address: int, tag: Optional[object]) -> None:
        """Called when a demand access consumes a block this predictor prefetched."""
        self.stats.prefetches_used += 1

    def on_prefetch_evicted_unused(self, block_address: int, tag: Optional[object]) -> None:
        """Called when a prefetched block is evicted without ever being referenced."""
        self.stats.prefetches_evicted_unused += 1

    def signature_traffic_bytes(self) -> int:
        """Off-chip predictor-metadata traffic generated so far, in bytes.

        Only LT-cords moves signature sequences across the memory bus; the
        default implementation reports zero.
        """
        return 0
