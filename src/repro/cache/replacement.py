"""Replacement policies for set-associative caches.

The baseline data caches use LRU, which the array-backed cache keeps in
its stamp arrays.  The LT-cords signature cache uses FIFO replacement
(Section 4.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List


class ReplacementPolicy(ABC):
    """Per-cache replacement-state tracker.

    A policy instance serves every set of one cache; each method takes the
    set index explicitly so the policy can keep per-set state.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0 or associativity <= 0:
            raise ValueError("num_sets and associativity must be positive")
        self.num_sets = num_sets
        self.associativity = associativity

    @abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Record a demand hit to ``way`` of ``set_index``."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record a fill (miss or prefetch insertion) into ``way``."""

    @abstractmethod
    def victim_way(self, set_index: int, occupied_ways: List[int]) -> int:
        """Choose a victim among ``occupied_ways`` of a full set."""


class FIFOReplacement(ReplacementPolicy):
    """First-in-first-out replacement (LT-cords signature cache)."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._queue: Dict[int, List[int]] = {}

    def on_access(self, set_index: int, way: int) -> None:
        # FIFO ignores hits.
        return None

    def on_fill(self, set_index: int, way: int) -> None:
        queue = self._queue.setdefault(set_index, [])
        if way in queue:
            queue.remove(way)
        queue.append(way)

    def victim_way(self, set_index: int, occupied_ways: List[int]) -> int:
        queue = self._queue.setdefault(set_index, [])
        unseen = [w for w in occupied_ways if w not in queue]
        if unseen:
            return unseen[0]
        for way in queue:
            if way in occupied_ways:
                return way
        return occupied_ways[0]
