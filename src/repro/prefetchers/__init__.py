"""Baseline predictors the paper compares LT-cords against.

* :class:`~repro.prefetchers.dbcp.DBCPPrefetcher` — the Dead-Block
  Correlating Prefetcher of Lai & Falsafi with a finite (or unlimited)
  on-chip correlation table (Section 2).
* :class:`~repro.prefetchers.ghb.GHBPrefetcher` — the Global History
  Buffer PC/DC (delta-correlation) prefetcher of Nesbit & Smith.
* :class:`~repro.prefetchers.stride.StridePrefetcher` — a classic per-PC
  stride (reference prediction table) prefetcher, subsumed by GHB PC/DC
  but useful as an additional baseline and for ablations.
* :class:`~repro.prefetchers.null.NullPrefetcher` — the no-prefetch
  baseline.
"""

from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher, PrefetcherStats
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher

__all__ = [
    "AccessOutcome",
    "DBCPConfig",
    "DBCPPrefetcher",
    "GHBConfig",
    "GHBPrefetcher",
    "NullPrefetcher",
    "PrefetchCommand",
    "Prefetcher",
    "PrefetcherStats",
    "StrideConfig",
    "StridePrefetcher",
]
