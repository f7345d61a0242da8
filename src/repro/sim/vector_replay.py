"""The fast engine's first tier: the compiled replay kernel, and when a run may take it.

:func:`replay_kernel` replays a whole trace in one native call when the
run qualifies; otherwise ``TraceDrivenSimulator.replay`` replays it on
the simulator's interpreted loop.  Both tiers are bit-identical (the
equivalence suites assert ``SimulationResult.to_dict`` equality with
the kernel on and off):

1. **Compiled kernel** (``kernel-baseline`` / ``kernel-dbcp`` /
   ``kernel-ltcords`` / ``kernel-ghb`` / ``kernel-stride``) — the C
   replay loops of :mod:`repro.cache.vector`, driven through
   :mod:`ctypes` over the trace's own column buffers (no NumPy).  A run
   qualifies when its predictor is exactly one of the built-in fast
   predictors — the :class:`~repro.prefetchers.null.NullPrefetcher`, the
   :class:`~repro.prefetchers.dbcp.FastDBCPPrefetcher` or the
   :class:`~repro.core.ltcords.FastLTCordsPrefetcher` with closed-fold
   signatures of 32–63 bits (the library defaults), the
   :class:`~repro.prefetchers.ghb.FastGHBPrefetcher` or the
   :class:`~repro.prefetchers.stride.FastStridePrefetcher` — on a fresh
   simulator, over addresses below 2^54 whose GHB/stride predictions
   stay below 2^54 too.
2. **Interpreted** — the simulator's own columnar loop
   (``TraceDrivenSimulator.replay_chunks``): plugin predictors, every
   kernel-eligible run that cannot take the kernel, and every core of a
   :mod:`repro.multicore` co-run.

Both tiers serve every replaying simulation kind: trace-driven runs,
the timing runs of :mod:`repro.sim.timing` (Table 3) and the pairwise
runs of :mod:`repro.sim.multiprogram` (Figure 11).  The latter two ask
for the per-access outcome column (``TraceDrivenSimulator.outcomes``),
which each tier fills alongside its counters.

The tier taken is recorded as ``sim.last_tier`` and counted in the
``replay.tier.<tier>`` counters of :data:`repro.obs.metrics.REGISTRY`.
When a kernel-eligible run falls to the interpreted tier, the reason —
``no-compiler``, ``kill-switch`` (``REPRO_NO_VECTOR_KERNEL``),
``address-range``, ``not-fresh`` or ``open-fold`` — is recorded as
``sim.last_fallback`` and counted in ``replay.fallback.<reason>``, and
the first such fallback in a process emits a :class:`RuntimeWarning`:
the interpreted tier is 10-70x slower.

Settling: the kernel reports every counter the interpreted loops
accumulate — loop-local demand/opportunity counters, hierarchy prefetch
sourcing, predictor, storage, signature-cache and history statistics,
and a full per-cache ``CacheStats`` mirror (plus each cache's LRU
serial) — and this module folds them into the simulator's Python
objects.  A kernel run never builds the Python cache contents (they are
materialised on first use), so a simulator that took the kernel cannot
replay further; results are built purely from the settled statistics.
"""

from __future__ import annotations

import ctypes
import warnings
from array import array
from typing import Any, Callable, List, NamedTuple, Optional

from repro.cache import vector
from repro.core.ltcords import FastLTCordsPrefetcher
from repro.memory.bus import TrafficCategory
from repro.obs.metrics import REGISTRY
from repro.prefetchers.dbcp import FastDBCPPrefetcher
from repro.prefetchers.ghb import FastGHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stride import FastStridePrefetcher
from repro.trace.stream import TraceStream

#: Kernel node pools are indexed with int32.
_MAX_KERNEL_ACCESSES = 1 << 30

# Output-slot layout shared with the C kernels (see repro/cache/vector.py).
_OUT_MAIN_L1 = 24
_OUT_MAIN_L2 = 34
_OUT_BASE_L1 = 44
_OUT_BASE_L2 = 54
_OUT_LTCORDS = 64

TIERS = (
    "kernel-baseline", "kernel-dbcp", "kernel-ltcords", "kernel-ghb", "kernel-stride",
    "interpreted",
)
FALLBACK_REASONS = ("no-compiler", "kill-switch", "address-range", "not-fresh", "open-fold")

_TIER_COUNTERS = {tier: REGISTRY.counter(f"replay.tier.{tier}") for tier in TIERS}
_FALLBACK_COUNTERS = {
    reason: REGISTRY.counter(f"replay.fallback.{reason}") for reason in FALLBACK_REASONS
}
_warned_fallback = False


def replay_kernel(sim, trace: TraceStream) -> bool:
    """Replay ``trace`` on ``sim`` through the kernel; ``False`` if it must run interpreted.

    ``sim`` is a fast-engine ``TraceDrivenSimulator``; a kernel-eligible
    predictor that cannot take the kernel has its fallback noted.
    """
    if sim._kernel_ran:
        raise RuntimeError(
            "cannot continue replaying on a simulator after a compiled kernel "
            "run; use a fresh TraceDrivenSimulator per trace"
        )
    route = _ROUTES.get(type(sim.prefetcher))
    sim.last_fallback = None
    if route is not None:
        reason = route.unfit(sim.prefetcher)
        if reason is None and not _sim_is_fresh(sim):
            reason = "not-fresh"
        if reason is None:
            reason = _run_kernel(sim, trace, route)
        if reason is None:
            sim.last_tier = f"kernel-{route.kind}"
            _TIER_COUNTERS[sim.last_tier].inc()
            return True
        _note_fallback(sim, reason)
    return False


def _note_fallback(sim, reason: str) -> None:
    global _warned_fallback
    sim.last_fallback = reason
    _FALLBACK_COUNTERS[reason].inc()
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"{type(sim.prefetcher).__name__} replay fell back from the compiled "
            f"kernel to the interpreted tier ({reason}); it runs 10-70x slower. "
            "Later fallbacks are counted in replay.fallback.* without a warning.",
            RuntimeWarning,
            stacklevel=4,
        )


# ---------------------------------------------------------------------- gates
def _sim_is_fresh(sim) -> bool:
    """True iff the simulator has accumulated no replay state.

    The kernel builds cache and predictor state from an empty start, so a
    simulator that has already replayed references must continue on the
    incremental interpreted loops to stay bit-identical.
    """
    if sim.hierarchy.stats.accesses or sim.baseline.stats.accesses:
        return False
    if sim.hierarchy.stats.prefetches_issued:
        return False
    breakdown = sim.breakdown
    if breakdown.base_misses or breakdown.correct or breakdown.early:
        return False
    if breakdown.incorrect_prefetches or sim._prefetched:
        return False
    if sim.request_queue._queue:
        return False
    for cache in (sim.hierarchy.l1, sim.hierarchy.l2, sim.baseline.l1, sim.baseline.l2):
        if cache._serial:
            return False
    stats = sim.prefetcher.stats
    return not (stats.accesses_observed or stats.predictions_issued)


def _fresh(is_fresh: bool) -> Optional[str]:
    return None if is_fresh else "not-fresh"


def _history_unfit(prefetcher, is_fresh: bool) -> Optional[str]:
    """The DBCP/LT-cords gate: the kernel folds closed history keys of under 64 bits."""
    if not (prefetcher._closed_fold and prefetcher._key_bits < 64):
        return "open-fold"
    return _fresh(is_fresh and not prefetcher.history.stats.evictions)


def _dbcp_unfit(prefetcher: FastDBCPPrefetcher) -> Optional[str]:
    return _history_unfit(prefetcher, not (
        prefetcher._blocks or prefetcher._table or prefetcher._outstanding
        or prefetcher.dbcp_stats.signatures_recorded
    ))


def _ltcords_unfit(prefetcher: FastLTCordsPrefetcher) -> Optional[str]:
    return _history_unfit(prefetcher, not (
        prefetcher._blocks or prefetcher._outstanding or prefetcher._pending
        or prefetcher._access_counter or prefetcher.storage.stats.signatures_recorded
        or prefetcher.signature_cache.stats.inserts
    ))


# --------------------------------------------------------------- kernel calls
def _c_column(column, ctype, typecode: str):
    """A ctypes array over ``column``'s buffer, or ``None`` if out of range.

    Writable buffers (``array`` columns) are viewed zero-copy; read-only
    ones (the trace store's mmap views) are copied once.  Plain-list
    columns hold values that do not fit 64 bits.
    """
    kind = ctype * len(column)
    try:
        return kind.from_buffer(column)
    except TypeError:
        pass
    try:
        return kind.from_buffer_copy(column)
    except TypeError:
        pass
    try:
        return kind.from_buffer(array(typecode, column))
    except OverflowError:
        return None


def _geometry_cfg(sim) -> list:
    """cfg slots 0-8: cache geometry shared by every kernel."""
    l1 = sim.hierarchy_config.l1
    l2 = sim.hierarchy_config.l2
    return [
        l1.num_sets,
        l1.associativity,
        l1.offset_bits,
        l1.index_bits,
        l2.num_sets,
        l2.associativity,
        l2.offset_bits,
        l2.index_bits,
        sim._block_mask,
    ]


def _history_cfg(prefetcher) -> list:
    """DBCP/LT-cords cfg slots 9-14: the history fold and confidence counter."""
    return [
        prefetcher._block_mask,
        prefetcher._key_bits,
        prefetcher._key_mask,
        prefetcher._confidence_threshold,
        prefetcher._initial_confidence,
        prefetcher._max_confidence,
    ]


def _dbcp_cfg(sim) -> list:
    prefetcher = sim.prefetcher
    table_entries = prefetcher._table_entries
    return _history_cfg(prefetcher) + [-1 if table_entries is None else table_entries]


def _ltcords_cfg(sim) -> list:
    prefetcher = sim.prefetcher
    storage = prefetcher.config.storage_config
    signature_cache = prefetcher.config.signature_cache_config
    return _history_cfg(prefetcher) + [
        prefetcher._stream_window,
        prefetcher._fetch_delay,
        storage.num_frames,
        int(storage.unlimited_frames),
        storage.fragment_size,
        max(1, storage.head_lookahead),
        storage.signature_config.stored_bytes,
        signature_cache.num_sets,
        signature_cache.index_bits,
        signature_cache.associativity,
    ]


def _ghb_cfg(sim) -> list:
    prefetcher = sim.prefetcher
    return [
        sim.request_queue.capacity,
        prefetcher._block_mask,
        prefetcher._index_entries,
        prefetcher._entries,
        prefetcher._degree,
        prefetcher._history_depth,
    ]


def _stride_cfg(sim) -> list:
    prefetcher = sim.prefetcher
    return [
        sim.request_queue.capacity,
        prefetcher._block_mask,
        prefetcher._table_entries,
        prefetcher._degree,
        prefetcher._train_threshold,
    ]


def _run_kernel(sim, trace: TraceStream, route: "_Route") -> Optional[str]:
    """Replay through the compiled kernel; the fallback reason if it cannot."""
    from repro.sim.trace_driven import OUTCOME_FILL_SPILL

    kernel = vector.load_kernel()
    if kernel is None:
        return vector.unavailable_reason()
    num_accesses = len(trace)
    if num_accesses >= _MAX_KERNEL_ACCESSES:
        return "address-range"
    columns = trace.as_arrays()
    address = _c_column(columns.address, ctypes.c_int64, "q")
    is_write = _c_column(columns.is_write, ctypes.c_int8, "b")
    if address is None or is_write is None:
        return "address-range"
    pc = None
    if route.kind != "baseline":  # the no-prefetcher kernel never reads the PCs
        pc = _c_column(columns.pc, ctypes.c_int64, "q")
        if pc is None:
            return "address-range"
    out = (ctypes.c_int64 * vector.OUT_SLOTS)()
    outcomes = sim.outcomes
    col = spill = None
    if outcomes is not None:
        col = (ctypes.c_int8 * num_accesses)()
        # Only a degree this deep can fill more blocks after one access
        # than an outcome byte holds.
        if getattr(sim.prefetcher, "_degree", 0) >= OUTCOME_FILL_SPILL:
            spill = (ctypes.c_int64 * num_accesses)()
    cfg = _geometry_cfg(sim) + route.cfg(sim)
    rc = getattr(kernel, f"replay_{route.kind}")(
        num_accesses, pc, address, is_write, (ctypes.c_int64 * len(cfg))(*cfg), out, col, spill
    )
    if rc == 2:
        return "address-range"
    if rc != 0:
        raise MemoryError("the compiled replay kernel ran out of memory")
    counters = list(out)  # plain python ints: stats stay JSON-safe
    route.settle(sim, num_accesses, counters)
    if col is not None:
        outcomes.frombytes(col)
    if spill is not None:
        sim.fill_spill.extend(spill[: counters[23]])
    sim._kernel_ran = True
    return None


# ------------------------------------------------------------------ settling
def _settle_cache(cache, counters) -> None:
    """Fold one kernel per-cache stats block (10 ints) into a live cache."""
    stats = cache.stats
    stats.accesses += counters[0]
    stats.hits += counters[1]
    stats.misses += counters[2]
    stats.evictions += counters[3]
    stats.prefetch_insertions += counters[4]
    stats.prefetch_hits += counters[5]
    stats.prefetch_unused_evictions += counters[6]
    stats.writebacks += counters[7]
    stats.prefetch_caused_evictions += counters[8]
    cache._serial += counters[9]


def _settle_prefetching(sim, num_accesses: int, counters) -> None:
    """What every prefetching kernel shares: caches, bus, request queue, feedback counts."""
    sim._settle_fast_run(num_accesses, *counters[0:8])
    breakdown = sim.breakdown
    breakdown.incorrect_prefetches += counters[11]
    if counters[12]:
        sim.bus.record(
            TrafficCategory.INCORRECT_PREDICTION,
            counters[12] * sim.hierarchy.block_size,
            requests=counters[12],
        )
    issued, dropped = counters[13], counters[22]
    hierarchy_stats = sim.hierarchy.stats
    hierarchy_stats.prefetches_issued += issued
    hierarchy_stats.prefetches_from_l2 += counters[14]
    hierarchy_stats.prefetches_from_memory += counters[15]
    # The queue drains after every access: each command was issued or dropped.
    request_queue = sim.request_queue
    request_queue._serial += issued + dropped
    request_queue.enqueued += issued + dropped
    request_queue.dropped += dropped
    request_queue.issued += issued

    stats = sim.prefetcher.stats
    stats.accesses_observed += num_accesses
    stats.misses_observed += num_accesses - counters[5]
    stats.predictions_issued += counters[8]
    stats.prefetches_used += counters[9]
    stats.prefetches_evicted_unused += counters[10]

    _settle_cache(sim.hierarchy.l1, counters[_OUT_MAIN_L1 : _OUT_MAIN_L1 + 10])
    _settle_cache(sim.hierarchy.l2, counters[_OUT_MAIN_L2 : _OUT_MAIN_L2 + 10])
    _settle_cache(sim.baseline.l1, counters[_OUT_BASE_L1 : _OUT_BASE_L1 + 10])
    _settle_cache(sim.baseline.l2, counters[_OUT_BASE_L2 : _OUT_BASE_L2 + 10])


def _settle_fields(stats, fields, values) -> None:
    """Add ``values`` to the named counters of one statistics object."""
    for name, value in zip(fields, values):
        setattr(stats, name, getattr(stats, name) + value)


def _settle_with_history(sim, num_accesses: int, counters) -> None:
    """What DBCP and LT-cords share: the above plus their history table's evictions."""
    _settle_prefetching(sim, num_accesses, counters)
    _settle_fields(sim.prefetcher.history.stats, ("evictions", "cold_evictions"), counters[20:22])


def _settle_dbcp(sim, num_accesses: int, counters) -> None:
    _settle_with_history(sim, num_accesses, counters)
    _settle_fields(sim.prefetcher.dbcp_stats, (
        "table_hits", "low_confidence_suppressions", "signatures_recorded", "table_evictions",
    ), counters[16:20])


def _settle_ltcords(sim, num_accesses: int, counters) -> None:
    _settle_with_history(sim, num_accesses, counters)
    prefetcher = sim.prefetcher
    prefetcher._access_counter += num_accesses
    values = counters[_OUT_LTCORDS : _OUT_LTCORDS + 18]
    _settle_fields(prefetcher.ltstats, (
        "signatures_created", "head_matches", "signature_cache_predictions",
        "low_confidence_suppressions", "signatures_streamed",
        "confidence_increments", "confidence_decrements",
    ), values[0:7])
    _settle_fields(prefetcher.storage.stats, (
        "signatures_recorded", "frames_allocated", "frames_overwritten",
        "signatures_fetched", "bytes_written", "bytes_read", "confidence_updates",
    ), values[7:14])
    _settle_fields(
        prefetcher.signature_cache.stats, ("lookups", "hits", "inserts", "replacements"),
        values[14:18],
    )


def _settle_ghb(sim, num_accesses: int, counters) -> None:
    _settle_prefetching(sim, num_accesses, counters)
    _settle_fields(sim.prefetcher.ghb_stats, (
        "misses_inserted", "delta_correlations", "stride_fallbacks", "chains_too_short",
    ), counters[16:20])


def _settle_baseline(sim, num_accesses: int, counters) -> None:
    """Mirror the one simulated L1/L2 pair onto both hierarchies.

    With the :class:`NullPrefetcher` the main and baseline hierarchies
    see identical streams, so every baseline miss is a main miss too:
    correct and early are structurally zero.
    """
    l1_hits, l2_hits, l2_misses = counters[0], counters[1], counters[2]
    sim._settle_fast_run(
        num_accesses, num_accesses - l1_hits, 0, 0, l2_hits, l2_misses, l1_hits, l2_hits, l2_misses
    )
    l1_counters = counters[_OUT_MAIN_L1 : _OUT_MAIN_L1 + 10]
    l2_counters = counters[_OUT_MAIN_L2 : _OUT_MAIN_L2 + 10]
    for hierarchy in (sim.hierarchy, sim.baseline):
        _settle_cache(hierarchy.l1, l1_counters)
        _settle_cache(hierarchy.l2, l2_counters)
    stats = sim.prefetcher.stats
    stats.accesses_observed += num_accesses
    stats.misses_observed += num_accesses - l1_hits


# ------------------------------------------------------------------- routes
class _Route(NamedTuple):
    """How one predictor class replays on the kernel."""

    #: The tier is ``kernel-<kind>``; the entry point ``repro_replay_<kind>``.
    kind: str
    #: Why the predictor's configuration or state keeps it off the kernel.
    unfit: Callable[[Any], Optional[str]]
    #: The cfg slots after the geometry (9 on).
    cfg: Callable[[Any], List[int]]
    #: Folds the ``out`` counters into the simulator's objects.
    settle: Callable[[Any, int, List[int]], None]


_ROUTES = {
    NullPrefetcher: _Route("baseline", lambda prefetcher: None, lambda sim: [], _settle_baseline),
    FastDBCPPrefetcher: _Route("dbcp", _dbcp_unfit, _dbcp_cfg, _settle_dbcp),
    FastLTCordsPrefetcher: _Route("ltcords", _ltcords_unfit, _ltcords_cfg, _settle_ltcords),
    FastGHBPrefetcher: _Route(
        "ghb",
        lambda prefetcher: _fresh(prefetcher._serial == 0 and not prefetcher._index_table),
        _ghb_cfg,
        _settle_ghb,
    ),
    FastStridePrefetcher: _Route(
        "stride", lambda prefetcher: _fresh(not prefetcher._table), _stride_cfg,
        _settle_prefetching,
    ),
}
