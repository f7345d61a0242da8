"""The first replay tier: the compiled replay kernel, and when a run may take it.

Every replay on the kernel is a :class:`KernelLane`: one kernel state
opened over the simulator's whole trace, run chunk by chunk (one native
call each), then settled into the simulator's Python objects and
closed.  :func:`replay_kernel` replays a single-core trace as one chunk
when the run qualifies; otherwise ``TraceDrivenSimulator.replay``
replays it on the simulator's interpreted loop.  A
:mod:`repro.multicore` co-run opens one lane per core over C copies of
its two shared L2s (:func:`open_co_run`) and runs them in schedule
order.  Both tiers are bit-identical (the equivalence suites assert
``SimulationResult.to_dict`` and ``MulticoreResult.to_dict`` equality
with the kernel on and off):

1. **Compiled kernel** (``kernel-baseline`` / ``kernel-dbcp`` /
   ``kernel-ltcords`` / ``kernel-ghb`` / ``kernel-stride``) — the C
   replay loops of :mod:`repro.cache.vector`, driven through
   :mod:`ctypes` over the trace's own column buffers (no NumPy).  A run
   qualifies when its predictor is exactly one of the built-in
   predictors — the :class:`~repro.prefetchers.null.NullPrefetcher`, the
   :class:`~repro.prefetchers.dbcp.DBCPPrefetcher` or the
   :class:`~repro.core.ltcords.LTCordsPrefetcher` with closed-fold
   signatures of 32–63 bits and a history at the L1's block size (the
   library defaults), the
   :class:`~repro.prefetchers.ghb.GHBPrefetcher` or the
   :class:`~repro.prefetchers.stride.StridePrefetcher` — on a fresh
   simulator, over addresses below 2^54 whose GHB/stride predictions
   stay below 2^54 too.  A co-run qualifies when every lane does.  The
   kernel reads the predictor's configuration from its ``config`` and
   settles into the same statistics objects the interpreted tier fills.
2. **Interpreted** — the simulator's own columnar loop
   (``TraceDrivenSimulator.replay_chunks``): plugin predictors, every
   kernel-eligible run that cannot take the kernel, and every core of a
   co-run that cannot run all its cores on the kernel.

Both tiers serve every replaying simulation kind: trace-driven runs,
the timing runs of :mod:`repro.sim.timing` (Table 3), the pairwise
runs of :mod:`repro.sim.multiprogram` (Figure 11) and the multicore
co-runs (Figure 11's shared-L2 mode).  Timing and pairwise runs ask
for the per-access outcome column (``TraceDrivenSimulator.outcomes``),
which each tier fills alongside its counters.

The tier taken is recorded as ``sim.last_tier`` and counted in the
``replay.tier.<tier>`` counters of :data:`repro.obs.metrics.REGISTRY`.
When a kernel-eligible run falls to the interpreted tier, the reason —
``no-compiler``, ``kill-switch`` (``REPRO_NO_VECTOR_KERNEL``),
``address-range``, ``not-fresh``, ``open-fold``, ``history-block`` (a
DBCP/LT-cords history block size other than the L1's) or ``co-runner``
(another core of its co-run kept it off the kernel) — is recorded as
``sim.last_fallback`` and counted in ``replay.fallback.<reason>``, and
the first such fallback in a process emits a :class:`RuntimeWarning`:
the interpreted tier is 10-70x slower.  A lane that leaves the kernel's
address range mid-replay (rc 2) has settled nothing, so the replay (the
whole co-run, for a co-run lane) starts over on the interpreted tier.

Settling: the kernel reports every counter the interpreted loops
accumulate — loop-local demand/opportunity counters, hierarchy prefetch
sourcing, predictor, storage, signature-cache and history statistics,
and a full per-cache ``CacheStats`` mirror (plus each cache's LRU
serial; a shared L2's once per co-run, with its ownership map and
cross-core counts) — and this module folds them into the simulator's
Python objects.  A kernel run never builds the Python cache contents
(they are materialised on first use), so a simulator that took the
kernel cannot replay further; results are built purely from the
settled statistics."""

from __future__ import annotations

import ctypes
import warnings
from array import array
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cache import vector
from repro.core.ltcords import LTCordsPrefetcher
from repro.memory.bus import TrafficCategory
from repro.obs.metrics import REGISTRY
from repro.prefetchers.dbcp import DBCPPrefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.trace.stream import TraceStream

#: Kernel node pools are indexed with int32: an unlimited DBCP table
#: grows to at most 2n + 16 nodes, so n stays below this bound.
_MAX_KERNEL_ACCESSES = (1 << 30) - 8

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
FALLBACK_REASONS = (
    "no-compiler", "kill-switch", "address-range", "not-fresh", "open-fold", "history-block",
    "co-runner",
)

_TIER_COUNTERS = {tier: REGISTRY.counter(f"replay.tier.{tier}") for tier in TIERS}
_FALLBACK_COUNTERS = {
    reason: REGISTRY.counter(f"replay.fallback.{reason}") for reason in FALLBACK_REASONS
}
_warned_fallback = False


class KernelRangeError(Exception):
    """A lane met an address or prediction outside the kernel range (rc 2).

    ``sim`` is the lane's simulator.  Nothing was settled: the replay
    starts over on the interpreted tier.
    """

    def __init__(self, sim) -> None:
        super().__init__("the replay left the compiled kernel's address range")
        self.sim = sim


class KernelLane:
    """One simulator's open kernel state over its whole trace.

    :meth:`run_chunk` replays the next chunk of accesses in one native
    call, :meth:`settle` closes the state and folds its counters into the
    simulator, and :meth:`close` frees an unsettled state (a no-op after
    :meth:`settle`).  The lane keeps the ctypes views of its trace
    columns alive until the state is closed.
    """

    def __init__(self, kernel, handle, sim, route: "_Route", kind: str, buffers, col, spill):
        self._kernel = kernel
        self._handle = handle
        self.sim = sim
        self.tier = f"kernel-{route.kind}"
        # The co-run "null" lane steps both hierarchies: it settles like a predictor lane.
        self._settle = _settle_prefetching if kind == "null" else route.settle
        self._buffers = buffers  # what the C state reads: pc, address, is_write, cfg
        self._col = col
        self._spill = spill
        self.length = len(buffers[1])

    def run_chunk(self, start: int, stop: int) -> None:
        """Replay accesses ``start:stop``, which must continue the replay."""
        rc = self._kernel.run(self._handle, start, stop)
        if rc == 2:
            raise KernelRangeError(self.sim)
        if rc == 1:
            raise MemoryError("the compiled replay kernel ran out of memory")
        if rc:
            raise ValueError(
                f"chunk {start}:{stop} does not continue the replay of {self.length} accesses"
            )

    def settle(self) -> None:
        """Close the state and fold its counters into the simulator."""
        out = (ctypes.c_int64 * vector.OUT_SLOTS)()
        self._close(out)
        counters = list(out)  # plain python ints: stats stay JSON-safe
        sim = self.sim
        self._settle(sim, self.length, counters)
        if self._col is not None:
            sim.outcomes.frombytes(self._col)
        if self._spill is not None:
            sim.fill_spill.extend(self._spill[: counters[23]])
        sim._kernel_ran = True
        sim.last_tier = self.tier
        _TIER_COUNTERS[self.tier].inc()

    def close(self) -> None:
        """Free the state without settling (nothing to do once settled)."""
        if self._handle is not None:
            self._close(None)

    def _close(self, out) -> None:
        handle, self._handle = self._handle, None
        self._kernel.close(handle, out)


def replay_kernel(sim, trace: TraceStream) -> bool:
    """Replay ``trace`` on ``sim`` through the kernel; ``False`` if it must run interpreted.

    ``sim`` is a ``TraceDrivenSimulator``; a kernel-eligible
    predictor that cannot take the kernel has its fallback noted.  The
    lane opens, runs the whole trace as one chunk and settles.
    """
    _check_not_settled(sim)
    sim.last_fallback = None
    route, reason = _gate(sim)
    if route is None:
        return False
    if reason is None:
        lane = None
        try:
            lane = _open(sim, trace, route)
            lane.run_chunk(0, len(trace))
            lane.settle()
            return True
        except KernelRangeError:
            reason = "address-range"
        finally:
            if lane is not None:
                lane.close()
    _note_fallback(sim, reason)
    return False


class CoRunKernel:
    """The kernel lanes of one co-run, over C copies of its two shared L2s.

    ``lanes[core]`` is core ``core``'s :class:`KernelLane`.  After every
    lane settled, :meth:`settle` folds each shared L2's statistics,
    ownership map and cross-core counts into its
    :class:`~repro.cache.hierarchy.SharedL2` once; :meth:`close` frees
    whatever is still open.
    """

    def __init__(self, kernel, shared_l2s: Sequence[Any], sims: Sequence[Any]) -> None:
        self._kernel = kernel
        self._shared_l2s = shared_l2s
        self._num_cores = len(sims)
        self.lanes: List[KernelLane] = []
        cfg = _geometry_cfg(sims[0])
        cfg = (ctypes.c_int64 * len(cfg))(*cfg)
        self._shared: List[Any] = []
        for _ in shared_l2s:
            handle = kernel.shared_open(cfg, self._num_cores)
            if handle is None:
                self.close()
                raise MemoryError("the compiled replay kernel ran out of memory")
            self._shared.append(handle)

    def open_lanes(self, sims: Sequence[Any], traces: Sequence[TraceStream], routes) -> None:
        shared = tuple(self._shared)
        for core, (sim, trace, route) in enumerate(zip(sims, traces, routes)):
            self.lanes.append(_open(sim, trace, route, shared, core))

    def settle(self) -> None:
        """Fold each shared L2 once; every lane has settled."""
        kernel = self._kernel
        for shared_l2, handle in zip(self._shared_l2s, self._shared):
            out = (ctypes.c_int64 * (11 + self._num_cores))()
            count = kernel.shared_owners(handle)
            keys, cores = (ctypes.c_int64 * count)(), (ctypes.c_int64 * count)()
            kernel.shared_close(handle, out, keys, cores)
            counters = list(out)
            _settle_cache(shared_l2.cache, counters[:10])
            shared_l2.cross_core_evictions += counters[10]
            for core, evictions in enumerate(counters[11:]):
                shared_l2.prefetch_cross_core_evictions[core] += evictions
            shared_l2.owners.update(zip(keys, cores))
        self._shared = []

    def fall_back(self, error: KernelRangeError) -> None:
        """Close everything and note why each lane replays interpreted."""
        self.close()
        for lane in self.lanes:
            _note_fallback(lane.sim, "address-range" if lane.sim is error.sim else "co-runner")

    def close(self) -> None:
        """Free every lane and shared-L2 state still open."""
        for lane in self.lanes:
            lane.close()
        shared, self._shared = self._shared, []
        for handle in shared:
            self._kernel.shared_close(handle, None, None, None)


def open_co_run(
    sims: Sequence[Any], traces: Sequence[TraceStream], shared_l2s
) -> Optional[CoRunKernel]:
    """Every lane's kernel state over the co-run's shared L2s, or ``None``.

    ``shared_l2s`` are the main and baseline
    :class:`~repro.cache.hierarchy.SharedL2`.  The co-run takes the
    kernel only when every lane can; otherwise it returns ``None`` and
    the whole co-run replays interpreted, each kernel-eligible lane
    noting its own fallback reason or ``co-runner`` (another core keeps
    the co-run off the kernel).
    """
    for sim in sims:
        _check_not_settled(sim)
        sim.last_fallback = None
    gates = [_gate(sim) for sim in sims]
    reasons = [reason for _, reason in gates]
    if all(route is not None for route, _ in gates) and not any(reasons):
        co_run = CoRunKernel(vector.load_kernel(), shared_l2s, sims)
        try:
            co_run.open_lanes(sims, traces, [route for route, _ in gates])
            return co_run
        except KernelRangeError as error:
            co_run.close()
            reasons = ["address-range" if sim is error.sim else None for sim in sims]
        except BaseException:
            co_run.close()
            raise
    for sim, (route, _), reason in zip(sims, gates, reasons):
        if route is not None:
            _note_fallback(sim, reason or "co-runner")
    return None


def replay_event_fields(sims: Sequence[Any], lanes: bool = False) -> Dict[str, Any]:
    """The tier fields of a run's ``replay`` phase event.

    ``tier`` is the tier every simulator of the run took (``"mixed"``
    when they differ) and ``fallback`` the first fallback reason noted;
    a co-run (``lanes``) adds the per-core ``lane_tiers`` and, when any
    lane fell back, ``lane_fallbacks``.
    """
    tiers = [sim.last_tier for sim in sims]
    fallbacks = [sim.last_fallback for sim in sims]
    fields: Dict[str, Any] = {"tier": tiers[0] if len(set(tiers)) == 1 else "mixed"}
    noted = [reason for reason in fallbacks if reason]
    if noted:
        fields["fallback"] = noted[0]
    if lanes:
        fields["lane_tiers"] = tiers
        if noted:
            fields["lane_fallbacks"] = fallbacks
    return fields


def _check_not_settled(sim) -> None:
    if sim._kernel_ran:
        raise RuntimeError(
            "cannot continue replaying on a simulator after a compiled kernel "
            "run; use a fresh TraceDrivenSimulator per trace"
        )


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
def _gate(sim) -> Tuple[Optional["_Route"], Optional[str]]:
    """``sim``'s kernel route (``None`` for a plugin) and why it cannot take it, if so."""
    route = _ROUTES.get(type(sim.prefetcher))
    if route is None:
        return None, None
    reason = route.unfit(sim)
    if reason is None and not _sim_is_fresh(sim):
        reason = "not-fresh"
    if reason is None and vector.load_kernel() is None:
        reason = vector.unavailable_reason()
    return route, reason


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


def _history_unfit(sim, is_fresh: bool) -> Optional[str]:
    """The DBCP/LT-cords gate.

    The kernel folds history keys of 32-63 bits in two terms, and keeps
    the history in the ways of the main L1, one entry per resident block,
    so the history's block size must be the L1's.
    """
    config = sim.prefetcher.config
    if not 32 <= config.signature_config.trace_hash_bits < 64:
        return "open-fold"
    if config.cache_config.block_size != sim.hierarchy_config.l1.block_size:
        return "history-block"
    history = sim.prefetcher.history
    return _fresh(is_fresh and not (history.tracked_blocks() or history.stats.evictions))


def _dbcp_unfit(sim) -> Optional[str]:
    prefetcher: DBCPPrefetcher = sim.prefetcher
    return _history_unfit(sim, not (
        prefetcher._table or prefetcher._outstanding or prefetcher.dbcp_stats.signatures_recorded
    ))


def _ltcords_unfit(sim) -> Optional[str]:
    prefetcher: LTCordsPrefetcher = sim.prefetcher
    return _history_unfit(sim, not (
        prefetcher._outstanding or prefetcher._pending or prefetcher._access_counter
        or prefetcher.storage.stats.signatures_recorded
        or prefetcher.signature_cache.stats.inserts
    ))


# --------------------------------------------------------------- kernel calls
def c_column(column, ctype, typecode: str):
    """A ctypes array over ``column``'s buffer, or ``None`` if out of range.

    Writable buffers (``array`` columns) are viewed zero-copy; read-only
    ones (the trace store's mmap views) are copied once; lists are
    copied through an ``array``, and hold no value outside the type's
    range (trace columns are lists only for values beyond 64 bits).
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
    """cfg slots 0-9: the cache geometry and request-queue size every kernel shares."""
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
        sim.request_queue.capacity,
    ]


def _history_cfg(config) -> list:
    """DBCP/LT-cords cfg slots 10-14: the history fold and confidence counter."""
    key_bits = config.signature_config.trace_hash_bits
    return [
        key_bits,
        (1 << key_bits) - 1,
        config.confidence_threshold,
        config.initial_confidence,
        config.max_confidence,
    ]


def _dbcp_cfg(sim) -> list:
    config = sim.prefetcher.config
    table_entries = config.table_entries
    return _history_cfg(config) + [-1 if table_entries is None else table_entries]


def _ltcords_cfg(sim) -> list:
    config = sim.prefetcher.config
    storage = config.storage_config
    signature_cache = config.signature_cache_config
    return _history_cfg(config) + [
        config.stream_window,
        config.fetch_delay_accesses,
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
    config = sim.prefetcher.config
    return [
        ~(config.block_size - 1),
        config.index_table_entries,
        config.ghb_entries,
        config.degree,
        config.history_depth,
    ]


def _stride_cfg(sim) -> list:
    config = sim.prefetcher.config
    return [
        ~(config.block_size - 1),
        config.table_entries,
        config.degree,
        config.train_threshold,
    ]


def _open(
    sim, trace: TraceStream, route: "_Route", shared=(None, None), core: int = 0
) -> KernelLane:
    """Open ``sim``'s kernel lane over ``trace``; ``shared`` are a co-run's shared-L2 handles."""
    from repro.sim.trace_driven import OUTCOME_FILL_SPILL

    num_accesses = len(trace)
    if num_accesses >= _MAX_KERNEL_ACCESSES:
        raise KernelRangeError(sim)
    columns = trace.as_arrays()
    address = c_column(columns.address, ctypes.c_int64, "q")
    is_write = c_column(columns.is_write, ctypes.c_int8, "b")
    kind = "null" if route.kind == "baseline" and shared[0] is not None else route.kind
    needs_pc = kind not in ("baseline", "null")  # the no-prefetcher lanes never read the PCs
    pc = c_column(columns.pc, ctypes.c_int64, "q") if needs_pc else None
    if address is None or is_write is None or (needs_pc and pc is None):
        raise KernelRangeError(sim)
    col = spill = None
    if sim.outcomes is not None:
        col = (ctypes.c_int8 * num_accesses)()
        # Only a GHB/stride degree this deep can fill more blocks after
        # one access than an outcome byte holds.
        if kind in ("ghb", "stride") and sim.prefetcher.config.degree >= OUTCOME_FILL_SPILL:
            spill = (ctypes.c_int64 * num_accesses)()
    cfg = _geometry_cfg(sim) + route.cfg(sim)
    cfg = (ctypes.c_int64 * len(cfg))(*cfg)
    kernel = vector.load_kernel()
    handle = kernel.open(
        vector.KERNELS.index(kind), num_accesses, pc, address, is_write, cfg, col, spill,
        shared[0], shared[1], core,
    )
    if handle is None:
        raise MemoryError("the compiled replay kernel ran out of memory")
    return KernelLane(kernel, handle, sim, route, kind, (pc, address, is_write, cfg), col, spill)


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
    """What DBCP and LT-cords share: the above plus their history table's counters."""
    _settle_prefetching(sim, num_accesses, counters)
    history_stats = sim.prefetcher.history.stats
    history_stats.accesses += num_accesses  # every access folds into the history
    _settle_fields(history_stats, ("evictions", "cold_evictions"), counters[20:22])


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

    #: The tier is ``kernel-<kind>``; the kernel's lane kind (``vector.KERNELS``).
    kind: str
    #: Why the simulator's predictor (its configuration or state) keeps it off the kernel.
    unfit: Callable[[Any], Optional[str]]
    #: The cfg slots after the geometry (10 on).
    cfg: Callable[[Any], List[int]]
    #: Folds the ``out`` counters into the simulator's objects.
    settle: Callable[[Any, int, List[int]], None]


_ROUTES = {
    NullPrefetcher: _Route("baseline", lambda sim: None, lambda sim: [], _settle_baseline),
    DBCPPrefetcher: _Route("dbcp", _dbcp_unfit, _dbcp_cfg, _settle_dbcp),
    LTCordsPrefetcher: _Route("ltcords", _ltcords_unfit, _ltcords_cfg, _settle_ltcords),
    GHBPrefetcher: _Route(
        "ghb",
        lambda sim: _fresh(sim.prefetcher._serial == 0 and not sim.prefetcher._index_table),
        _ghb_cfg,
        _settle_ghb,
    ),
    StridePrefetcher: _Route(
        "stride", lambda sim: _fresh(not sim.prefetcher._table), _stride_cfg,
        _settle_prefetching,
    ),
}
