"""Parallel campaign execution with caching, retries, and crash recovery.

The :class:`CampaignRunner` takes a :class:`SweepSpec` (or a bare list of
:class:`PointSpec`), satisfies as many points as possible from the
:class:`ResultCache`, fans the remainder out across a
``ProcessPoolExecutor`` and memoises what they produce.  Worker transport
is JSON-safe dicts on both legs (points out, results back), so nothing
model-specific needs to pickle and every worker reconstructs its exact
configuration from the same encoding the cache key is built from.

Worker count resolution: explicit ``jobs`` argument, else the
``REPRO_JOBS`` environment variable, else ``os.cpu_count()``.  ``jobs=1``
runs a deterministic serial loop in-process (no pool, no subprocesses) —
the determinism regression tests assert that both paths produce
bit-identical serialized results.

Resilience (:mod:`repro.resilience`) is threaded through both paths:

* a :class:`~repro.resilience.RetryPolicy` retries failing points with
  deterministic backoff, enforces a per-point wall-clock timeout (via
  ``SIGALRM`` where the point runs — the serial loop or the pool
  worker's main thread — with a parent-side kill backstop for pooled
  hard hangs), and decides whether exhausted points abort the campaign
  (``fail``) or are recorded ``skipped``/``failed`` while the rest
  completes;
* a crashed process pool (``BrokenProcessPool`` — a worker was killed,
  OOM-ed, or segfaulted) is respawned and only the unfinished points are
  re-dispatched, up to ``max_respawns`` times before degrading to
  serial execution for the remainder;
* every completed point of a named campaign is appended to a durable
  :class:`~repro.resilience.CampaignJournal`, so ``run(..., resume=True)``
  skips journaled, cache-verified points and continues a campaign after
  a crash or Ctrl-C;
* a :class:`~repro.resilience.FaultPlan` (``REPRO_FAULTS``) injects
  chaos — raises, hangs, worker kills, cache corruption — through the
  exact same execution paths, for the resilience tests and CI.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import ResultCache, ResultType, cache_disabled, result_from_dict, result_to_dict
from repro.campaign.spec import PointSpec, SweepSpec, spec_from_dict
from repro.obs.events import make_event, next_run_id
from repro.obs.metrics import REGISTRY
from repro.obs.observer import RunObserver, emit_warning
from repro.integrity.locks import single_flight_disabled
from repro.resilience.faults import FaultPlan, plant_stale_lease
from repro.resilience.journal import CampaignJournal, default_journal_root
from repro.resilience.policy import PointFailed, PointTimeout, RetryPolicy, time_limit

_RUNS_RETRIED = REGISTRY.counter("runs.retried")
_POOL_RESPAWNS = REGISTRY.counter("pool.respawns")
_POINT_TIMEOUTS = REGISTRY.counter("points.timeouts")
_RESUMED_POINTS = REGISTRY.counter("campaign.resumed_points")

#: How often the pooled completion loop wakes to check deadlines (seconds).
_POOL_POLL_S = 0.05

#: Parent-side timeout backstop: a pooled point whose worker-side alarm
#: should have fired is only declared dead after this multiple of the
#: configured timeout (plus a constant grace), at which point the pool is
#: hard-killed and rebuilt.  Generous on purpose — the worker-side
#: ``SIGALRM`` is the primary enforcement; this catches hard hangs only.
_BACKSTOP_FACTOR = 5.0
_BACKSTOP_GRACE_S = 5.0


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` override, else the machine's CPU count."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def execute_point(point: PointSpec) -> ResultType:
    """Run one simulation point in-process and return its result object.

    Delegates to :func:`repro.run.execute_spec`, the single dispatch
    between specs and the simulator implementations (shared with the
    :class:`repro.run.Session` facade).  Imported lazily to keep the
    runner importable without the facade layer.
    """
    from repro.run import execute_spec

    return execute_spec(point)


def _plugin_modules(point: PointSpec) -> List[str]:
    """Modules outside the package that provide this point's registry entries.

    Spawn-start pool workers (macOS/Windows default) import ``repro``
    fresh, so third-party predictors/workloads registered by the parent
    process would be unknown there.  Shipping the providing module names
    with the payload lets the worker re-import them — re-running their
    ``register_*`` calls — before decoding the point.  Plugins defined in
    ``__main__`` cannot be re-imported and are omitted (they still work
    on fork-start platforms and with ``jobs=1``).

    Works on any spec shape: single-predictor :class:`PointSpec` fields
    and the per-core plural fields of a multicore spec are both read.
    """
    from repro.registry import predictor_entry, workload_entry

    modules = set()
    predictors = list(getattr(point, "core_predictors", ()) or ())
    if not predictors:
        predictors = [getattr(point, "predictor", None)]
    for name in predictors:
        if not name:
            continue
        try:
            entry = predictor_entry(name)
        except KeyError:
            continue
        modules.add(entry.cls.__module__)
        if entry.config_class is not None:
            modules.add(entry.config_class.__module__)
    benchmarks = list(getattr(point, "benchmarks", ()) or ())
    if not benchmarks:
        benchmarks = [getattr(point, "benchmark", None), getattr(point, "secondary", None)]
    for benchmark in benchmarks:
        if benchmark:
            try:
                modules.add(workload_entry(benchmark).factory.__module__)
            except KeyError:
                pass
    configs = list(getattr(point, "core_predictor_configs", ()) or ())
    if not configs:
        configs = [getattr(point, "predictor_config", None)]
    configs.append(getattr(point, "hierarchy_config", None))
    for config in configs:
        if config is not None:
            modules.add(type(config).__module__)
    return sorted(
        module for module in modules
        if module and module != "__main__"
        and module != "repro" and not module.startswith("repro.")
    )


class _PhaseCollector(RunObserver):
    """Folds the ``phase`` events of one point into per-phase seconds, tiers and fallbacks.

    Passed into :func:`repro.run.execute_spec` wherever a point actually
    runs (the serial loop in the parent, or inside a pool worker), so the
    phase split, the tier each phase ran on (e.g. ``{"replay":
    "kernel-ltcords", "settle": "kernel-timing"}``) and why a phase fell
    from the kernel (e.g. ``{"replay": "kill-switch"}``) always travel
    *inside* the ``point_done`` event — both execution paths produce the
    identical event shape.
    """

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self.tiers: Dict[str, str] = {}
        self.fallbacks: Dict[str, str] = {}

    def emit(self, event: Dict[str, Any]) -> None:
        if event.get("type") == "phase":
            name = str(event.get("name", "?"))
            self.phases[name] = self.phases.get(name, 0.0) + float(event.get("duration_s", 0.0))
            if "tier" in event:
                self.tiers[name] = event["tier"]
            if "fallback" in event:
                self.fallbacks[name] = event["fallback"]


def _safe_key(point: Any) -> Optional[str]:
    """``point.key()`` or ``None`` when the spec is unserialisable."""
    try:
        return point.key()
    except (TypeError, AttributeError):
        return None


def _point_fields(point: Any, key: Optional[str]) -> Dict[str, Any]:
    """The identifying fields a ``point_done`` event carries (``key`` is the point's).

    Mirrors the artifact layer's labelling: multicore co-runs join their
    benchmarks with ``+`` and per-core predictors with ``/``.
    """
    benchmarks = list(getattr(point, "benchmarks", ()) or ())
    predictors = list(getattr(point, "core_predictors", ()) or ())
    return {
        "benchmark": "+".join(benchmarks) if benchmarks else getattr(point, "benchmark", None),
        "predictor": "/".join(predictors) if predictors else getattr(point, "predictor", None),
        "sim": getattr(point, "sim", None),
        "key": key,
    }


def _execute_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: decode a point, run it, return the encoded result.

    The return leg piggybacks the point's wall time, phase split, phase
    tiers and fallbacks on the same JSON-dict transport as the result
    itself, so the parent can stream a fully-populated ``point_done`` event per
    completion without any extra IPC.  It also carries ``counters``: how
    much the point's ``execute_spec`` raised each metrics counter here
    (deltas, since a forked worker starts from the parent's values), for
    the parent to add to its own registry.  The payload optionally
    carries the campaign's resilience context: ``timeout_s`` (enforced here with ``SIGALRM`` —
    workers run their task on their main thread), and the fault plan
    plus this point's ``index``/``attempt`` so injected chaos fires
    inside the real worker path.

    With a ``cache_root``, the worker is also the single-flight
    participant: it claims the point's generation lease before running
    (another *process* already executing the same point parks this
    worker until the entry lands, returned with ``from_cache=True``),
    publishes the entry itself before releasing the claim (so waiters
    observe release-implies-published), and reports ``published=True``
    so the parent skips its own write.
    """
    import importlib

    from repro.run import execute_spec

    for module in payload.get("plugins", ()):
        importlib.import_module(module)
    point = spec_from_dict(payload["point"])
    index = payload.get("index", -1)
    attempt = payload.get("attempt", 0)
    trace_store = None
    if payload.get("trace_root") is not None:
        from repro.trace.store import TraceStore

        trace_store = TraceStore(payload["trace_root"])
    faults = FaultPlan.decode(payload.get("faults", ()))
    cache = None
    lease = None
    started = time.perf_counter()
    if payload.get("cache_root") is not None:
        from repro.integrity.locks import single_flight_disabled

        cache = ResultCache(payload["cache_root"])
        key = point.key()
        if not single_flight_disabled():
            lease = cache.claim(point, key=key)
            # Holding the claim, re-check the entry (double-checked
            # locking): a producer may have published between the
            # parent's miss and this worker's claim.
            waited = cache.get(point, key) if lease is not None else cache.wait_for(point)
            if waited is not None:
                if lease is not None:
                    lease.release()
                return {
                    "result": result_to_dict(point.sim, waited),
                    "duration_s": time.perf_counter() - started,
                    "from_cache": True,
                }
    collector = _PhaseCollector()
    try:
        with time_limit(payload.get("timeout_s")):
            faults.apply_before_execute(index, attempt, in_worker=True)
            before = REGISTRY.counter_values()
            result = execute_spec(point, trace_store=trace_store, observer=collector)
            counters = {
                name: value - before.get(name, 0)
                for name, value in REGISTRY.counter_values().items()
                if value != before.get(name, 0)
            }
        published = False
        if cache is not None:
            if faults.diskfull_target(index, attempt):
                cache.fail_next_put()
            published = cache.put(point, result, key) is not None
    finally:
        if lease is not None:
            lease.release()
    return {
        "result": result_to_dict(point.sim, result),
        "duration_s": time.perf_counter() - started,
        "phases": collector.phases,
        "tiers": collector.tiers,
        "fallbacks": collector.fallbacks,
        "counters": counters,
        "published": published,
    }


@dataclass
class CampaignResult:
    """Ordered results of one campaign run, with lookup helpers.

    ``results`` slots are ``None`` for points the retry policy gave up
    on (``point_status`` ``skipped``/``failed``); under the default
    ``on_error="fail"`` policy every slot is filled or the run raised.
    """

    name: str
    points: List[PointSpec]
    results: List[Optional[ResultType]]
    cached_count: int = 0
    computed_count: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0
    artifact_paths: List[str] = field(default_factory=list)
    #: Per-point wall seconds, aligned with ``points`` (cache hits record
    #: the time of the cache lookup itself, typically microseconds).
    point_durations: List[float] = field(default_factory=list)
    #: Per-point cache-hit flags, aligned with ``points``.
    point_cached: List[bool] = field(default_factory=list)
    #: Per-point status, aligned with ``points``: ``ok`` (clean success
    #: or cache hit), ``retried`` (succeeded after >= 1 retry),
    #: ``skipped`` (failed, never retried, policy continued), ``failed``
    #: (retries exhausted, policy continued).
    point_status: List[str] = field(default_factory=list)
    #: Per-point final error strings (``None`` for successful points).
    point_errors: List[Optional[str]] = field(default_factory=list)
    #: Points served via ``resume=True`` (journaled and cache-verified).
    resumed_count: int = 0
    #: Process-pool rebuilds this run needed after worker crashes/kills.
    respawn_count: int = 0

    def items(self) -> List[tuple]:
        """``(point, result)`` pairs in sweep order."""
        return list(zip(self.points, self.results))

    def find(self, **attrs: Any) -> List[ResultType]:
        """Results whose point matches every ``attr=value`` filter."""
        return [
            result
            for point, result in zip(self.points, self.results)
            if all(getattr(point, key) == value for key, value in attrs.items())
        ]

    def one(self, **attrs: Any) -> ResultType:
        """The unique result matching the filters (raises otherwise)."""
        matches = self.find(**attrs)
        if len(matches) != 1:
            raise LookupError(f"expected exactly one result for {attrs!r}, found {len(matches)}")
        return matches[0]

    def status_counts(self) -> Dict[str, int]:
        """How many points landed in each status bucket."""
        counts: Dict[str, int] = {}
        for status in self.point_status:
            counts[status] = counts.get(status, 0) + 1
        return counts

    def failures(self) -> List[Tuple[int, str]]:
        """``(index, error)`` pairs for every skipped/failed point."""
        return [
            (index, error)
            for index, error in enumerate(self.point_errors)
            if error is not None
        ]

    def __len__(self) -> int:
        return len(self.points)


class _RunState:
    """Mutable bookkeeping for one ``CampaignRunner.run`` invocation."""

    def __init__(self, points: List[PointSpec]) -> None:
        self.points = points
        n = len(points)
        self.results: List[Optional[ResultType]] = [None] * n
        self.durations = [0.0] * n
        self.cached = [False] * n
        self.statuses = ["pending"] * n
        self.errors: List[Optional[str]] = [None] * n
        #: Point-attributable failures so far (exceptions, timeouts).
        self.attempts = [0] * n
        #: Executions actually started (faults fire on dispatch 1 only;
        #: crash re-dispatches increment this without charging an attempt).
        self.dispatches = [0] * n
        self.keys = [_safe_key(point) for point in points]
        self.resumed_count = 0
        self.respawn_count = 0


class CampaignRunner:
    """Executes sweeps through the cache and (optionally) a process pool."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        trace_store: Optional[object] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        journal: bool = True,
        journal_fsync: bool = False,
    ) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.cache = cache if cache is not None else ResultCache()
        self.use_cache = use_cache and not cache_disabled()
        #: TraceStore override threaded into every point execution (both
        #: the serial path and, by root path, the pool workers); ``None``
        #: keeps the ambient resolution (REPRO_TRACE_DIR etc.).
        self.trace_store = trace_store
        #: Retry/timeout/on-error policy (default: fail fast, no retry —
        #: the historical behaviour).
        self.retry = retry if retry is not None else RetryPolicy()
        #: Fault-injection plan (default: whatever ``REPRO_FAULTS`` says,
        #: usually nothing).
        self.faults = faults if faults is not None else FaultPlan.from_env()
        #: Whether named campaigns journal completed points for resume.
        self.journal_enabled = journal
        self.journal_fsync = journal_fsync

    # ------------------------------------------------------------------ run
    def run(
        self,
        spec: Union[SweepSpec, Sequence[PointSpec], Iterable[PointSpec]],
        name: Optional[str] = None,
        observer: Optional[RunObserver] = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Execute every point of ``spec``, reusing cached results.

        ``name`` overrides the campaign name recorded on the result (bare
        point lists default to ``"adhoc"``).  With an ``observer``, the
        campaign streams: ``run_start``, one ``cache_hit`` per point
        served from the cache, one ``point_done`` per point (carrying
        its content key, wall seconds, cache-hit flag, status, phase
        split and phase tiers) the moment it completes — from the serial
        loop and from the pool's completion order alike — and a closing
        ``run_end``.
        Observation never changes execution: results land in sweep order
        either way, bit-identical to an unobserved run.

        ``resume=True`` consults the campaign's durable journal first
        and skips every point that a previous run journaled as completed
        *and* whose result still verifies out of the content-addressed
        cache; everything else (including corrupt journal or cache
        entries) simply re-runs.  A fresh run (``resume=False``)
        truncates the journal and starts a new one.
        """
        if isinstance(spec, SweepSpec):
            name = name if name is not None else spec.name
            points = spec.points()
        else:
            points = list(spec)
            name = name if name is not None else "adhoc"
        started = time.monotonic()
        state = _RunState(points)
        run_id = None
        if observer is not None:
            run_id = next_run_id()
            observer.emit(
                make_event(
                    "run_start",
                    run_id=run_id,
                    kind="campaign",
                    campaign=name,
                    num_points=len(points),
                    jobs=self.jobs,
                    resume=resume,
                )
            )

        journal: Optional[CampaignJournal] = None
        resumed_keys = set()
        if self.use_cache and self.journal_enabled and name:
            journal = CampaignJournal(
                default_journal_root(self.cache.root), name, fsync=self.journal_fsync
            )
            if resume:
                resumed_keys = journal.completed_keys()
            try:
                journal.begin(len(points), resume=resume, jobs=self.jobs)
            except OSError as error:
                # An unwritable cache root must not stop a campaign whose
                # simulations can still run — it just won't be resumable.
                emit_warning(
                    f"campaign journal unavailable at {journal.path} "
                    f"({type(error).__name__}: {error}); continuing without resume support",
                    kind="journal_error",
                    path=str(journal.path),
                )
                journal = None

        def emit_point_done(
            index: int,
            cache_hit: bool,
            phases: Optional[Dict[str, float]] = None,
            tiers: Optional[Dict[str, str]] = None,
            fallbacks: Optional[Dict[str, str]] = None,
        ) -> None:
            if journal is not None:
                journal.record_point(
                    index,
                    state.keys[index],
                    state.statuses[index],
                    cache_hit=cache_hit,
                    error=state.errors[index],
                )
            if observer is None:
                return
            observer.emit(
                make_event(
                    "point_done",
                    run_id=run_id,
                    index=index,
                    cache_hit=cache_hit,
                    status=state.statuses[index],
                    duration_s=state.durations[index],
                    phases=phases or {},
                    tiers=tiers or {},
                    fallbacks=fallbacks or {},
                    **_point_fields(points[index], state.keys[index]),
                )
            )

        try:
            pending: List[int] = []
            for index, point in enumerate(points):
                lookup_started = time.perf_counter()
                cached = self.cache.get(point, state.keys[index]) if self.use_cache else None
                if cached is not None:
                    state.results[index] = cached
                    state.durations[index] = time.perf_counter() - lookup_started
                    state.cached[index] = True
                    state.statuses[index] = "ok"
                    if resume and state.keys[index] in resumed_keys:
                        state.resumed_count += 1
                        _RESUMED_POINTS.inc()
                    if observer is not None:
                        observer.emit(make_event("cache_hit", run_id=run_id, key=state.keys[index]))
                    emit_point_done(index, True)
                else:
                    pending.append(index)

            if pending:
                workers = min(self.jobs, len(pending))
                if workers <= 1:
                    self._run_serial(state, pending, emit_point_done)
                else:
                    self._run_pooled(state, pending, workers, emit_point_done)
        except BaseException:
            # Interrupted (Ctrl-C) or aborted (PointFailed): leave the
            # journal behind as the partial record --resume reads (every
            # finished point is already flushed; no run_end line).
            if journal is not None:
                journal.close()
            raise

        elapsed = time.monotonic() - started
        if journal is not None:
            journal.finish(
                num_points=len(points),
                duration_s=elapsed,
                status_counts=_status_counts(state.statuses),
            )
            journal.close()
        if observer is not None:
            observer.emit(
                make_event(
                    "run_end",
                    run_id=run_id,
                    kind="campaign",
                    campaign=name,
                    num_points=len(points),
                    cached_count=len(points) - len(pending),
                    computed_count=len(pending),
                    resumed_count=state.resumed_count,
                    respawns=state.respawn_count,
                    duration_s=elapsed,
                    metrics=REGISTRY.snapshot(),
                )
            )

        return CampaignResult(
            name=name,
            points=points,
            results=state.results,
            cached_count=len(points) - len(pending),
            computed_count=len(pending),
            jobs=self.jobs,
            elapsed_seconds=elapsed,
            point_durations=state.durations,
            point_cached=state.cached,
            point_status=state.statuses,
            point_errors=state.errors,
            resumed_count=state.resumed_count,
            respawn_count=state.respawn_count,
        )

    # ------------------------------------------------------------------ shared failure/success plumbing
    def _finish(
        self, state: _RunState, index: int, result: ResultType, published: bool = False
    ) -> None:
        """Record a successful point: result slot, status, cache write.

        Cache-write failures are non-fatal (:meth:`ResultCache.put`
        swallows ``OSError`` into a warning + counter).  ``published``
        means a pool worker already wrote the entry itself (single-flight
        publish-before-release), so the parent must not write a second
        copy.  The post-write fault injectors (``corrupt``/``torn``/
        ``bitflip``) strike here, right after the entry lands on disk,
        and ``diskfull`` arms the put itself to fail inside its real
        write path.
        """
        state.results[index] = result
        state.statuses[index] = "retried" if state.attempts[index] else "ok"
        if not self.use_cache:
            return
        dispatch = state.dispatches[index]
        point, key = state.points[index], state.keys[index]
        if published:
            path: Optional[Path] = self.cache.path_for(point, key)
        else:
            if self.faults.diskfull_target(index, dispatch):
                self.cache.fail_next_put()
            path = self.cache.put(point, result, key)
        if path is not None and path.exists():
            self.faults.apply_post_write(index, dispatch, path)

    def _handle_failure(
        self, state: _RunState, index: int, error: BaseException
    ) -> Optional[float]:
        """Charge one failed attempt to point ``index`` and decide its fate.

        Returns the backoff pause in seconds when the point should be
        re-attempted; ``None`` when the policy gave up on it (its status
        and error are recorded and the campaign continues); raises
        :class:`PointFailed` under ``on_error="fail"``.
        """
        state.attempts[index] += 1
        attempts = state.attempts[index]
        if isinstance(error, PointTimeout):
            _POINT_TIMEOUTS.inc()
        if self.retry.should_retry(attempts):
            _RUNS_RETRIED.inc()
            pause = self.retry.backoff_seconds(state.keys[index], attempts)
            emit_warning(
                f"campaign point {index} attempt {attempts} failed "
                f"({type(error).__name__}: {error}); retrying in {pause:.3f}s",
                kind="retry",
                index=index,
                attempt=attempts,
                key=state.keys[index],
                backoff_s=pause,
            )
            return pause
        if self.retry.on_error == "fail":
            raise PointFailed(index, attempts, error) from error
        state.statuses[index] = self.retry.exhausted_status()
        state.errors[index] = f"{type(error).__name__}: {error}"
        emit_warning(
            f"campaign point {index} {state.statuses[index]} after {attempts} "
            f"attempt(s): {state.errors[index]}",
            kind="give_up",
            index=index,
            attempt=attempts,
            key=state.keys[index],
            status=state.statuses[index],
        )
        return None

    # ------------------------------------------------------------------ serial execution
    def _run_serial(self, state: _RunState, queue: List[int], emit_point_done) -> None:
        """Deterministic in-process loop with retry/timeout enforcement.

        Also the serial half of single-flight: each uncached point is
        claimed with a generation lease before it runs, so a concurrent
        campaign in another process executing the same point parks this
        loop until the entry lands (served as a cache hit) instead of
        duplicating the work.  The ``stalelock@N`` injector plants a
        dead-holder lease here to prove the claim path reaps it.
        """
        from repro.run import execute_spec

        queue = list(queue)
        while queue:
            index = queue.pop(0)
            state.dispatches[index] += 1
            point, key = state.points[index], state.keys[index]
            point_started = time.perf_counter()
            lease = None
            if self.use_cache:
                if self.faults.stalelock_target(index, state.dispatches[index]):
                    plant_stale_lease(self.cache.lease_path_for(point))
                if not single_flight_disabled():
                    lease = self.cache.claim(point, key=key)
                    # Re-check under the claim (double-checked locking):
                    # a concurrent campaign may have published this point
                    # between our miss and our claim.
                    waited = (
                        self.cache.get(point, key)
                        if lease is not None
                        else self.cache.wait_for(point)
                    )
                    if waited is not None:
                        if lease is not None:
                            lease.release()
                            lease = None
                        state.results[index] = waited
                        state.durations[index] = time.perf_counter() - point_started
                        state.cached[index] = True
                        state.statuses[index] = (
                            "retried" if state.attempts[index] else "ok"
                        )
                        emit_point_done(index, True)
                        continue
            collector = _PhaseCollector()
            try:
                try:
                    with time_limit(self.retry.timeout_s):
                        self.faults.apply_before_execute(
                            index, state.dispatches[index], in_worker=False
                        )
                        result = execute_spec(
                            point,
                            trace_store=self.trace_store,
                            observer=collector,
                        )
                except Exception as error:
                    state.durations[index] = time.perf_counter() - point_started
                    pause = self._handle_failure(state, index, error)
                    if pause is not None:
                        if pause > 0:
                            time.sleep(pause)
                        queue.insert(0, index)
                    else:
                        emit_point_done(index, False)
                    continue
                state.durations[index] = time.perf_counter() - point_started
                self._finish(state, index, result)
                emit_point_done(
                    index, False, collector.phases, collector.tiers, collector.fallbacks
                )
            finally:
                if lease is not None:
                    lease.release()

    # ------------------------------------------------------------------ pooled execution
    def _worker_payload(self, state: _RunState, index: int, trace_root: Optional[str]) -> Dict[str, Any]:
        return {
            "point": state.points[index].to_dict(),
            "plugins": _plugin_modules(state.points[index]),
            "trace_root": trace_root,
            "cache_root": str(self.cache.root) if self.use_cache else None,
            "index": index,
            "attempt": state.dispatches[index],
            "timeout_s": self.retry.timeout_s,
            "faults": self.faults.encode() if self.faults else [],
        }

    def _run_pooled(
        self, state: _RunState, pending: List[int], workers: int, emit_point_done
    ) -> None:
        """Process-pool loop with crash recovery and a respawn budget.

        A dead pool (worker killed/OOM/segfault) or a hard-hung point
        (parent-side timeout backstop) tears the pool down; the
        unfinished points are re-dispatched into a fresh pool, up to
        ``retry.max_respawns`` rebuilds, after which the remainder
        degrades gracefully to the serial loop.
        """
        trace_root = (
            str(getattr(self.trace_store, "root")) if self.trace_store is not None else None
        )
        queue = list(pending)
        respawns = 0
        while queue:
            if respawns > self.retry.max_respawns:
                emit_warning(
                    f"pool respawn budget ({self.retry.max_respawns}) exhausted; "
                    f"degrading to serial execution for {len(queue)} remaining point(s)",
                    kind="respawn",
                    remaining=len(queue),
                )
                self._run_serial(state, queue, emit_point_done)
                return
            broken = False
            pool = ProcessPoolExecutor(max_workers=min(workers, len(queue)))
            futures: Dict[Any, int] = {}
            running_since: Dict[Any, float] = {}

            def submit(index: int) -> None:
                nonlocal broken
                state.dispatches[index] += 1
                if self.use_cache and self.faults.stalelock_target(
                    index, state.dispatches[index]
                ):
                    plant_stale_lease(
                        self.cache.lease_path_for(state.points[index])
                    )
                try:
                    future = pool.submit(
                        _execute_point_payload,
                        self._worker_payload(state, index, trace_root),
                    )
                except BrokenProcessPool:
                    state.dispatches[index] -= 1
                    broken = True
                    queue.append(index)
                    return
                futures[future] = index

            try:
                resubmit, queue = list(queue), []
                for index in resubmit:
                    submit(index)
                while futures:
                    done, _ = wait(
                        set(futures), timeout=_POOL_POLL_S, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index = futures.pop(future)
                        running_since.pop(future, None)
                        try:
                            payload = future.result()
                        except BrokenProcessPool:
                            # Not attributable to this point with
                            # certainty (every sibling future dies too):
                            # re-dispatch without charging an attempt.
                            broken = True
                            queue.append(index)
                        except Exception as error:
                            pause = self._handle_failure(state, index, error)
                            if pause is not None:
                                if pause > 0:
                                    time.sleep(pause)
                                if broken:
                                    queue.append(index)
                                else:
                                    submit(index)
                            else:
                                emit_point_done(index, False)
                        else:
                            state.durations[index] = float(payload["duration_s"])
                            result = result_from_dict(
                                state.points[index].sim, payload["result"]
                            )
                            if payload.get("from_cache"):
                                # Another process executed this point and
                                # our worker coalesced onto its entry.
                                state.results[index] = result
                                state.cached[index] = True
                                state.statuses[index] = (
                                    "retried" if state.attempts[index] else "ok"
                                )
                                emit_point_done(index, True)
                            else:
                                for name, delta in payload["counters"].items():
                                    REGISTRY.counter(name).inc(delta)
                                self._finish(
                                    state, index, result,
                                    published=bool(payload.get("published")),
                                )
                                emit_point_done(
                                    index, False, payload.get("phases"), payload.get("tiers"),
                                    payload.get("fallbacks"),
                                )
                    if broken:
                        queue.extend(futures.values())
                        futures.clear()
                        break
                    if self._check_backstop(
                        state, futures, running_since, queue, pool, emit_point_done
                    ):
                        broken = True
                        queue.extend(futures.values())
                        futures.clear()
                        break
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            if broken and queue:
                respawns += 1
                state.respawn_count += 1
                _POOL_RESPAWNS.inc()
                emit_warning(
                    f"process pool died; respawning "
                    f"({respawns}/{self.retry.max_respawns}) and re-dispatching "
                    f"{len(queue)} unfinished point(s)",
                    kind="respawn",
                    respawn=respawns,
                    remaining=len(queue),
                )

    def _check_backstop(
        self,
        state: _RunState,
        futures: Dict[Any, int],
        running_since: Dict[Any, float],
        queue: List[int],
        pool: ProcessPoolExecutor,
        emit_point_done,
    ) -> bool:
        """Parent-side hard-hang detector for pooled execution.

        The worker-side ``SIGALRM`` is the primary per-point timeout; a
        worker that blows far past it (a hang no Python signal can
        interrupt) is declared dead here: its point is charged a
        :class:`PointTimeout` attempt and every worker process is
        terminated so the pool rebuilds.  Returns ``True`` when the pool
        was killed.
        """
        if self.retry.timeout_s is None:
            return False
        now = time.monotonic()
        for future in futures:
            if future.running() and future not in running_since:
                running_since[future] = now
        limit = self.retry.timeout_s * _BACKSTOP_FACTOR + _BACKSTOP_GRACE_S
        overdue = [
            future
            for future, since in running_since.items()
            if future in futures and now - since > limit
        ]
        if not overdue:
            return False
        for future in overdue:
            index = futures.pop(future)
            running_since.pop(future, None)
            pause = self._handle_failure(
                state,
                index,
                PointTimeout(
                    f"point unresponsive for {limit:.1f}s "
                    f"(timeout {self.retry.timeout_s:g}s backstop)"
                ),
            )
            if pause is not None:
                queue.append(index)
            else:
                state.durations[index] = limit
                emit_point_done(index, False)
        # A terminated worker cannot be recycled: kill the whole pool and
        # let the caller respawn it for whatever remains.
        for process in getattr(pool, "_processes", {}).values():
            try:
                process.terminate()
            except OSError:
                pass
        return True


def _status_counts(statuses: List[str]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for status in statuses:
        counts[status] = counts.get(status, 0) + 1
    return counts


def run_campaign(
    spec: Union[SweepSpec, Sequence[PointSpec]],
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache: Optional[ResultCache] = None,
    retry: Optional[RetryPolicy] = None,
    resume: bool = False,
    name: Optional[str] = None,
) -> CampaignResult:
    """One-call convenience: build a runner and execute ``spec``."""
    return CampaignRunner(jobs=jobs, cache=cache, use_cache=use_cache, retry=retry).run(
        spec, name=name, resume=resume
    )
