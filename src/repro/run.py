"""The unified run facade: :class:`RunSpec` + :class:`Session`.

Every simulation entry point in the package routes through this module.
A :class:`RunSpec` (the campaign layer's :class:`~repro.campaign.spec.PointSpec`
under its facade name) pins down one simulation completely — benchmark,
predictor and config, hierarchy, trace length, seed and simulator kind —
and round-trips losslessly through JSON.  A :class:`Session` owns
everything *around* a spec: trace-store resolution, result caching, and
sweep execution::

    from repro import RunSpec, Session

    session = Session()
    result = session.run("mcf", predictor="dbcp", num_accesses=50_000)
    table = session.compare("mcf", ["ltcords", "ghb", "stride"])
    campaign = session.sweep(sweep_spec)          # cached, parallel

The classic helpers (``quick_simulation``, ``simulate_speedup``,
``simulate_pair``) are thin shims over this facade with their historical
signatures and bit-identical output; the campaign runner's
``execute_point`` delegates to :func:`execute_spec` so in-process,
pooled, and facade execution share one dispatch.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.campaign.cache import ResultCache, ResultType, cache_disabled
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import PointSpec, SweepSpec
from repro.obs.events import make_event, next_run_id
from repro.obs.metrics import REGISTRY
from repro.obs.observer import RunObserver
from repro.registry import build_predictor
from repro.resilience.policy import RetryPolicy

_POINTS_EXECUTED = REGISTRY.counter("run.points_executed")

#: The facade name for a fully-specified simulation point.  ``RunSpec`` is
#: a thin alias of :class:`~repro.campaign.spec.PointSpec` — one class,
#: one serialisation, one cache key — so specs flow between single runs,
#: sweeps, the process pool, and the on-disk caches without conversion.
RunSpec = PointSpec

#: A benchmark name, a RunSpec, or any other spec kind speaking the same
#: protocol (e.g. :class:`repro.multicore.MulticoreSpec`).
SpecLike = Union[str, PointSpec, Any]


def execute_spec(
    spec: PointSpec,
    *,
    prefetcher: Optional[object] = None,
    system_config: Optional[object] = None,
    trace_store: Optional[object] = None,
    observer: Optional[RunObserver] = None,
) -> ResultType:
    """Run one simulation spec in-process and return its result object.

    This is the single dispatch point between a spec and the simulator
    implementations; the campaign worker and :meth:`Session.run` both
    land here.  ``prefetcher`` overrides the predictor the spec would
    build (used by the classic instance-based shims; such runs are not
    cacheable because the spec no longer captures the predictor state),
    ``system_config`` feeds the timing model, and ``trace_store``
    overrides the default on-disk trace store.  ``observer`` receives
    ``phase`` events splitting every kind of run into trace-acquire /
    replay / settle; for timing runs settle includes the timing model,
    and for multiprogram runs replay covers the paired and both
    standalone replays.
    """
    _POINTS_EXECUTED.inc()
    if spec.sim == "trace":
        from repro.sim.trace_driven import simulate_benchmark

        # The trace comes from the shared on-disk trace store (generated
        # at most once per unique spec, then mmap-loaded — also across
        # pool processes) and replays on the kernel where it applies.
        return simulate_benchmark(
            spec.benchmark,
            prefetcher=prefetcher
            if prefetcher is not None
            else build_predictor(spec.predictor, spec.predictor_config),
            num_accesses=spec.num_accesses,
            seed=spec.seed,
            hierarchy_config=spec.hierarchy_config,
            trace_store=trace_store,
            observer=observer,
        )
    if spec.sim == "timing":
        from repro.sim.timing import _simulate_speedup

        if prefetcher is None and spec.predictor != "none":
            prefetcher = build_predictor(spec.predictor, spec.predictor_config)
        return _simulate_speedup(
            spec.benchmark,
            prefetcher=prefetcher,
            num_accesses=spec.num_accesses,
            seed=spec.seed,
            hierarchy_config=spec.hierarchy_config,
            system_config=system_config,
            perfect_l1=spec.perfect_l1,
            trace_store=trace_store,
            observer=observer,
        )
    if spec.sim == "multicore":
        from repro.multicore import simulate_multicore

        if prefetcher is not None or system_config is not None:
            raise ValueError(
                "multicore specs build one predictor per core from the registry; "
                "prefetcher/system_config overrides do not apply"
            )
        return simulate_multicore(spec, trace_store=trace_store, observer=observer)
    if spec.sim == "multiprogram":
        from repro.sim.multiprogram import _simulate_pair

        if spec.predictor != "ltcords":
            raise ValueError("multiprogram points currently support only the ltcords predictor")
        return _simulate_pair(
            spec.benchmark,
            spec.secondary,
            num_accesses=spec.num_accesses,
            quantum_instructions=spec.quantum_instructions,
            max_switches=spec.max_switches,
            seed=spec.seed,
            hierarchy_config=spec.hierarchy_config,
            ltcords_config=spec.predictor_config,
            trace_store=trace_store,
            observer=observer,
        )
    raise ValueError(f"unknown sim kind {spec.sim!r}")


def _safe_key(spec: Any) -> Optional[str]:
    """``spec.key()`` or ``None`` when the spec is unserialisable.

    Specs carrying unregistered config classes raise ``TypeError`` from
    ``key()``; observability must never turn that into a run failure.
    """
    try:
        return spec.key()
    except (TypeError, AttributeError):
        return None


class Session:
    """Facade owning caching, trace-store resolution and sweep execution.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`sweep` (default: ``REPRO_JOBS`` or
        the CPU count; single runs always execute in-process).
    cache / use_cache:
        Result-cache overrides; caching also honours ``REPRO_NO_CACHE``.
    trace_store:
        A :class:`~repro.trace.store.TraceStore` overriding the default
        resolution (``REPRO_TRACE_DIR`` / ``REPRO_NO_TRACE_STORE``).
    runner:
        A prebuilt :class:`CampaignRunner` to adopt (its cache settings
        win); used by the experiment drivers' back-compat paths.
    observer:
        A :class:`~repro.obs.observer.RunObserver` receiving structured
        events from :meth:`run` (``run_start`` / ``phase`` /
        ``cache_hit`` / ``run_end``) and :meth:`sweep` (per-point
        ``point_done`` streaming).  ``None`` observes nothing and adds
        nothing to the hot path.
    retry:
        A :class:`~repro.resilience.RetryPolicy` governing sweep
        execution: per-point retries with deterministic backoff, a
        per-point wall-clock timeout, the on-error disposition
        (``fail``/``skip``/``retry``), and the worker-respawn budget.
        ``None`` keeps the historical fail-fast behaviour.
    resume:
        Default for :meth:`sweep`'s ``resume`` argument: consult the
        campaign's durable journal and skip journaled, cache-verified
        points — the ``--resume`` crash/Ctrl-C recovery path.
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        trace_store: Optional[object] = None,
        runner: Optional[CampaignRunner] = None,
        observer: Optional[RunObserver] = None,
        retry: Optional[RetryPolicy] = None,
        resume: bool = False,
    ) -> None:
        self.jobs = jobs
        self.trace_store = trace_store
        self.observer = observer
        self.retry = retry
        self.resume = resume
        self._runner = runner
        if runner is not None:
            self._cache: Optional[ResultCache] = runner.cache
            self.use_cache = runner.use_cache
        else:
            self._cache = cache
            self.use_cache = use_cache and not cache_disabled()

    # ------------------------------------------------------------------ plumbing
    @property
    def cache(self) -> ResultCache:
        """The result cache (created lazily so cache-off sessions touch no disk)."""
        if self._cache is None:
            self._cache = ResultCache()
        return self._cache

    @property
    def runner(self) -> CampaignRunner:
        """The campaign runner :meth:`sweep` executes through (built lazily)."""
        if self._runner is None:
            self._runner = CampaignRunner(
                jobs=self.jobs,
                cache=self.cache if self.use_cache else None,
                use_cache=self.use_cache,
                trace_store=self.trace_store,
                retry=self.retry,
            )
        return self._runner

    def spec(self, spec: SpecLike, **overrides: Any) -> PointSpec:
        """Normalise a benchmark name or existing spec into a :class:`RunSpec`.

        Keyword overrides replace fields.  Existing spec objects of any
        kind (:class:`RunSpec` or a :class:`~repro.multicore.MulticoreSpec`)
        pass through with the overrides applied.
        """
        if not isinstance(spec, str):
            return dataclasses.replace(spec, **overrides) if overrides else spec
        return RunSpec(benchmark=spec, **overrides)

    # ------------------------------------------------------------------ execution
    def run(
        self,
        spec: SpecLike,
        *,
        prefetcher: Optional[object] = None,
        system_config: Optional[object] = None,
        use_cache: Optional[bool] = None,
        **overrides: Any,
    ) -> ResultType:
        """Run one simulation point, serving and feeding the result cache.

        ``spec`` is a :class:`RunSpec` or a benchmark name plus keyword
        fields (``session.run("mcf", predictor="dbcp")``).  Runs with a
        ``prefetcher`` instance or a ``system_config`` override bypass the
        cache (the spec alone no longer determines the result), as do
        specs whose configs are not registered for serialisation.
        """
        spec = self.spec(spec, **overrides)
        key = _safe_key(spec)
        observer = self.observer
        run_id = None
        started = time.perf_counter()
        if observer is not None:
            run_id = next_run_id()
            observer.emit(
                make_event(
                    "run_start",
                    run_id=run_id,
                    kind="run",
                    benchmark=getattr(spec, "benchmark", None),
                    predictor=getattr(spec, "predictor", None),
                    sim=getattr(spec, "sim", None),
                    key=key,
                )
            )
        cacheable = (
            (self.use_cache if use_cache is None else use_cache and not cache_disabled())
            and prefetcher is None
            and system_config is None
            # A spec carrying an unregistered config class has no key: uncacheable.
            and key is not None
        )
        cache_hit = False
        result: Optional[ResultType] = None
        if cacheable:
            cached = self.cache.get(spec, key)
            if cached is not None:
                cache_hit = True
                result = cached
                if observer is not None:
                    observer.emit(make_event("cache_hit", run_id=run_id, key=key))
        if result is None:
            result = execute_spec(
                spec,
                prefetcher=prefetcher,
                system_config=system_config,
                trace_store=self.trace_store,
                observer=observer,
            )
            if cacheable:
                self.cache.put(spec, result, key)
        if observer is not None:
            observer.emit(
                make_event(
                    "run_end",
                    run_id=run_id,
                    cache_hit=cache_hit,
                    duration_s=time.perf_counter() - started,
                    metrics=REGISTRY.snapshot(),
                )
            )
        return result

    def sweep(
        self,
        spec: Union[SweepSpec, Sequence[PointSpec], Iterable[PointSpec]],
        name: Optional[str] = None,
        resume: Optional[bool] = None,
    ) -> CampaignResult:
        """Execute a :class:`SweepSpec` (or a bare list of points) through the
        campaign runner: cache-first, then fanned out across the process pool.

        ``name`` overrides the campaign name recorded on the result (and
        therefore the artifact directory); bare lists default to
        ``"adhoc"``.  The session's trace store is threaded into both the
        serial path and the pool workers.  ``resume`` (default: the
        session's ``resume`` setting) skips points a previous run of the
        same campaign journaled and whose results verify from the cache.
        """
        resume = self.resume if resume is None else resume
        return self.runner.run(spec, name=name, observer=self.observer, resume=resume)

    def compare(
        self,
        benchmark: str,
        predictors: Sequence[str] = ("ltcords", "dbcp", "ghb", "stride"),
        **overrides: Any,
    ) -> Dict[str, ResultType]:
        """Run several predictors on one benchmark; results keyed by predictor name."""
        return {name: self.run(benchmark, predictor=name, **overrides) for name in predictors}

    # ------------------------------------------------------------------ introspection
    def info(self) -> Dict[str, Any]:
        """Environment snapshot: version, registries, cache, trace-store and kernel state.

        The ``kernel`` block loads (building on first use) the compiled
        kernel and says whether replays here take it: ``reason`` is why
        they fall to the interpreted tier (``no-compiler`` or
        ``kill-switch``), ``None`` when the kernel loaded.
        """
        from repro.cache.vector import kernel_cache_dir, load_kernel, unavailable_reason
        from repro.registry import predictor_entry, predictor_names, workload_entry, workload_names
        from repro.trace.store import TRACE_FORMAT_VERSION, TraceStore, store_disabled
        from repro.version import __version__

        suites: Dict[str, List[str]] = {}
        for name in workload_names():
            suites.setdefault(workload_entry(name).metadata.suite, []).append(name)
        store = self.trace_store if self.trace_store is not None else TraceStore()
        kernel_loaded = load_kernel() is not None
        return {
            "version": __version__,
            "predictors": {
                name: predictor_entry(name).description for name in predictor_names()
            },
            "benchmarks": suites,
            "cache": {
                "root": str(self.cache.root),
                "enabled": self.use_cache,
                "entries": self.cache.entry_count(),
                "bytes": self.cache.size_bytes(),
            },
            "trace_store": {
                "root": str(store.root),
                "enabled": not store_disabled(),
                "format_version": TRACE_FORMAT_VERSION,
                "entries": len(store.entries()),
                "bytes": store.size_bytes(),
            },
            "obs": self.obs_info(),
            "kernel": {
                "loaded": kernel_loaded,
                "reason": None if kernel_loaded else unavailable_reason(),
                "cache_dir": kernel_cache_dir(),
            },
        }

    @staticmethod
    def obs_info() -> Dict[str, Any]:
        """Live snapshot of the process-local metrics registry.

        Reports what this process has actually done so far: points
        executed, accesses replayed, result-cache and trace-store hit
        rates, and per-phase time split — the ``info --obs`` payload.
        """
        snapshot = REGISTRY.snapshot()
        phases = {
            name[len("phase."):]: stats
            for name, stats in snapshot["histograms"].items()
            if name.startswith("phase.")
        }
        return {
            "points_executed": snapshot["counters"].get("run.points_executed", 0),
            "accesses_replayed": snapshot["counters"].get("replay.accesses", 0),
            "cache_hit_rate": REGISTRY.hit_rate("cache.hits", "cache.misses"),
            "cache_corrupt": snapshot["counters"].get("cache.corrupt", 0),
            "trace_store_hit_rate": REGISTRY.hit_rate(
                "trace_store.hits", "trace_store.misses"
            ),
            "phases": phases,
            "counters": snapshot["counters"],
        }
