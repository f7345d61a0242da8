"""``repro.obs`` — structured run telemetry and instrumentation.

The observability layer the rest of the package records into:

* :mod:`repro.obs.metrics` — the process-local metrics registry
  (counters, gauges, p50/p95/p99 histograms) behind :data:`REGISTRY`;
* :mod:`repro.obs.timers` — span-style :func:`phase` timers splitting
  every run into ``trace_acquire`` / ``replay`` / ``settle``;
* :mod:`repro.obs.events` — the schema-versioned JSONL event records
  (``run_start`` / ``phase`` / ``cache_hit`` / ``point_done`` /
  ``warning`` / ``run_end``);
* :mod:`repro.obs.observer` — the :class:`RunObserver` protocol with
  null, JSONL, stderr-progress, and tee implementations, plus the
  global warning sink;
* :mod:`repro.obs.summary` — log aggregation behind
  ``python -m repro obs summary``.

Everything is dependency-free within the package (obs imports nothing
from the simulators), so any layer can record into it without cycles.
Campaigns stream into the same format: the serial loop and the pool
workers both attach a ``RunObserver``, so every point completion, its
phase split and replay tiers, and every cache hit land in one log.
"""

from repro.obs.events import (
    EVENT_TYPES,
    OBS_SCHEMA_VERSION,
    canonical_event,
    check_events,
    make_event,
    next_run_id,
    read_events,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles,
    quantile,
)
from repro.obs.observer import (
    JsonlObserver,
    NullObserver,
    RunObserver,
    StderrProgressObserver,
    TeeObserver,
    add_global_observer,
    compose,
    emit_global,
    emit_warning,
    remove_global_observer,
)
from repro.obs.summary import format_summary, summarize_events
from repro.obs.timers import PHASE_REPLAY, PHASE_SETTLE, PHASE_TRACE_ACQUIRE, phase

__all__ = [
    "EVENT_TYPES",
    "OBS_SCHEMA_VERSION",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlObserver",
    "MetricsRegistry",
    "NullObserver",
    "PHASE_REPLAY",
    "PHASE_SETTLE",
    "PHASE_TRACE_ACQUIRE",
    "RunObserver",
    "StderrProgressObserver",
    "TeeObserver",
    "add_global_observer",
    "canonical_event",
    "check_events",
    "compose",
    "emit_global",
    "emit_warning",
    "format_summary",
    "make_event",
    "next_run_id",
    "percentiles",
    "phase",
    "quantile",
    "read_events",
    "remove_global_observer",
    "summarize_events",
]
