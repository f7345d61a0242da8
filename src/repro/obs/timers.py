"""Span-style phase timers.

A *phase* is one named section of a run — every simulation splits into
``trace_acquire`` (loading or generating the workload trace),
``replay`` (the engine loop over the trace), and ``settle`` (folding
counters into the result object).  Timing a phase always records its
duration into the ``phase.<name>`` histogram of the process-local
metrics registry; when an observer is attached, a ``phase`` event is
emitted as well, so JSONL logs carry the same split the registry
aggregates.

Usage::

    with phase("replay", observer=observer) as event:
        simulator.replay(trace)
        event["tier"] = simulator.last_tier

The yielded dict holds extra fields for the ``phase`` event (the replay
phase reports the engine tier that ran).

The overhead is two ``perf_counter`` calls and one list append per
phase — phases are per *run*, never per access, so this is invisible
next to any simulation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.obs.events import make_event
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.observer import RunObserver

#: The canonical phase names every simulation kind reports.
PHASE_TRACE_ACQUIRE = "trace_acquire"
PHASE_REPLAY = "replay"
PHASE_SETTLE = "settle"


@contextmanager
def phase(
    name: str,
    observer: Optional[RunObserver] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Dict[str, Any]]:
    """Time the enclosed block as phase ``name``.

    The duration always lands in the ``phase.<name>`` histogram of
    ``registry`` (default: the process-local :data:`REGISTRY`); with an
    ``observer`` it is also emitted as a ``phase`` event, carrying the
    fields the block put into the yielded dict.  The duration is
    recorded even when the block raises, so a failing run still
    accounts the time it burned.
    """
    fields: Dict[str, Any] = {}
    started = time.perf_counter()
    try:
        yield fields
    finally:
        duration = time.perf_counter() - started
        (registry if registry is not None else REGISTRY).histogram(f"phase.{name}").record(duration)
        if observer is not None:
            observer.emit(make_event("phase", name=name, duration_s=duration, **fields))
