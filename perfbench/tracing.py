"""In-memory span tracing for the benchmark's traced pass.

The tracer records one span per call into a layer's public entry point:
its name, start, end, parent span and a few attributes (predictor, trace
length, engine tier, cache hit).  Spans stay in memory; the benchmark
folds them into per-layer metrics and self times when the pass ends.

Tracing is installed from here by replacing the entry points on their
classes and modules with timing wrappers (:func:`install`), and removed
again by :meth:`Tracer.restore`.  Nothing inside ``src/repro`` changes.
Pool workers forked during a traced pass inherit the wrappers, but their
spans stay in the worker and are never reported: the traced split of a
pooled run covers the parent process only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, -1 at top level."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """A single-threaded span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def open(self, name: str, **attrs: Any) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Dict[str, Any]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span.

        ``before(*args, **kwargs)`` returns the span's first attributes;
        ``after(attrs, result, *args, **kwargs)`` may update them once the
        call has returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            attrs = before(*args, **kwargs) if before is not None else {}
            index = tracer.open(name, **attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if after is not None:
                after(span.attrs, result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------- entry points
def _replay_before(sim: Any, trace: Any) -> Dict[str, Any]:
    return {"predictor": sim.prefetcher.name, "accesses": len(trace)}


def _replay_after(attrs: Dict[str, Any], result: Any, sim: Any, trace: Any) -> None:
    # The vector engine records which of its tiers actually ran.
    attrs["tier"] = sim.last_vector_path if sim.engine == "vector" else sim.engine


def _timing_before(sim: Any, trace: Any) -> Dict[str, Any]:
    return {"accesses": len(trace)}


def _execute_before(spec: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"kind": spec.sim}


def _acquire_before(store: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"generated_before": store.stats.generated}


def _acquire_after(attrs: Dict[str, Any], result: Any, store: Any, *args: Any, **kwargs: Any) -> None:
    attrs["hit"] = store.stats.generated == attrs.pop("generated_before")


def _cache_get_after(attrs: Dict[str, Any], result: Any, *args: Any, **kwargs: Any) -> None:
    attrs["hit"] = result is not None


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.multicore
    import repro.run
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import PointSpec
    from repro.multicore.spec import MulticoreSpec
    from repro.registry import PredictorEntry
    from repro.resilience.journal import CampaignJournal
    from repro.sim.timing import TimingSimulator
    from repro.sim.trace_driven import TraceDrivenSimulator
    from repro.trace.store import TraceStore

    tracer.wrap(TraceDrivenSimulator, "__init__", "sim.build")
    tracer.wrap(TimingSimulator, "__init__", "sim.build")
    tracer.wrap(PredictorEntry, "build", "sim.predictor_build")
    tracer.wrap(TraceDrivenSimulator, "replay", "sim.replay", _replay_before, _replay_after)
    tracer.wrap(TraceDrivenSimulator, "build_result", "sim.settle")
    tracer.wrap(TimingSimulator, "run", "sim.timing", _timing_before)
    tracer.wrap(repro.run, "execute_spec", "run.execute", _execute_before)
    tracer.wrap(repro.multicore, "simulate_multicore", "multicore.simulate")
    tracer.wrap(TraceStore, "load_or_generate", "trace.acquire", _acquire_before, _acquire_after)
    tracer.wrap(ResultCache, "get", "campaign.cache_get", after=_cache_get_after)
    tracer.wrap(ResultCache, "put", "campaign.cache_put")
    tracer.wrap(PointSpec, "key", "campaign.spec_key")
    tracer.wrap(MulticoreSpec, "key", "campaign.spec_key")
    for method in ("begin", "record_point", "finish"):
        tracer.wrap(CampaignJournal, method, "campaign.journal")
    tracer.wrap(CampaignRunner, "run", "campaign.runner")


# ----------------------------------------------------------------- folding
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, properly nested
    calls), so their durations add.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def unattributed(spans: Sequence[Span], wall: float) -> float:
    """Wall time covered by no span: wall minus the top-level durations."""
    return wall - sum(span.duration for span in spans if span.parent < 0)
