"""Observer implementations behind the :class:`RunObserver` protocol.

An observer is anything with an ``emit(event)`` method taking one
schema-versioned event dict (see :mod:`repro.obs.events`).  The runtime
never requires one — every observer-accepting API treats ``None`` as
"no observation" — and the in-tree implementations are:

* :class:`NullObserver` — discards everything (the zero-overhead
  default; the bench suite asserts attaching one stays within noise);
* :class:`JsonlObserver` — appends each event as one JSON line to a
  file (the structured log `python -m repro obs summary` aggregates);
* :class:`StderrProgressObserver` — human-oriented live progress lines
  on stderr (``--progress``);
* :class:`TeeObserver` — fans one event stream out to several observers
  (``--log-json`` + ``--progress`` together).

Components that have no observer reference of their own (the result
cache, the trace store) emit *warning* events through the module-global
sink (:func:`add_global_observer` / :func:`emit_warning`); the CLI
registers its observer there for the duration of a command so those
warnings land in the same log as everything else.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.obs.events import make_event


class RunObserver:
    """Protocol base: receives every event of the runs it is attached to.

    Subclasses override :meth:`emit`; the base class discards, so
    :class:`NullObserver` is just a name for the base behaviour.
    Observers are context managers (``close`` is a no-op by default) so
    file-backed implementations release their handles deterministically.
    """

    def emit(self, event: Dict[str, Any]) -> None:
        """Receive one event dict (base implementation: discard)."""

    def close(self) -> None:
        """Release any resources (base implementation: nothing to do)."""

    def __enter__(self) -> "RunObserver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullObserver(RunObserver):
    """Discards every event: observation with zero side effects."""


class JsonlObserver(RunObserver):
    """Appends every event as one JSON line to ``path``.

    The file opens lazily on the first event (so constructing an observer
    never touches disk) and every line is flushed immediately — a killed
    campaign leaves a complete log of everything that finished.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = None
        #: Events written so far (handy for tests and summaries).
        self.emitted = 0

    def emit(self, event: Dict[str, Any]) -> None:
        from repro.obs.events import encode_event

        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(encode_event(event) + "\n")
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class StderrProgressObserver(RunObserver):
    """Live one-line-per-event progress on a stream (default stderr)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream
        self._num_points: Optional[int] = None
        self._done = 0

    @property
    def stream(self) -> TextIO:
        # Resolved lazily so pytest's capture (and late redirection) win.
        return self._stream if self._stream is not None else sys.stderr

    def _line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def emit(self, event: Dict[str, Any]) -> None:
        event_type = event.get("type")
        if event_type == "run_start":
            if "campaign" in event:
                self._num_points = event.get("num_points")
                self._done = 0
                self._line(
                    f"[{event['campaign']}] {self._num_points} points "
                    f"(jobs={event.get('jobs', 1)})"
                )
            else:
                self._line(
                    f"[{event.get('run_id', 'run')}] {event.get('benchmark', '?')}/"
                    f"{event.get('predictor', '?')} ({event.get('sim', '?')}) ..."
                )
        elif event_type == "point_done":
            self._done += 1
            total = f"/{self._num_points}" if self._num_points else ""
            cached = " (cached)" if event.get("cache_hit") else ""
            duration = event.get("duration_s", 0.0)
            self._line(
                f"  [{self._done}{total}] {event.get('benchmark', '?')}/"
                f"{event.get('predictor', '?')} {duration:.3f}s{cached}"
            )
        elif event_type == "warning":
            self._line(f"warning: {event.get('message', '')}")
        elif event_type == "run_end":
            if "cached_count" in event:
                self._line(
                    f"done: {event.get('num_points', self._done)} points in "
                    f"{event.get('duration_s', 0.0):.2f}s "
                    f"({event.get('cached_count', 0)} cached, "
                    f"{event.get('computed_count', 0)} computed)"
                )
            else:
                cached = " (cached)" if event.get("cache_hit") else ""
                self._line(f"done in {event.get('duration_s', 0.0):.3f}s{cached}")


class TeeObserver(RunObserver):
    """Delivers every event to each of several observers, in order."""

    def __init__(self, observers: Sequence[RunObserver]) -> None:
        self.observers = list(observers)

    def emit(self, event: Dict[str, Any]) -> None:
        for observer in self.observers:
            observer.emit(event)

    def close(self) -> None:
        for observer in self.observers:
            observer.close()


def compose(*observers: Optional[RunObserver]) -> Optional[RunObserver]:
    """Combine observers, dropping ``None``s; ``None`` when nothing remains."""
    live = [observer for observer in observers if observer is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]
    return TeeObserver(live)


# ---------------------------------------------------------------------------
# Global sink for components without an observer reference of their own.
# ---------------------------------------------------------------------------

_GLOBAL_OBSERVERS: List[RunObserver] = []


def add_global_observer(observer: RunObserver) -> None:
    """Register ``observer`` to receive globally-emitted events (warnings)."""
    _GLOBAL_OBSERVERS.append(observer)


def remove_global_observer(observer: RunObserver) -> None:
    """Unregister a previously added global observer (missing is a no-op)."""
    try:
        _GLOBAL_OBSERVERS.remove(observer)
    except ValueError:
        pass


def emit_global(event: Dict[str, Any]) -> None:
    """Deliver ``event`` to every registered global observer."""
    for observer in _GLOBAL_OBSERVERS:
        observer.emit(event)


def emit_warning(message: str, **fields: Any) -> None:
    """Emit a one-line ``warning`` event to the global observers."""
    emit_global(make_event("warning", message=message, **fields))
