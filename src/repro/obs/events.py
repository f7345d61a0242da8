"""The structured run-event schema (JSONL records).

Every observer event is one flat JSON object carrying:

======================  =====================================================
field                   meaning
======================  =====================================================
``schema``              :data:`OBS_SCHEMA_VERSION` (bump on breaking changes)
``type``                one of :data:`EVENT_TYPES`
``ts``                  unix timestamp the event was emitted at
*type-specific fields*  see below
======================  =====================================================

Event types
-----------

``run_start``
    A single run (``run_id``, ``benchmark``, ``predictor``, ``sim``,
    ``key``, ``spec``) or a campaign (``campaign``, ``num_points``,
    ``jobs``) began.
``phase``
    One phase of a run finished: ``name`` (``trace_acquire`` /
    ``replay`` / ``settle``) and ``duration_s``.  A ``replay`` phase
    also carries ``tier`` (the engine tier that ran, ``"mixed"`` when a
    run's simulators differ) and, when a kernel-eligible replay fell
    back, ``fallback``; a multicore co-run adds the per-core
    ``lane_tiers`` and, when any lane fell back, ``lane_fallbacks``
    (``null`` for a lane that did not).
``cache_hit``
    The result cache served a point: ``key`` (plus ``index`` inside a
    campaign).
``point_done``
    One campaign point completed: ``index``, ``key`` (the point's
    content hash), ``benchmark``, ``predictor``, ``sim``,
    ``duration_s``, ``cache_hit``, and the per-phase ``phases`` split
    measured where the point actually ran (in-process or in a pool
    worker).
``warning``
    Something recoverable went wrong (e.g. a corrupt cache entry):
    ``message`` plus free-form context fields.
``run_end``
    The run/campaign finished: ``duration_s``, ``cache_hit`` (single
    runs) or ``cached_count``/``computed_count`` (campaigns), and a
    ``metrics`` snapshot of the process-local registry.

Determinism
-----------

Event *content* is deterministic for a deterministic workload — the same
sweep produces the same multiset of events whether it runs serially or
through the process pool — except for the fields in
:data:`VOLATILE_FIELDS` (wall-clock measurements and registry
snapshots).  :func:`canonical_event` strips those, which is what the
serial-vs-pool determinism tests compare on.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

#: Version of the event record layout; folded into every event.
OBS_SCHEMA_VERSION = 1

#: Every event type the schema defines.
EVENT_TYPES = ("run_start", "phase", "cache_hit", "point_done", "warning", "run_end")

#: Fields that legitimately differ between two runs of the same workload
#: (wall-clock measurements and metric snapshots).
VOLATILE_FIELDS = ("ts", "duration_s", "phases", "metrics", "run_id")

_RUN_IDS = itertools.count(1)


def next_run_id() -> str:
    """A process-locally unique, deterministic run identifier."""
    return f"run-{next(_RUN_IDS)}"


def make_event(event_type: str, **fields: Any) -> Dict[str, Any]:
    """Build one schema-versioned, timestamped event record."""
    if event_type not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event_type!r}; expected one of {EVENT_TYPES}")
    event: Dict[str, Any] = {"schema": OBS_SCHEMA_VERSION, "type": event_type, "ts": time.time()}
    event.update(fields)
    return event


def canonical_event(event: Dict[str, Any]) -> Dict[str, Any]:
    """``event`` with every volatile (timing/snapshot) field removed.

    Two runs of the same deterministic workload agree on the multiset of
    canonical events; the determinism tests compare exactly this.
    """
    return {key: value for key, value in event.items() if key not in VOLATILE_FIELDS}


def encode_event(event: Dict[str, Any]) -> str:
    """One JSONL line (no trailing newline) for ``event``."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event log back into a list of event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError`` with
    its line number (an event log is machine-written — a parse failure
    means truncation or corruption, not user error worth tolerating).
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: malformed event line: {exc}") from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{line_number}: event is not a JSON object")
            events.append(event)
    return events


def read_events_tolerant(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[Tuple[int, str]]]:
    """Parse a JSONL event log, surviving damaged lines.

    The forgiving counterpart of :func:`read_events` for logs that may
    legitimately be torn — the campaign journal a crashed or killed run
    leaves behind.  Returns ``(events, problems)`` where ``problems`` is
    a list of ``(line_number, message)`` pairs for every line that was
    skipped (malformed JSON or a non-object record); readable lines
    before, between, and after damage are all kept.
    """
    events: List[Dict[str, Any]] = []
    problems: List[Tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append((line_number, f"malformed event line: {exc}"))
                continue
            if not isinstance(event, dict):
                problems.append((line_number, "event is not a JSON object"))
                continue
            events.append(event)
    return events, problems


def _tier_problems(event: Dict[str, Any]) -> List[str]:
    """What is wrong with a ``phase`` event's tier fields (absent fields are fine)."""
    problems = []
    for field in ("tier", "fallback"):
        if field in event and not isinstance(event[field], str):
            problems.append(f"phase {field!r} is not a string")
    for field, optional in (("lane_tiers", False), ("lane_fallbacks", True)):
        values = event.get(field, [])
        if not isinstance(values, list) or not all(
            isinstance(value, str) or (optional and value is None) for value in values
        ):
            problems.append(f"phase {field!r} is not a list of lane {field[5:]}")
    return problems


def check_events(
    events: Iterable[Dict[str, Any]],
    require_types: Iterable[str] = ("run_start", "run_end"),
) -> List[str]:
    """Validate an event log; return a list of problems (empty = OK).

    Checks every record's schema version and type, that each required
    event type occurs at least once, and that every ``point_done`` event
    carries the fields the campaign contract promises (``duration_s``,
    ``cache_hit``, ``key``).  This is the CI smoke checker behind
    ``python -m repro obs check``.
    """
    problems: List[str] = []
    seen_types: Dict[str, int] = {}
    for index, event in enumerate(events):
        schema = event.get("schema")
        if schema != OBS_SCHEMA_VERSION:
            problems.append(
                f"event {index}: schema version {schema!r} (expected {OBS_SCHEMA_VERSION})"
            )
        event_type = event.get("type")
        if event_type not in EVENT_TYPES:
            problems.append(f"event {index}: unknown type {event_type!r}")
            continue
        seen_types[event_type] = seen_types.get(event_type, 0) + 1
        if event_type == "point_done":
            for field in ("duration_s", "cache_hit", "key"):
                if field not in event:
                    problems.append(f"event {index}: point_done missing {field!r}")
        if event_type == "phase":
            if "name" not in event:
                problems.append(f"event {index}: phase missing 'name'")
            problems.extend(f"event {index}: {problem}" for problem in _tier_problems(event))
    for required in require_types:
        if required not in seen_types:
            problems.append(f"no {required!r} event in log")
    return problems
