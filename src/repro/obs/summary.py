"""Aggregating a JSONL event log into per-phase totals and percentiles.

``python -m repro obs summary <events.jsonl>`` lands here: the log is
folded into one JSON-safe summary dict — event counts by type, per-phase
duration statistics (count / total / p50 / p95 / p99, from both
standalone ``phase`` events and the per-point ``phases`` splits inside
``point_done`` events), point-level latency percentiles with cache-hit
accounting, computed points counted by the tier their replay ran on and
by the reason any phase fell back from the kernel, and any warnings —
plus a human-readable rendering.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.events import OBS_SCHEMA_VERSION
from repro.obs.metrics import Histogram, percentiles


def summarize_events(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold an event stream into a JSON-safe summary document."""
    counts: Dict[str, int] = {}
    schemas: List[int] = []
    phase_histograms: Dict[str, Histogram] = {}
    point_durations: List[float] = []
    cached_durations: List[float] = []
    computed_durations: List[float] = []
    cache_hits = 0
    replay_tiers: Dict[str, int] = {}
    fallbacks: Dict[str, int] = {}
    warnings: List[str] = []
    runs = 0
    total_duration = 0.0

    def phase_histogram(name: str) -> Histogram:
        histogram = phase_histograms.get(name)
        if histogram is None:
            histogram = phase_histograms[name] = Histogram(name)
        return histogram

    for event in events:
        event_type = event.get("type", "?")
        counts[event_type] = counts.get(event_type, 0) + 1
        schema = event.get("schema")
        if schema not in schemas:
            schemas.append(schema)
        if event_type == "phase":
            phase_histogram(event.get("name", "?")).record(float(event.get("duration_s", 0.0)))
        elif event_type == "point_done":
            duration = float(event.get("duration_s", 0.0))
            point_durations.append(duration)
            if event.get("cache_hit"):
                cache_hits += 1
                cached_durations.append(duration)
            else:
                computed_durations.append(duration)
                tier = (event.get("tiers") or {}).get("replay")
                if tier is not None:
                    replay_tiers[tier] = replay_tiers.get(tier, 0) + 1
                for reason in set((event.get("fallbacks") or {}).values()):
                    fallbacks[reason] = fallbacks.get(reason, 0) + 1
            for name, phase_duration in (event.get("phases") or {}).items():
                phase_histogram(name).record(float(phase_duration))
        elif event_type == "warning":
            warnings.append(str(event.get("message", "")))
        elif event_type == "run_start":
            runs += 1
        elif event_type == "run_end":
            total_duration += float(event.get("duration_s", 0.0))

    return {
        "schema_versions": schemas,
        "expected_schema": OBS_SCHEMA_VERSION,
        "num_events": sum(counts.values()),
        "events_by_type": dict(sorted(counts.items())),
        "runs": runs,
        "total_run_seconds": total_duration,
        "phases": {
            name: histogram.summary()
            for name, histogram in sorted(phase_histograms.items())
        },
        "points": {
            "count": len(point_durations),
            "cache_hits": cache_hits,
            "cache_hit_rate": cache_hits / len(point_durations) if point_durations else None,
            "duration": percentiles(point_durations),
            "computed_duration": percentiles(computed_durations),
            "cached_duration": percentiles(cached_durations),
            "replay_tiers": dict(sorted(replay_tiers.items())),
            "fallbacks": dict(sorted(fallbacks.items())),
        },
        "warnings": warnings,
    }


def _fmt_seconds(value: Any) -> str:
    return f"{value:.4f}s" if isinstance(value, (int, float)) else "-"


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_events` output."""
    lines: List[str] = []
    schemas = ", ".join(str(schema) for schema in summary["schema_versions"])
    lines.append(
        f"events : {summary['num_events']} "
        f"(schema {schemas}; expected {summary['expected_schema']})"
    )
    by_type = ", ".join(f"{name}={count}" for name, count in summary["events_by_type"].items())
    lines.append(f"by type: {by_type}")
    lines.append(f"runs   : {summary['runs']} ({summary['total_run_seconds']:.2f}s total)")

    points = summary["points"]
    if points["count"]:
        rate = points["cache_hit_rate"]
        rate_text = f"{100 * rate:.1f}%" if rate is not None else "-"
        duration = points["duration"]
        lines.append(
            f"points : {points['count']} ({points['cache_hits']} cache hits, "
            f"{rate_text} hit rate)"
        )
        lines.append(
            f"  latency p50={_fmt_seconds(duration['p50'])} "
            f"p95={_fmt_seconds(duration['p95'])} p99={_fmt_seconds(duration['p99'])}"
        )
        if points["replay_tiers"]:
            tiers = ", ".join(f"{tier}={count}" for tier, count in points["replay_tiers"].items())
            lines.append(f"  computed by replay tier: {tiers}")
        if points["fallbacks"]:
            reasons = ", ".join(
                f"{reason}={count}" for reason, count in points["fallbacks"].items()
            )
            lines.append(f"  fell back from the kernel: {reasons}")

    if summary["phases"]:
        lines.append(f"{'phase':<16} {'count':>6} {'total':>10} {'p50':>10} {'p95':>10} {'p99':>10}")
        for name, stats in summary["phases"].items():
            lines.append(
                f"{name:<16} {stats['count']:>6} {stats['total']:>9.4f}s "
                f"{_fmt_seconds(stats['p50']):>10} {_fmt_seconds(stats['p95']):>10} "
                f"{_fmt_seconds(stats['p99']):>10}"
            )

    for warning in summary["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)
