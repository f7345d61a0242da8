"""Tests for ``repro.obs``: metrics, events, observers, and streaming.

Covers the quantile math exactly (known inputs, linear interpolation),
the JSONL event schema round-trip, observer event determinism between
the serial loop and the process pool (same canonical event multiset),
the corrupt-cache-entry accounting, and the zero-overhead property of
the :class:`NullObserver`.
"""

from __future__ import annotations

import json
import time
from collections import Counter as Multiset
from contextlib import nullcontext
from typing import Any, Dict, List

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import PointSpec
from repro.obs import (
    EVENT_TYPES,
    OBS_SCHEMA_VERSION,
    REGISTRY,
    Histogram,
    JsonlObserver,
    MetricsRegistry,
    NullObserver,
    RunObserver,
    StderrProgressObserver,
    add_global_observer,
    canonical_event,
    check_events,
    compose,
    make_event,
    percentiles,
    phase,
    quantile,
    read_events,
    remove_global_observer,
    summarize_events,
)
from repro.obs.summary import format_summary
from repro.run import Session

from conftest import kernel_disabled
from oracle import legacy_engine


class ListObserver(RunObserver):
    """Collects every event in memory (test helper)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)


def _tier(kernel_tier: str) -> str:
    """The tier a fast-engine replay or settle takes in this process."""
    from repro.cache.vector import load_kernel

    return kernel_tier if load_kernel() is not None else "interpreted"


def _points(n: int = 4, accesses: int = 2000) -> List[PointSpec]:
    benchmarks = ["mcf", "art", "swim", "equake", "gzip", "twolf"]
    return [
        PointSpec(benchmark=benchmarks[i % len(benchmarks)], predictor="stride",
                  num_accesses=accesses, seed=42)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Quantile math
# ---------------------------------------------------------------------------

class TestQuantiles:
    def test_median_of_odd_run_is_middle_sample(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_median_of_even_run_interpolates(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_p95_of_0_to_100_is_exact(self):
        assert quantile(list(range(101)), 0.95) == 95.0

    def test_interpolation_between_neighbours(self):
        # h = (2 - 1) * 0.75 = 0.75 → 10 + 0.75 * (20 - 10)
        assert quantile([10, 20], 0.75) == 17.5

    def test_order_independent(self):
        assert quantile([5, 1, 3, 2, 4], 0.5) == 3.0

    def test_extremes_are_min_and_max(self):
        values = [7.0, 1.0, 9.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 9.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_percentiles_dict_labels(self):
        spread = percentiles(list(range(101)))
        assert spread == {"p50": 50.0, "p95": 95.0, "p99": 99.0}

    def test_percentiles_empty_is_nones(self):
        assert percentiles([]) == {"p50": None, "p95": None, "p99": None}


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        registry.histogram("h").record_many([1.0, 2.0, 3.0])
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["p50"] == 2.0
        assert snap["histograms"]["h"]["mean"] == 2.0

    def test_reset_keeps_hoisted_handles_live(self):
        registry = MetricsRegistry()
        handle = registry.counter("hoisted")
        handle.inc(3)
        registry.reset()
        assert handle.value == 0
        handle.inc()
        assert registry.counter("hoisted").value == 1
        assert registry.counter("hoisted") is handle

    def test_hit_rate(self):
        registry = MetricsRegistry()
        assert registry.hit_rate("h", "m") is None
        registry.counter("h").inc(3)
        registry.counter("m").inc(1)
        assert registry.hit_rate("h", "m") == 0.75

    def test_histogram_summary_empty(self):
        h = Histogram("empty")
        assert h.summary() == {"count": 0, "total": 0, "p50": None, "p95": None, "p99": None}


# ---------------------------------------------------------------------------
# Events and observers
# ---------------------------------------------------------------------------

class TestEvents:
    def test_make_event_stamps_schema_and_ts(self):
        event = make_event("warning", message="x")
        assert event["schema"] == OBS_SCHEMA_VERSION
        assert event["type"] == "warning"
        assert isinstance(event["ts"], float)

    def test_make_event_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            make_event("nonsense")

    def test_canonical_event_strips_volatile_fields(self):
        event = make_event("point_done", duration_s=1.0, cache_hit=False,
                           key="k", phases={"replay": 1.0}, run_id="run-9")
        canon = canonical_event(event)
        assert "ts" not in canon and "duration_s" not in canon
        assert "phases" not in canon and "run_id" not in canon
        assert canon["key"] == "k" and canon["cache_hit"] is False

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            make_event("run_start", kind="campaign", campaign="t", num_points=1, jobs=1),
            make_event("point_done", duration_s=0.5, cache_hit=True, key="abc"),
            make_event("run_end", duration_s=0.5),
        ]
        with JsonlObserver(path) as observer:
            for event in events:
                observer.emit(event)
            assert observer.emitted == 3
        loaded = read_events(path)
        assert loaded == events
        assert check_events(loaded) == []

    def test_read_events_reports_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1, "type": "run_start"}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_events(path)

    def test_check_events_flags_problems(self):
        ok = [make_event("run_start"), make_event("run_end")]
        assert check_events(ok) == []
        # Missing required type.
        problems = check_events([make_event("run_start")])
        assert any("run_end" in p for p in problems)
        # Wrong schema version.
        stale = dict(make_event("run_start"), schema=99)
        assert any("schema" in p for p in check_events([stale, make_event("run_end")]))
        # Unknown type (hand-built to bypass make_event's validation).
        unknown = {"schema": OBS_SCHEMA_VERSION, "type": "mystery", "ts": 0.0}
        assert any("mystery" in p for p in check_events([*ok, unknown]))
        # point_done must carry its payload.
        bare = {"schema": OBS_SCHEMA_VERSION, "type": "point_done", "ts": 0.0}
        assert any("point_done" in p for p in check_events([*ok, bare]))
        # A replay phase's tier fields are strings (lane fallbacks may be null).
        replay = make_event("phase", name="replay", tier="mixed", fallback="co-runner",
                            lane_tiers=["interpreted", "kernel-dbcp"],
                            lane_fallbacks=[None, "co-runner"])
        assert check_events([*ok, replay]) == []
        for bad in ({"tier": 3}, {"lane_tiers": "kernel-dbcp"}, {"lane_tiers": [None]}):
            problems = check_events([*ok, dict(replay, **bad)])
            assert any(next(iter(bad)) in p for p in problems), bad
        # A point_done's tiers map phase names to tier strings.
        done = make_event("point_done", duration_s=0.1, cache_hit=False, key="k",
                          tiers={"replay": "kernel-ltcords", "settle": "kernel-timing"})
        assert check_events([*ok, done]) == []
        for bad in (["kernel-ltcords"], {"replay": None}, {"replay": 3}):
            problems = check_events([*ok, dict(done, tiers=bad)])
            assert any("tiers" in p for p in problems), bad
        # ... and its fallbacks map phase names to reason strings.
        assert check_events([*ok, dict(done, fallbacks={"replay": "kill-switch"})]) == []
        for bad in (["kill-switch"], {"replay": None}):
            problems = check_events([*ok, dict(done, fallbacks=bad)])
            assert any("fallbacks" in p for p in problems), bad

    def test_event_types_are_closed(self):
        assert set(EVENT_TYPES) == {
            "run_start", "phase", "cache_hit", "point_done", "warning", "run_end",
        }


class TestObservers:
    def test_compose_drops_nones(self):
        assert compose(None, None) is None
        single = NullObserver()
        assert compose(None, single) is single
        tee = compose(NullObserver(), NullObserver())
        collected = ListObserver()
        tee.observers.append(collected)
        tee.emit(make_event("warning", message="x"))
        assert len(collected.events) == 1

    def test_global_sink_delivers_and_unregisters(self):
        collected = ListObserver()
        add_global_observer(collected)
        try:
            from repro.obs import emit_warning

            emit_warning("something odd", path="/tmp/x")
        finally:
            remove_global_observer(collected)
        assert len(collected.events) == 1
        assert collected.events[0]["type"] == "warning"
        assert collected.events[0]["path"] == "/tmp/x"
        # After removal, nothing more arrives; double-removal is a no-op.
        remove_global_observer(collected)

    def test_progress_observer_renders_lines(self, capsys):
        observer = StderrProgressObserver()
        observer.emit(make_event("run_start", kind="campaign", campaign="sweep",
                                 num_points=2, jobs=1))
        observer.emit(make_event("point_done", benchmark="mcf", predictor="dbcp",
                                 duration_s=0.25, cache_hit=True))
        observer.emit(make_event("run_end", duration_s=0.3, num_points=2,
                                 cached_count=1, computed_count=1))
        err = capsys.readouterr().err
        assert "[sweep] 2 points" in err
        assert "[1/2] mcf/dbcp" in err and "(cached)" in err
        assert "1 cached" in err


class TestPhaseTimer:
    def test_phase_records_histogram_and_event(self):
        registry = MetricsRegistry()
        observer = ListObserver()
        with phase("replay", observer=observer, registry=registry):
            time.sleep(0.001)
        histogram = registry.histogram("phase.replay")
        assert histogram.count == 1
        assert histogram.values[0] > 0.0
        (event,) = observer.events
        assert event["type"] == "phase" and event["name"] == "replay"
        assert event["duration_s"] == pytest.approx(histogram.values[0])

    def test_phase_records_even_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with phase("replay", registry=registry):
                raise RuntimeError("boom")
        assert registry.histogram("phase.replay").count == 1


# ---------------------------------------------------------------------------
# Session-level eventing
# ---------------------------------------------------------------------------

class TestSessionEvents:
    def test_run_emits_start_phases_end(self):
        observer = ListObserver()
        session = Session(observer=observer)
        session.run("mcf", predictor="stride", num_accesses=2000)
        types = [event["type"] for event in observer.events]
        assert types[0] == "run_start" and types[-1] == "run_end"
        assert types.count("phase") == 3  # trace_acquire, replay, settle
        start = observer.events[0]
        assert start["benchmark"] == "mcf" and start["predictor"] == "stride"
        assert start["key"]  # content key present
        end = observer.events[-1]
        assert end["cache_hit"] is False and end["duration_s"] > 0.0
        assert end["metrics"]["counters"]["run.points_executed"] >= 1

    def test_cached_rerun_emits_cache_hit(self):
        observer = ListObserver()
        session = Session(observer=observer)
        session.run("mcf", predictor="stride", num_accesses=2000)
        observer.events.clear()
        session.run("mcf", predictor="stride", num_accesses=2000)
        types = [event["type"] for event in observer.events]
        assert types == ["run_start", "cache_hit", "run_end"]
        assert observer.events[-1]["cache_hit"] is True

    def test_info_reports_obs_section(self):
        info = Session().info()
        obs = info["obs"]
        assert set(obs) >= {"points_executed", "accesses_replayed",
                            "cache_hit_rate", "trace_store_hit_rate", "phases"}

    def test_info_reports_the_kernel(self, capsys):
        from repro.cache.vector import kernel_cache_dir, load_kernel
        from repro.cli import main

        kernel = Session().info()["kernel"]
        assert kernel["cache_dir"] == kernel_cache_dir()
        if load_kernel() is not None:
            assert kernel["loaded"] is True and kernel["reason"] is None
        else:
            assert kernel["loaded"] is False
            assert kernel["reason"] in ("no-compiler", "kill-switch")
        with kernel_disabled():
            assert Session().info()["kernel"] == {
                "loaded": False, "reason": "kill-switch", "cache_dir": kernel_cache_dir(),
            }
            assert main(["info"]) == 0
            assert "Kernel      : unavailable (kill-switch)" in capsys.readouterr().out

    def test_multicore_run_reports_three_phases(self):
        from repro.multicore import MulticoreSpec

        observer = ListObserver()
        session = Session(observer=observer, use_cache=False)
        spec = MulticoreSpec(benchmarks=("mcf", "art"), predictors=("stride",),
                             num_accesses=2000, seed=42)
        session.run(spec)
        names = sorted(e["name"] for e in observer.events if e["type"] == "phase")
        assert names == ["replay", "settle", "trace_acquire"]

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_multicore_lanes_count_in_replay_tiers(self, engine):
        """Every co-run core counts as one replay on its tier; the legacy oracle's count none.

        Without a kernel each core also counts as one fallback, for the
        reason the kernel is unavailable.
        """
        from repro.cache.vector import load_kernel, unavailable_reason
        from repro.multicore import MulticoreSpec
        from repro.sim.vector_replay import FALLBACK_REASONS

        name = "kernel-dbcp" if load_kernel() is not None else "interpreted"
        tier = REGISTRY.counter(f"replay.tier.{name}")
        fallbacks = [REGISTRY.counter(f"replay.fallback.{reason}") for reason in FALLBACK_REASONS]
        before = (tier.value, [counter.value for counter in fallbacks])
        spec = MulticoreSpec(benchmarks=("mcf", "art", "gzip"), predictors=("dbcp",),
                             num_accesses=1000)
        with legacy_engine() if engine == "legacy" else nullcontext():
            Session(use_cache=False).run(spec)
        cores = 3 if engine == "fast" else 0
        missing = unavailable_reason()
        assert (tier.value, [counter.value for counter in fallbacks]) == (
            before[0] + cores,
            [value + (cores if reason == missing else 0)
             for reason, value in zip(FALLBACK_REASONS, before[1])],
        )

    def test_co_run_replay_event_carries_the_lane_tiers(self):
        from repro.cache.vector import load_kernel
        from repro.multicore import MulticoreSpec

        observer = ListObserver()
        spec = MulticoreSpec(benchmarks=("mcf", "art"), predictors=("ltcords", "none"),
                             num_accesses=2000)
        Session(observer=observer, use_cache=False).run(spec)
        (replay,) = [e for e in observer.events if e["type"] == "phase" and e["name"] == "replay"]
        if load_kernel() is not None:
            assert replay["tier"] == "mixed"
            assert replay["lane_tiers"] == ["kernel-ltcords", "kernel-baseline"]
            assert "fallback" not in replay and "lane_fallbacks" not in replay
        else:
            assert replay["tier"] == "interpreted"
            assert replay["lane_tiers"] == ["interpreted", "interpreted"]
            assert replay["lane_fallbacks"] == [replay["fallback"]] * 2
        assert check_events(observer.events, require_types=("phase",)) == []

    @pytest.mark.parametrize("kind", [
        {"predictor": "ghb"},
        {"sim": "timing", "predictor": "stride"},
        {"sim": "multiprogram", "secondary": "swim", "max_switches": 6},
    ])
    def test_replay_event_carries_the_tier(self, kind):
        from repro.cache.vector import load_kernel

        observer = ListObserver()
        Session(observer=observer, use_cache=False).run("mcf", num_accesses=2000, **kind)
        (replay,) = [e for e in observer.events if e["type"] == "phase" and e["name"] == "replay"]
        predictor = kind.get("predictor", "ltcords")
        if load_kernel() is not None:
            assert replay["tier"] == f"kernel-{predictor}" and "fallback" not in replay
        else:
            assert replay["tier"] == "interpreted"
            assert replay["fallback"] in ("kill-switch", "no-compiler")

    @staticmethod
    def _timing_settle_event():
        observer = ListObserver()
        Session(observer=observer, use_cache=False).run("mcf", num_accesses=2000, sim="timing")
        (settle,) = [e for e in observer.events if e["type"] == "phase" and e["name"] == "settle"]
        assert check_events(observer.events, require_types=("phase",)) == []
        return settle

    def test_timing_settle_event_reports_the_kernel_walk(self):
        from repro.cache.vector import load_kernel

        if load_kernel() is None:
            pytest.skip("needs a C compiler")
        assert self._timing_settle_event()["tier"] == "kernel-timing"

    def test_timing_settle_event_reports_the_interpreted_walk(self):
        from conftest import kernel_disabled

        with kernel_disabled():
            assert self._timing_settle_event()["tier"] == "interpreted"

    @pytest.mark.parametrize("kind", [
        {"sim": "timing", "predictor": "ltcords"},
        {"sim": "multiprogram", "secondary": "swim", "max_switches": 6},
    ])
    def test_timing_and_multiprogram_runs_report_three_phases(self, kind):
        """Timing and pairwise runs split like trace runs, in phase order."""
        observer = ListObserver()
        session = Session(observer=observer, use_cache=False)
        session.run("mcf", num_accesses=2000, **kind)
        names = [e["name"] for e in observer.events if e["type"] == "phase"]
        assert names == ["trace_acquire", "replay", "settle"]


# ---------------------------------------------------------------------------
# Campaign streaming: serial vs pool determinism
# ---------------------------------------------------------------------------

class TestCampaignStreaming:
    def _run(self, tmp_path, jobs: int, tag: str):
        observer = ListObserver()
        runner = CampaignRunner(jobs=jobs, cache=ResultCache(tmp_path / f"cache-{tag}"))
        campaign = runner.run(_points(), name="det", observer=observer)
        return campaign, observer.events

    def test_serial_and_pooled_emit_same_canonical_events(self, tmp_path):
        serial_campaign, serial_events = self._run(tmp_path, jobs=1, tag="serial")
        pooled_campaign, pooled_events = self._run(tmp_path, jobs=2, tag="pooled")

        # Results are bit-identical regardless of path or observation.
        serial_encoded = [json.dumps(r.to_dict(), sort_keys=True) for r in serial_campaign.results]
        pooled_encoded = [json.dumps(r.to_dict(), sort_keys=True) for r in pooled_campaign.results]
        assert serial_encoded == pooled_encoded

        # Identical canonical event multisets (pool completion order may differ).
        def multiset(events):
            return Multiset(
                json.dumps(canonical_event(event), sort_keys=True)
                for event in events
                if event["type"] in ("point_done", "cache_hit")
            )

        assert multiset(serial_events) == multiset(pooled_events)
        for events in (serial_events, pooled_events):
            assert [e["type"] for e in events].count("run_start") == 1
            assert [e["type"] for e in events].count("run_end") == 1

    def test_one_point_done_per_point_with_payload(self, tmp_path):
        campaign, events = self._run(tmp_path, jobs=2, tag="payload")
        done = [event for event in events if event["type"] == "point_done"]
        assert len(done) == len(campaign.points)
        assert sorted(event["index"] for event in done) == list(range(len(campaign.points)))
        for event in done:
            point = campaign.points[event["index"]]
            assert event["key"] == point.key()
            assert event["cache_hit"] is False
            assert event["duration_s"] > 0.0
            assert set(event["phases"]) == {"trace_acquire", "replay", "settle"}
            assert event["tiers"] == {"replay": _tier("kernel-stride")}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_point_done_names_the_tier_of_each_phase(self, tmp_path, jobs):
        observer = ListObserver()
        points = [PointSpec(benchmark=benchmark, predictor="ltcords", sim="timing",
                            num_accesses=2000, seed=42) for benchmark in ("mcf", "art")]
        runner = CampaignRunner(jobs=jobs, cache=ResultCache(tmp_path / "cache"))
        runner.run(points, name="tiers", observer=observer)
        done = [event for event in observer.events if event["type"] == "point_done"]
        assert [event["tiers"] for event in done] == [
            {"replay": _tier("kernel-ltcords"), "settle": _tier("kernel-timing")}
        ] * len(points)
        with kernel_disabled():
            observer.events.clear()
            CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "cache-interpreted")).run(
                points[:1], name="tiers", observer=observer
            )
        done = [event for event in observer.events if event["type"] == "point_done"]
        assert done[0]["tiers"] == {"replay": "interpreted", "settle": "interpreted"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_point_done_says_why_a_point_ran_interpreted(self, tmp_path, monkeypatch, jobs):
        """The kill switch shows as each computed point's replay fallback."""
        # The environment reaches pool workers however they start.
        monkeypatch.setenv("REPRO_NO_VECTOR_KERNEL", "1")
        points = [PointSpec(benchmark=benchmark, predictor="dbcp", num_accesses=1500, seed=42)
                  for benchmark in ("mcf", "art")]
        log = tmp_path / "events.jsonl"
        with kernel_disabled(), JsonlObserver(log) as observer:
            CampaignRunner(jobs=jobs, cache=ResultCache(tmp_path / "cache")).run(
                points, name="fallbacks", observer=observer
            )
        events = read_events(log)
        assert check_events(events) == []
        done = [event for event in events if event["type"] == "point_done"]
        assert [event["fallbacks"] for event in done] == [{"replay": "kill-switch"}] * 2
        summary = summarize_events(events)
        assert summary["points"]["fallbacks"] == {"kill-switch": 2}
        assert "fell back from the kernel: kill-switch=2" in format_summary(summary)

    def test_campaign_run_end_carries_the_metrics_snapshot(self, tmp_path, monkeypatch):
        """A serial campaign's run_end shows the replay tier and fallback counters."""
        monkeypatch.setenv("REPRO_NO_VECTOR_KERNEL", "1")
        points = [PointSpec(benchmark=benchmark, predictor="dbcp", num_accesses=1500, seed=42)
                  for benchmark in ("mcf", "art")]
        fallbacks = REGISTRY.counter("replay.fallback.kill-switch").value
        interpreted = REGISTRY.counter("replay.tier.interpreted").value
        log = tmp_path / "events.jsonl"
        with kernel_disabled(), JsonlObserver(log) as observer:
            CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "cache")).run(
                points, name="metrics", observer=observer
            )
        events = read_events(log)
        assert check_events(events) == []
        (end,) = [event for event in events if event["type"] == "run_end"]
        counters = end["metrics"]["counters"]
        assert counters["replay.fallback.kill-switch"] == fallbacks + 2
        assert counters["replay.tier.interpreted"] == interpreted + 2

    def test_pooled_run_end_counts_the_workers_replays(self, tmp_path):
        """Serial and pooled runs of one campaign report equal replay totals in run_end."""
        points = [PointSpec(benchmark=benchmark, predictor=predictor, num_accesses=1500, seed=42)
                  for benchmark in ("mcf", "art") for predictor in ("dbcp", "none")]

        def replay_counts(jobs):
            observer = ListObserver()
            before = REGISTRY.counter_values()
            CampaignRunner(jobs=jobs, use_cache=False).run(
                points, name="pooled-metrics", observer=observer
            )
            (end,) = [event for event in observer.events if event["type"] == "run_end"]
            return {
                name: value - before.get(name, 0)
                for name, value in end["metrics"]["counters"].items()
                if name.startswith("replay.tier.") or name == "replay.accesses"
            }

        serial = replay_counts(1)
        assert serial["replay.accesses"] == 4 * 1500
        assert sum(v for name, v in serial.items() if name.startswith("replay.tier.")) == 4
        assert replay_counts(2) == serial

    def test_kernel_points_carry_no_fallback(self, tmp_path):
        observer = ListObserver()
        point = PointSpec(benchmark="mcf", predictor="dbcp", num_accesses=1500, seed=42)
        CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "cache")).run(
            [point], name="no-fallbacks", observer=observer
        )
        done = [event for event in observer.events if event["type"] == "point_done"]
        from repro.cache.vector import load_kernel, unavailable_reason

        expected = {} if load_kernel() is not None else {"replay": unavailable_reason()}
        assert done[0]["fallbacks"] == expected

    def test_cached_points_stream_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache-warm")
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(_points(), name="warmup")
        observer = ListObserver()
        campaign = runner.run(_points(), name="warm", observer=observer)
        assert campaign.cached_count == len(campaign.points)
        types = Multiset(event["type"] for event in observer.events)
        assert types["cache_hit"] == len(campaign.points)
        assert types["point_done"] == len(campaign.points)
        assert all(event["cache_hit"] and event["tiers"] == {} for event in observer.events
                   if event["type"] == "point_done")
        assert campaign.point_cached == [True] * len(campaign.points)

    def test_campaign_result_carries_per_point_telemetry(self, tmp_path):
        campaign, _ = self._run(tmp_path, jobs=1, tag="telemetry")
        assert len(campaign.point_durations) == len(campaign.points)
        assert all(duration > 0.0 for duration in campaign.point_durations)
        assert campaign.point_cached == [False] * len(campaign.points)

    def test_artifacts_carry_duration_and_cache_columns(self, tmp_path):
        from repro.campaign.artifacts import ArtifactStore

        campaign, _ = self._run(tmp_path, jobs=1, tag="artifacts")
        store = ArtifactStore(tmp_path / "artifacts")
        summary_path, csv_path = store.write(campaign)
        summary = json.loads(summary_path.read_text())
        assert all("duration_s" in point and "cache_hit" in point
                   for point in summary["points"])
        header = csv_path.read_text().splitlines()[0].split(",")
        assert "duration_s" in header and "cache_hit" in header

    def test_sweep_log_summarises_with_phase_percentiles(self, tmp_path):
        """Acceptance: pooled sweep → JSONL → per-phase p50/p95/p99."""
        log = tmp_path / "events.jsonl"
        with JsonlObserver(log) as observer:
            session = Session(
                jobs=2, cache=ResultCache(tmp_path / "cache-acc"), observer=observer
            )
            session.sweep(_points(), name="acceptance")
        events = read_events(log)
        assert check_events(events) == []
        summary = summarize_events(events)
        assert summary["points"]["count"] == 4
        for name in ("trace_acquire", "replay", "settle"):
            stats = summary["phases"][name]
            assert stats["count"] == 4
            assert stats["p50"] is not None
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
        assert summary["points"]["replay_tiers"] == {_tier("kernel-stride"): 4}
        rendered = format_summary(summary)
        assert "trace_acquire" in rendered and "p95" in rendered
        assert f"computed by replay tier: {_tier('kernel-stride')}=4" in rendered


# ---------------------------------------------------------------------------
# Corrupt cache entries
# ---------------------------------------------------------------------------

class TestCorruptCacheEntries:
    def test_corrupt_entry_counts_and_warns(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = _points(1)[0]
        session = Session(cache=cache)
        result = session.run(point)
        path = cache.path_for(point)
        assert path.is_file()
        path.write_text("{ truncated garbage")

        collected = ListObserver()
        add_global_observer(collected)
        corrupt_before = REGISTRY.counter("cache.corrupt").value
        try:
            assert cache.get(point) is None
        finally:
            remove_global_observer(collected)
        assert cache.corrupt == 1
        assert REGISTRY.counter("cache.corrupt").value == corrupt_before + 1
        # Two warnings now: the corrupt-entry report and the quarantine move.
        corrupt_warnings = [
            event for event in collected.events
            if event["type"] == "warning" and event.get("kind") != "quarantine"
        ]
        (warning,) = corrupt_warnings
        assert str(path) in warning["message"]
        quarantined = [
            event for event in collected.events if event.get("kind") == "quarantine"
        ]
        assert len(quarantined) == 1
        assert not path.exists()  # moved into quarantine/, not left in place

        # The point transparently re-runs and re-caches, bit-identically.
        again = session.run(point)
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_absent_entry_is_plain_miss_not_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(_points(1)[0]) is None
        assert cache.misses == 1 and cache.corrupt == 0


# ---------------------------------------------------------------------------
# Overhead
# ---------------------------------------------------------------------------

class TestOverhead:
    def test_null_observer_within_noise(self):
        """Observation must not change the cost class of a run.

        Min-of-N guards against scheduler noise; the 2x tolerance is
        deliberately generous — the claim is "free", not "fast".
        """
        session_plain = Session(use_cache=False)
        session_observed = Session(use_cache=False, observer=NullObserver())

        def best(session) -> float:
            samples = []
            for _ in range(3):
                started = time.perf_counter()
                session.run("mcf", predictor="dbcp", num_accesses=20_000)
                samples.append(time.perf_counter() - started)
            return min(samples)

        baseline = best(session_plain)
        observed = best(session_observed)
        assert observed < baseline * 2.0, (
            f"NullObserver run took {observed:.4f}s vs {baseline:.4f}s unobserved"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_with_log_json_and_progress(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "run.jsonl"
        assert main(["--log-json", str(log), "--progress",
                     "run", "mcf", "--predictor", "stride", "--accesses", "2000"]) == 0
        captured = capsys.readouterr()
        assert "mcf/stride" in captured.err  # progress went to stderr
        events = read_events(log)
        assert check_events(events) == []
        assert [e["type"] for e in events].count("phase") == 3

    def test_obs_summary_and_check_commands(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "run.jsonl"
        main(["--log-json", str(log), "run", "mcf",
              "--predictor", "stride", "--accesses", "2000"])
        capsys.readouterr()
        assert main(["obs", "summary", str(log)]) == 0
        out = capsys.readouterr().out
        assert "trace_acquire" in out and "p95" in out
        assert main(["obs", "summary", str(log), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["expected_schema"] == OBS_SCHEMA_VERSION
        assert main(["obs", "check", str(log),
                     "--require", "run_start", "phase", "run_end"]) == 0
        capsys.readouterr()

    def test_obs_summary_of_missing_log_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "summary", str(tmp_path / "missing.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_obs_summary_of_empty_log_is_one_error_line(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "empty.jsonl"
        log.write_text("\n", encoding="utf-8")
        assert main(["obs", "summary", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: event log {log} holds no events\n"

    def test_obs_check_fails_on_incomplete_log(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "partial.jsonl"
        with JsonlObserver(log) as observer:
            observer.emit(make_event("run_start"))
        assert main(["obs", "check", str(log)]) == 1
        assert "run_end" in capsys.readouterr().err

    def test_sweep_with_log_json_streams_points(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "sweep.jsonl"
        assert main(["--log-json", str(log), "sweep", "--benchmarks", "mcf", "art",
                     "--predictors", "stride", "--num-accesses", "2000"]) == 0
        capsys.readouterr()
        events = read_events(log)
        done = [e for e in events if e["type"] == "point_done"]
        assert len(done) == 2
        assert all(e["key"] and "duration_s" in e for e in done)

    def test_info_obs_flag(self, capsys):
        from repro.cli import main

        assert main(["info", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "Observability (this process):" in out
        assert "points executed" in out

    def test_profile_flag_prints_phase_split(self, capsys):
        from repro.cli import main

        assert main(["--profile", "run", "mcf",
                     "--predictor", "stride", "--accesses", "2000"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err and "replay" in err


# ---------------------------------------------------------------------------
# Bench percentiles
# ---------------------------------------------------------------------------

class TestBenchPercentiles:
    def test_bench_result_reports_percentiles(self):
        from repro.bench.harness import BenchResult

        result = BenchResult("scenario", 1.0, 100, 5, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert result.percentiles()["p50"] == 3.0
        encoded = result.to_dict()
        assert encoded["percentiles"]["p50"] == 3.0
        assert encoded["wall_seconds"] == 1.0  # min-of-N headline unchanged

    def test_gate_ignores_percentiles(self):
        """compare_reports consumes only ops_per_sec — spread is report-only."""
        from repro.bench.report import compare_reports

        def report(ops):
            return {
                "scale": 1.0,
                "name": "quick",
                "results": {
                    "calibrate": {"ops_per_sec": 100.0},
                    "s": {"ops_per_sec": ops, "percentiles": {"p50": 1.0}},
                },
            }

        outcome = compare_reports(report(100.0), report(100.0))
        assert outcome.ok

    def test_results_table_shows_spread(self):
        from repro.bench.harness import BenchResult
        from repro.bench.report import format_results_table

        table = format_results_table(
            {"s": BenchResult("s", 1.0, 100, 3, [1.0, 1.5, 2.0])}, {}
        )
        assert "p50" in table and "1.500" in table
