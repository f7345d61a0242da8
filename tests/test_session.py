"""Tests for the RunSpec/Session facade (repro.run)."""

from __future__ import annotations


import pytest

import repro
from repro.campaign.spec import DEFAULT_NUM_ACCESSES, PointSpec, PredictorVariant, SweepSpec
from repro.prefetchers.ghb import GHBPrefetcher
from repro.run import RunSpec, Session, execute_spec
from repro.sim.multiprogram import simulate_pair
from repro.sim.timing import simulate_speedup

ACCESSES = 4000


class TestRunSpec:
    def test_alias_of_point_spec(self):
        """RunSpec and PointSpec are one type: one serialisation, one cache key."""
        assert RunSpec is PointSpec
        spec = RunSpec(benchmark="gzip", predictor="ghb", num_accesses=ACCESSES)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_default_num_accesses_single_sourced(self):
        from repro.experiments import common

        assert common.DEFAULT_NUM_ACCESSES == DEFAULT_NUM_ACCESSES


class TestSessionRun:
    def test_matches_quick_simulation_bit_identical(self):
        direct = repro.quick_simulation("swim", "ghb", max_accesses=ACCESSES)
        via_session = Session().run("swim", predictor="ghb", num_accesses=ACCESSES)
        assert via_session.to_dict() == direct.to_dict()

    def test_accepts_spec_and_keyword_forms(self):
        spec = RunSpec(benchmark="gzip", predictor="stride", num_accesses=ACCESSES)
        a = Session().run(spec)
        b = Session().run("gzip", predictor="stride", num_accesses=ACCESSES)
        assert a.to_dict() == b.to_dict()

    def test_run_caches_results(self):
        session = Session()
        session.run("gzip", predictor="ghb", num_accesses=ACCESSES)
        assert session.cache.entry_count() == 1
        # A fresh session (same cache dir) is served from disk.
        other = Session()
        other.run("gzip", predictor="ghb", num_accesses=ACCESSES)
        assert other.cache.hits == 1

    def test_no_cache_session_touches_no_disk(self):
        session = Session(use_cache=False)
        session.run("gzip", predictor="ghb", num_accesses=ACCESSES)
        assert session.cache.entry_count() == 0

    def test_prefetcher_override_bypasses_cache(self):
        session = Session()
        result = session.run(
            "swim", predictor="ghb", num_accesses=ACCESSES, prefetcher=GHBPrefetcher()
        )
        assert result.predictor == "ghb"
        assert session.cache.entry_count() == 0

    def test_timing_and_multiprogram_kinds(self):
        session = Session()
        timing = session.run("gzip", sim="timing", predictor="none", num_accesses=ACCESSES)
        assert timing.ipc > 0
        pair = session.run(
            "gzip", sim="multiprogram", secondary="swim",
            num_accesses=ACCESSES, max_switches=5,
        )
        assert pair.primary == "gzip" and pair.secondary == "swim"
        assert session.cache.entry_count() == 2

    def test_unknown_predictor_raises_with_available_names(self):
        with pytest.raises(KeyError, match="available"):
            Session().run("gzip", predictor="markov", num_accesses=ACCESSES)


class TestSessionSweep:
    def test_sweep_matches_run_campaign(self):
        spec = SweepSpec(
            name="session-sweep",
            benchmarks=["gzip", "swim"],
            variants=[PredictorVariant("ghb")],
            num_accesses=[ACCESSES],
        )
        campaign = Session().sweep(spec)
        assert campaign.name == "session-sweep"
        reference = repro.run_campaign(spec)
        assert [r.to_dict() for r in campaign.results] == [r.to_dict() for r in reference.results]

    def test_single_runs_and_sweeps_share_the_cache(self):
        session = Session()
        single = session.run("gzip", predictor="ghb", num_accesses=ACCESSES)
        campaign = session.sweep(
            [RunSpec(benchmark="gzip", predictor="ghb", num_accesses=ACCESSES)]
        )
        assert campaign.cached_count == 1
        assert campaign.results[0].to_dict() == single.to_dict()

    def test_compare_keys_results_by_predictor(self):
        table = Session().compare("swim", ["ghb", "stride"], num_accesses=ACCESSES)
        assert sorted(table) == ["ghb", "stride"]
        assert table["ghb"].predictor == "ghb"
        assert table["stride"].predictor == "stride"

    def test_adopts_explicit_runner(self):
        from repro.campaign.runner import CampaignRunner

        runner = CampaignRunner(jobs=1, use_cache=False)
        session = Session(runner=runner)
        assert session.runner is runner
        assert session.use_cache is False

    def test_sweep_threads_session_trace_store(self, tmp_path):
        from repro.trace.store import TraceStore

        store = TraceStore(tmp_path / "custom_traces")
        session = Session(trace_store=store)
        session.sweep([RunSpec(benchmark="gzip", predictor="ghb", num_accesses=ACCESSES)])
        assert len(store.entries()) == 1
        assert store.entries()[0].benchmark == "gzip"


class TestShims:
    """The classic helpers stay bit-identical to the pre-facade implementations."""

    def test_simulate_speedup_routes_through_facade(self):
        baseline = simulate_speedup("gzip", num_accesses=ACCESSES)
        spec = RunSpec(benchmark="gzip", predictor="none", sim="timing", num_accesses=ACCESSES)
        assert execute_spec(spec).to_dict() == baseline.to_dict()

    def test_simulate_pair_routes_through_facade(self):
        direct = simulate_pair("gzip", "swim", num_accesses=ACCESSES, max_switches=5)
        spec = RunSpec(
            benchmark="gzip", secondary="swim", sim="multiprogram",
            num_accesses=ACCESSES, max_switches=5,
        )
        assert execute_spec(spec).to_dict() == direct.to_dict()

    def test_execute_point_delegates_to_execute_spec(self):
        from repro.campaign.runner import execute_point

        spec = RunSpec(benchmark="gzip", predictor="ghb", num_accesses=ACCESSES)
        assert execute_point(spec).to_dict() == execute_spec(spec).to_dict()


class TestSessionInfo:
    def test_info_snapshot(self):
        info = Session().info()
        assert info["version"] == repro.__version__
        assert "ltcords" in info["predictors"]
        assert sum(len(v) for v in info["benchmarks"].values()) >= 28
        assert info["cache"]["entries"] == 0
        assert info["trace_store"]["entries"] == 0
