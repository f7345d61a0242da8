"""Tests for the top-level convenience API."""

import pytest
from oracle import LegacySimulator

import repro
from repro.core.ltcords import LTCordsPrefetcher
from repro.prefetchers.dbcp import DBCPPrefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator


class TestRegistries:
    def test_benchmarks_listed(self):
        names = repro.available_benchmarks()
        assert len(names) == 28
        assert "mcf" in names

    def test_predictors_listed(self):
        predictors = repro.available_predictors()
        for name in ("ltcords", "dbcp", "dbcp-unlimited", "ghb", "stride", "none"):
            assert name in predictors


class TestBuilders:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ltcords", LTCordsPrefetcher),
            ("dbcp", DBCPPrefetcher),
            ("dbcp-unlimited", DBCPPrefetcher),
            ("ghb", GHBPrefetcher),
            ("stride", StridePrefetcher),
            ("none", NullPrefetcher),
        ],
    )
    def test_build_predictor(self, name, cls):
        """Each name builds its one predictor class."""
        assert type(repro.build_predictor(name)) is cls

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ltcords", LTCordsPrefetcher),
            ("dbcp", DBCPPrefetcher),
            ("dbcp-unlimited", DBCPPrefetcher),
            ("ghb", GHBPrefetcher),
            ("stride", StridePrefetcher),
            ("none", NullPrefetcher),
        ],
    )
    def test_build_predictor_legacy(self, name, cls):
        """The legacy oracle runs the same class: it differs only in its loop and caches."""
        trace = repro.build_workload("gzip", num_accesses=500).generate()
        results = []
        for simulator in (LegacySimulator, TraceDrivenSimulator):
            sim = simulator(prefetcher=repro.build_predictor(name))
            assert type(sim.prefetcher) is cls
            results.append(sim.run(trace).to_dict())
        assert results[0] == results[1]

    def test_unknown_predictor_rejected(self):
        with pytest.raises(KeyError):
            repro.build_predictor("markov")

    def test_unknown_engine_rejected(self):
        """There is one engine: ``engine=`` is not an argument any more."""
        with pytest.raises(TypeError, match="engine"):
            repro.quick_simulation("gzip", "dbcp", max_accesses=100, engine="legacy")

    def test_build_workload(self):
        workload = repro.build_workload("swim", num_accesses=1000)
        assert workload.name == "swim"
        assert len(workload.generate()) == 1000

    def test_dbcp_unlimited_has_no_capacity(self):
        predictor = repro.build_predictor("dbcp-unlimited")
        assert predictor.config.is_unlimited


class TestQuickSimulation:
    def test_quick_simulation_returns_result(self):
        result = repro.quick_simulation("gzip", "ghb", max_accesses=4000)
        assert result.benchmark == "gzip"
        assert result.predictor == "ghb"
        assert 0.0 <= result.coverage <= 1.0

    def test_version_exposed(self):
        assert repro.__version__
