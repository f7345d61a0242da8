"""Tests for the campaign subsystem: specs, cache, runner, artifacts, CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignRunner,
    PointSpec,
    PredictorVariant,
    ResultCache,
    SweepSpec,
    decode_config,
    encode_config,
    run_campaign,
)
from repro.campaign.runner import default_jobs, execute_point
from repro.cache.config import L2_4MB_CONFIG
from repro.cache.hierarchy import HierarchyConfig
from repro.core.ltcords import LTCordsConfig
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.prefetchers.dbcp import DBCPConfig
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.timing import TimingResult
from repro.sim.trace_driven import SimulationResult, simulate_benchmark

ACCESSES = 4000


class TestConfigCodec:
    def test_round_trips_nested_predictor_config(self):
        config = LTCordsConfig(
            signature_cache_config=SignatureCacheConfig(num_entries=256, associativity=4),
            storage_config=SequenceStorageConfig(num_frames=8, fragment_size=128),
            confidence_threshold=1,
        )
        assert decode_config(encode_config(config)) == config

    def test_round_trips_hierarchy_and_none(self):
        hierarchy = HierarchyConfig(l2=L2_4MB_CONFIG)
        assert decode_config(encode_config(hierarchy)) == hierarchy
        assert encode_config(None) is None
        assert decode_config(None) is None

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            encode_config(object())


class TestPointSpec:
    def test_round_trip_and_stable_key(self):
        point = PointSpec(
            benchmark="mcf",
            predictor="dbcp",
            predictor_config=DBCPConfig(table_entries=512),
            num_accesses=ACCESSES,
            label="x",
        )
        clone = PointSpec.from_dict(point.to_dict(), label="y")
        assert clone.predictor_config == point.predictor_config
        # The label is bookkeeping only: it must not change the cache key.
        assert clone.key() == point.key()

    def test_key_depends_on_spec(self):
        a = PointSpec(benchmark="mcf", num_accesses=ACCESSES)
        b = PointSpec(benchmark="mcf", num_accesses=ACCESSES, seed=43)
        assert a.key() != b.key()

    def test_key_folds_trace_format_version(self, monkeypatch):
        """A trace-store format bump must invalidate every cached result."""
        import repro.campaign.spec as spec_module

        point = PointSpec(benchmark="mcf", num_accesses=ACCESSES)
        before = point.key()
        monkeypatch.setattr(
            spec_module, "TRACE_FORMAT_VERSION", spec_module.TRACE_FORMAT_VERSION + 1
        )
        assert point.key() != before

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSpec(benchmark="mcf", sim="bogus")
        with pytest.raises(ValueError):
            PointSpec(benchmark="mcf", sim="multiprogram")  # no secondary
        with pytest.raises(ValueError):
            PointSpec(benchmark="mcf", num_accesses=0)


class TestSweepSpec:
    def test_grid_enumeration_order(self):
        spec = SweepSpec(
            name="grid",
            benchmarks=["a", "b"],
            variants=[PredictorVariant("ltcords"), PredictorVariant("ghb")],
            num_accesses=[100, 200],
            seeds=[1],
        )
        points = spec.points()
        assert len(points) == len(spec) == 8
        assert [(p.benchmark, p.predictor, p.num_accesses) for p in points[:4]] == [
            ("a", "ltcords", 100), ("a", "ltcords", 200), ("a", "ghb", 100), ("a", "ghb", 200),
        ]

    def test_extra_points_appended(self):
        extra = PointSpec(benchmark="mcf", secondary="gcc", sim="multiprogram")
        spec = SweepSpec(name="pairs", extra_points=[extra])
        assert spec.points() == [extra]


class TestResultSerialization:
    def test_simulation_result_lossless(self):
        result = simulate_benchmark("gzip", num_accesses=ACCESSES)
        clone = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result

    def test_timing_result_lossless(self):
        point = PointSpec(benchmark="gzip", predictor="none", sim="timing", num_accesses=ACCESSES)
        result = execute_point(point)
        clone = TimingResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.ipc == result.ipc
        assert clone.l1_miss_rate == result.l1_miss_rate

    def test_multiprogram_result_lossless(self):
        point = PointSpec(
            benchmark="gzip", secondary="mcf", sim="multiprogram",
            num_accesses=2000, quantum_instructions=1000, max_switches=4,
        )
        result = execute_point(point)
        clone = MultiProgramResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = PointSpec(benchmark="gzip", num_accesses=ACCESSES)
        assert cache.get(point) is None
        result = execute_point(point)
        path = cache.put(point, result)
        assert path.is_file()
        assert cache.get(point) == result
        assert cache.entry_count() == 1
        assert cache.size_bytes() > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = PointSpec(benchmark="gzip", num_accesses=ACCESSES)
        cache.put(point, execute_point(point))
        cache.path_for(point).write_text("not json")
        assert cache.get(point) is None

    def test_structurally_stale_entry_is_a_miss(self, tmp_path):
        """Valid JSON whose result shape no longer matches must not crash."""
        cache = ResultCache(tmp_path / "cache")
        point = PointSpec(benchmark="gzip", num_accesses=ACCESSES)
        cache.put(point, execute_point(point))
        path = cache.path_for(point)
        envelope = json.loads(path.read_text())
        del envelope["result"]["breakdown"]
        path.write_text(json.dumps(envelope))
        assert cache.get(point) is None
        envelope.pop("result")
        path.write_text(json.dumps(envelope))
        assert cache.get(point) is None

    def test_clean_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = PointSpec(benchmark="gzip", num_accesses=ACCESSES)
        cache.put(point, execute_point(point))
        assert cache.clean() == 1
        assert cache.entry_count() == 0


def _small_spec(name="small"):
    return SweepSpec(
        name=name,
        benchmarks=["gzip", "mcf"],
        variants=[PredictorVariant("ltcords"), PredictorVariant("stride")],
        num_accesses=[ACCESSES],
    )


class TestCampaignRunner:
    def test_serial_run_and_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(jobs=1, cache=cache).run(_small_spec())
        assert first.computed_count == 4 and first.cached_count == 0
        second = CampaignRunner(jobs=1, cache=cache).run(_small_spec())
        assert second.computed_count == 0 and second.cached_count == 4
        for a, b in zip(first.results, second.results):
            assert a.to_dict() == b.to_dict()

    def test_parallel_matches_serial_determinism(self, tmp_path):
        """Regression: the result cache is only sound if a point's serialized
        result is identical whether it ran in-process or in a pool worker."""
        spec = _small_spec()
        serial = CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "a")).run(spec)
        parallel = CampaignRunner(jobs=2, cache=ResultCache(tmp_path / "b")).run(spec)
        assert parallel.jobs == 2
        for point, s_result, p_result in zip(serial.points, serial.results, parallel.results):
            s_json = json.dumps(s_result.to_dict(), sort_keys=True)
            p_json = json.dumps(p_result.to_dict(), sort_keys=True)
            assert s_json == p_json, f"serial/pool divergence at {point.benchmark}/{point.predictor}"

    def test_each_point_is_hashed_once_per_run(self, tmp_path, monkeypatch):
        hashed = []
        key = PointSpec.key
        monkeypatch.setattr(PointSpec, "key", lambda point: hashed.append(point) or key(point))
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(jobs=1, cache=cache).run(_small_spec())  # computed and stored
        CampaignRunner(jobs=1, cache=cache).run(_small_spec())  # served from the cache
        assert len(hashed) == 8

    def test_find_and_one(self, tmp_path):
        campaign = CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "c")).run(_small_spec())
        assert len(campaign.find(benchmark="gzip")) == 2
        assert campaign.one(benchmark="gzip", label="ltcords").predictor == "ltcords"
        with pytest.raises(LookupError):
            campaign.one(benchmark="gzip")

    def test_use_cache_false_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(jobs=1, cache=cache, use_cache=False)
        runner.run(_small_spec())
        assert cache.entry_count() == 0

    def test_run_campaign_accepts_point_list(self):
        points = [PointSpec(benchmark="gzip", num_accesses=ACCESSES)]
        campaign = run_campaign(points, jobs=1, use_cache=False)
        assert campaign.name == "adhoc"
        assert len(campaign) == 1

    def test_default_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7
        monkeypatch.setenv("REPRO_JOBS", "oops")
        with pytest.raises(ValueError):
            default_jobs()


class TestArtifactStore:
    def test_write_and_clean(self, tmp_path):
        campaign = CampaignRunner(jobs=1, cache=ResultCache(tmp_path / "c")).run(_small_spec("art"))
        store = ArtifactStore(tmp_path / "artifacts")
        summary_path, csv_path = store.write(campaign)
        summary = json.loads(summary_path.read_text())
        assert summary["num_points"] == 4
        assert len(summary["points"]) == 4
        header = csv_path.read_text().splitlines()[0]
        assert "benchmark" in header and "coverage" in header
        assert campaign.artifact_paths == [str(summary_path), str(csv_path)]
        assert store.clean() == 2


class TestTable3Guard:
    def test_explicit_baseline_rejected(self):
        from repro.experiments import table3_speedup

        with pytest.raises(ValueError, match="implicit"):
            table3_speedup.sweep(benchmarks=["gzip"], configurations=("baseline", "ltcords"))


class TestCrossSessionDeterminism:
    def test_workload_rng_is_process_stable(self):
        """The per-benchmark RNG seed must not depend on PYTHONHASHSEED."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "from repro.sim.trace_driven import simulate_benchmark;"
            "import json;"
            f"r = simulate_benchmark('gzip', num_accesses={ACCESSES});"
            "print(json.dumps(r.to_dict(), sort_keys=True))"
        )
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="1")
        first = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        env["PYTHONHASHSEED"] = "2"
        second = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
