"""Tests for the repro.multicore shared-hierarchy co-run simulator."""

import json

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, SharedL2
from repro.cli import main
from repro.multicore import (
    MulticoreResult,
    MulticoreSimulator,
    MulticoreSpec,
    expand_core_benchmarks,
    schedule_chunks,
    simulate_multicore,
)
from repro.registry import build_predictor
from repro.run import Session


class TestScheduleChunks:
    def test_round_robin_alternates_in_quanta(self):
        chunks = schedule_chunks([range(10), range(10)], "rr", quantum_accesses=4)
        assert chunks == [(0, 0, 4), (1, 0, 4), (0, 4, 8), (1, 4, 8), (0, 8, 10), (1, 8, 10)]

    def test_round_robin_unequal_lengths_cover_everything(self):
        chunks = schedule_chunks([range(3), range(9)], "rr", quantum_accesses=4)
        for core, length in ((0, 3), (1, 9)):
            covered = [(start, stop) for c, start, stop in chunks if c == core]
            assert covered[0][0] == 0 and covered[-1][1] == length
            for (_, stop), (start, _) in zip(covered, covered[1:]):
                assert stop == start

    def test_icount_merge_orders_by_instruction_count(self):
        # Core 0 has icounts 0,2,4,...; core 1 has 1,3,5,...: perfect zip.
        chunks = schedule_chunks([[0, 2, 4], [1, 3, 5]], "icount")
        assert chunks == [(0, 0, 1), (1, 0, 1), (0, 1, 2), (1, 1, 2), (0, 2, 3), (1, 2, 3)]

    def test_single_core_is_sequential_for_both_policies(self):
        assert schedule_chunks([range(5)], "icount") == [(0, 0, 5)]
        rr = schedule_chunks([range(5)], "rr", quantum_accesses=2)
        assert rr == [(0, 0, 2), (0, 2, 4), (0, 4, 5)]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="interleave"):
            schedule_chunks([range(3)], "lottery")

    def test_zero_quantum_rejected(self):
        with pytest.raises(ValueError, match="quantum"):
            schedule_chunks([[1, 2, 3]], "rr", 0)


class TestMulticoreSpec:
    def test_round_trips_through_json(self):
        spec = MulticoreSpec(
            benchmarks=("mcf", "art"), predictors=("dbcp", "ghb"),
            num_accesses=5000, seed=7, interleave="icount", engine="legacy",
        )
        decoded = MulticoreSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert decoded.to_dict() == spec.to_dict()
        assert decoded.key() == spec.key()

    def test_key_changes_with_interleave_and_benchmarks(self):
        base = MulticoreSpec(benchmarks=("mcf", "art"))
        assert base.key() != MulticoreSpec(benchmarks=("mcf", "art"), interleave="icount").key()
        assert base.key() != MulticoreSpec(benchmarks=("art", "mcf")).key()

    def test_label_excluded_from_key(self):
        assert (
            MulticoreSpec(benchmarks=("mcf",), label="a").key()
            == MulticoreSpec(benchmarks=("mcf",), label="b").key()
        )

    def test_predictor_broadcast(self):
        spec = MulticoreSpec(benchmarks=("mcf", "art", "swim"), predictors=("ghb",))
        assert spec.core_predictors == ("ghb", "ghb", "ghb")
        assert spec.core_predictor_configs == (None, None, None)

    def test_mismatched_predictors_rejected(self):
        with pytest.raises(ValueError, match="predictors"):
            MulticoreSpec(benchmarks=("mcf", "art", "swim"), predictors=("ghb", "dbcp"))

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="benchmark"):
            MulticoreSpec(benchmarks=())

    def test_expand_core_benchmarks_cycles(self):
        assert expand_core_benchmarks(["mcf"], 2) == ("mcf", "mcf")
        assert expand_core_benchmarks(["mcf", "art"], 4) == ("mcf", "art", "mcf", "art")
        assert expand_core_benchmarks(["mcf", "art"], 1) == ("mcf", "art")


class TestSharedL2Hierarchy:
    """Per-core hierarchies over one SharedL2 (the co-run substrate)."""

    @staticmethod
    def _hierarchies(num_cores, engine="fast"):
        config = HierarchyConfig()
        shared = SharedL2(config.l2, engine, num_cores)
        return shared, [
            CacheHierarchy(config, engine, shared_l2=shared, core=core)
            for core in range(num_cores)
        ]

    def test_one_core_matches_private_hierarchy(self):
        _, (shared,) = self._hierarchies(1)
        private = CacheHierarchy(HierarchyConfig())
        addresses = [0x1000 * i for i in range(64)] * 3
        for address in addresses:
            assert shared.access(address).level is private.access(address).level
        assert shared.stats == private.stats

    def test_cores_share_the_l2(self):
        for engine in ("fast", "legacy"):
            _, (core0, core1) = self._hierarchies(2, engine)
            core0.access(0x4000)   # core 0 misses to memory, fills L2
            core1.access(0x4000)   # core 1 misses L1 but hits shared L2
            assert core0.stats.l2_misses == 1
            assert core1.stats.l2_hits == 1

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_prefetch_cross_core_evictions_are_attributed(self, engine):
        # Core 0's prefetches overfill one L2 set, evicting only its own
        # block; core 1's prefetch into the set then displaces one of core 0's.
        shared, (core0, core1) = self._hierarchies(2, engine)
        l2 = HierarchyConfig().l2
        stride = l2.num_sets * l2.block_size
        for way in range(l2.associativity + 1):
            core0.prefetch_into_l1(way * stride)
        assert shared.cross_core_evictions == 0
        core1.prefetch_into_l1((l2.associativity + 1) * stride)
        assert (shared.cross_core_evictions, shared.prefetch_cross_core_evictions) == (1, [0, 1])
        assert shared.owners[(l2.associativity + 1) * stride] == 1


class TestMulticoreSimulator:
    def test_heterogeneous_predictor_mix(self):
        spec = MulticoreSpec(
            benchmarks=("mcf", "swim"), predictors=("dbcp", "stride"), num_accesses=3000
        )
        result = simulate_multicore(spec)
        assert result.predictors == ["dbcp", "stride"]
        assert result.per_core[0].num_accesses == 3000
        assert result.num_accesses == 6000

    def test_cross_core_evictions_appear_under_contention(self):
        spec = MulticoreSpec(benchmarks=("mcf", "art"), predictors=("ltcords",),
                             num_accesses=20_000)
        result = simulate_multicore(spec)
        assert result.cross_core_evictions > 0
        assert result.shared_l2_accesses == result.shared_l2_hits + result.shared_l2_misses
        assert 0.0 <= result.shared_l2_miss_rate <= 1.0
        assert len(result.prefetch_cross_core_evictions) == 2

    def test_result_round_trips_through_json(self):
        spec = MulticoreSpec(benchmarks=("gzip", "crafty"), predictors=("ghb",),
                             num_accesses=4000)
        result = simulate_multicore(spec)
        decoded = MulticoreResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert decoded.to_dict() == result.to_dict()
        assert decoded.coverage == result.coverage
        assert decoded.bus_occupancy() == result.bus_occupancy()

    @pytest.mark.parametrize("schedule", [
        {"quantum_accesses": 0}, {"quantum_accesses": -1}, {"interleave": "lottery"},
    ])
    def test_bad_schedule_rejected_at_construction(self, schedule):
        with pytest.raises(ValueError, match="quantum|interleave"):
            MulticoreSimulator([build_predictor("none")], **schedule)

    def test_trace_count_must_match_cores(self):
        simulator = MulticoreSimulator([build_predictor("none"), build_predictor("none")])
        with pytest.raises(ValueError, match="traces"):
            simulator.run([])

    def test_interleave_policies_replay_every_reference(self):
        for interleave in ("rr", "icount"):
            spec = MulticoreSpec(benchmarks=("mcf", "gzip"), predictors=("none",),
                                 num_accesses=4000, interleave=interleave)
            result = simulate_multicore(spec)
            assert [core.num_accesses for core in result.per_core] == [4000, 4000]


class TestEngineAgreement:
    """Fast and legacy multicore engines are bit-identical."""

    @pytest.mark.parametrize("interleave", ["rr", "icount"])
    def test_two_core_pair_agrees(self, interleave):
        encoded = {}
        for engine in ("fast", "legacy"):
            spec = MulticoreSpec(
                benchmarks=("mcf", "art"), predictors=("dbcp",),
                num_accesses=4000, engine=engine, interleave=interleave,
            )
            encoded[engine] = simulate_multicore(spec).to_dict()
        assert encoded["fast"] == encoded["legacy"]

    def test_quick_matrix_all_benchmarks(self):
        # The 28-benchmark quick matrix: every benchmark co-runs with mcf,
        # rotating through the four real predictors; fast and legacy must
        # agree bit-identically on the full result dict.
        from repro.workloads.registry import BENCHMARK_NAMES

        predictors = ("ltcords", "dbcp", "ghb", "stride")
        for index, benchmark in enumerate(BENCHMARK_NAMES):
            encoded = {}
            for engine in ("fast", "legacy"):
                spec = MulticoreSpec(
                    benchmarks=(benchmark, "mcf"),
                    predictors=(predictors[index % len(predictors)],),
                    num_accesses=2000,
                    engine=engine,
                )
                encoded[engine] = simulate_multicore(spec).to_dict()
            assert encoded["fast"] == encoded["legacy"], benchmark


class TestSessionIntegration:
    def test_session_run_caches_multicore_specs(self):
        spec = MulticoreSpec(benchmarks=("gzip", "swim"), predictors=("stride",),
                             num_accesses=3000)
        session = Session()
        first = session.run(spec)
        assert session.cache.hits == 0
        second = session.run(spec)
        assert session.cache.hits == 1
        assert second.to_dict() == first.to_dict()

    def test_session_overrides_build_new_spec(self):
        session = Session(use_cache=False)
        spec = MulticoreSpec(benchmarks=("gzip",), num_accesses=2000)
        result = session.run(spec, num_accesses=1000)
        assert result.per_core[0].num_accesses == 1000

    def test_cached_multicore_sweep_rerun_hits_cache(self):
        points = [
            MulticoreSpec(benchmarks=("gzip", "crafty"), predictors=(predictor,),
                          num_accesses=2500)
            for predictor in ("none", "stride")
        ]
        session = Session(jobs=1)
        first = session.sweep(points)
        assert (first.cached_count, first.computed_count) == (0, 2)
        second = session.sweep(points)
        assert (second.cached_count, second.computed_count) == (2, 0)
        assert [a.to_dict() for a in first.results] == [b.to_dict() for b in second.results]

    def test_session_engine_applies_to_multicore_sweep_points(self):
        from repro.campaign.spec import SweepSpec

        spec = SweepSpec(name="legacy-corun", extra_points=[
            MulticoreSpec(benchmarks=("gzip", "swim"), predictors=("none",),
                          num_accesses=1500)
        ])
        campaign = Session(engine="legacy", jobs=1, use_cache=False).sweep(spec)
        assert campaign.points[0].engine == "legacy"

    def test_pool_and_serial_sweeps_agree(self):
        points = [
            MulticoreSpec(benchmarks=("gzip", "mcf"), predictors=("dbcp",), num_accesses=2000),
            MulticoreSpec(benchmarks=("swim", "mcf"), predictors=("ghb",), num_accesses=2000),
        ]
        serial = Session(jobs=1, use_cache=False).sweep(points)
        pooled = Session(jobs=2, use_cache=False).sweep(points)
        assert pooled.jobs == 2
        assert [a.to_dict() for a in serial.results] == [b.to_dict() for b in pooled.results]


class TestMulticoreCLI:
    def test_run_with_cores_flag(self, capsys):
        assert main(["run", "mcf,art", "--cores", "2", "--predictor", "dbcp",
                     "--accesses", "3000"]) == 0
        out = capsys.readouterr().out
        assert "cores" in out and "shared L2" in out and "cross-core evictions" in out
        assert "core0 mcf/dbcp" in out and "core1 art/dbcp" in out

    def test_run_comma_benchmarks_implies_multicore(self, capsys):
        assert main(["run", "gzip,swim", "--accesses", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmarks"] == ["gzip", "swim"]
        assert len(payload["per_core"]) == 2

    def test_run_heterogeneous_predictors(self, capsys):
        assert main(["run", "mcf,art", "--predictor", "dbcp,ghb",
                     "--accesses", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [core["predictor"] for core in payload["per_core"]] == ["dbcp", "ghb"]

    def test_run_rejects_unknown_benchmark_in_group(self, capsys):
        assert main(["run", "mcf,nope", "--cores", "2"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_rejects_cores_with_timing_sim(self, capsys):
        assert main(["run", "mcf", "--cores", "2", "--sim", "timing"]) == 2
        assert "trace-driven" in capsys.readouterr().err

    def test_run_rejects_foreign_flags_instead_of_ignoring_them(self, capsys):
        assert main(["run", "mcf,art", "--cores", "2", "--perfect-l1"]) == 2
        assert "--perfect-l1" in capsys.readouterr().err
        assert main(["run", "mcf,art", "--secondary", "swim"]) == 2
        assert "--secondary" in capsys.readouterr().err
        assert main(["run", "mcf,art", "--max-switches", "5"]) == 2
        assert "--interleave" in capsys.readouterr().err
        # ...and symmetrically: multicore-only flags on a single-core run.
        assert main(["run", "mcf", "--interleave", "icount"]) == 2
        assert "--cores" in capsys.readouterr().err

    def test_run_rejects_cores_smaller_than_benchmark_list(self, capsys):
        assert main(["run", "mcf,art", "--cores", "1"]) == 2
        assert "smaller" in capsys.readouterr().err
        assert main(["sweep", "--benchmarks", "mcf,art", "--cores", "1",
                     "--predictors", "none"]) == 2
        assert "smaller" in capsys.readouterr().err

    def test_sweep_with_cores(self, capsys):
        assert main(["sweep", "--benchmarks", "gzip", "crafty", "--cores", "2",
                     "--predictors", "none", "--num-accesses", "2000",
                     "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "gzip+gzip" in out and "crafty+crafty" in out

    def test_sweep_with_cores_names_its_artifacts(self, capsys, tmp_path, monkeypatch):
        # Artifacts must not collapse onto the shared "adhoc" directory:
        # distinct multicore sweeps get distinct campaign names.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["sweep", "--benchmarks", "gzip", "--cores", "2",
                     "--predictors", "none", "--num-accesses", "1500"]) == 0
        out = capsys.readouterr().out
        assert "artifacts/adhoc-2x-none/" in out
