"""Tests for the public plugin registries (repro.registry)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest

import repro
from repro.campaign import PointSpec, run_campaign
from repro.core.interface import AccessOutcome, PrefetchCommand, Prefetcher
from repro.registry import (
    CONFIG_CLASSES,
    build_predictor,
    predictor_entry,
    predictor_names,
    register_config_class,
    register_predictor,
    register_workload,
    unregister_predictor,
    unregister_workload,
    workload_entry,
    workload_names,
)
from repro.workloads.base import WorkloadMetadata
from repro.workloads.spec_like import StridedLoopWorkload


@dataclass(frozen=True)
class NextBlockConfig:
    """Config for the test predictor (must round-trip through campaigns)."""

    lookahead: int = 1


class NextBlockPrefetcher(Prefetcher):
    """Trivial third-party predictor: prefetch the next sequential block on a miss."""

    name = "next-block"

    def __init__(self, config: NextBlockConfig) -> None:
        super().__init__()
        self.config = config

    def on_access(self, outcome: AccessOutcome) -> List[PrefetchCommand]:
        self.stats.accesses_observed += 1
        if outcome.l1_hit:
            return []
        self.stats.misses_observed += 1
        self.stats.predictions_issued += 1
        return [PrefetchCommand(address=outcome.block_address + 64)]


@pytest.fixture
def next_block_registered():
    """Register the test predictor (and clean up, keeping the suite hermetic)."""
    entry = register_predictor(
        "next-block",
        NextBlockPrefetcher,
        config_class=NextBlockConfig,
        description="test-only next-block prefetcher",
    )
    try:
        yield entry
    finally:
        unregister_predictor("next-block")


class TestPredictorRegistry:
    def test_builtins_registered(self):
        assert predictor_names() == [
            "dbcp", "dbcp-unlimited", "ghb", "ltcords", "none", "stride",
        ]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_predictor("ltcords", NextBlockPrefetcher)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            predictor_entry("markov")
        message = str(excinfo.value)
        assert "markov" in message
        for name in predictor_names():
            assert name in message

    def test_decorator_form_registers_both_engines(self):
        @register_predictor("decorated-next-block", config_class=NextBlockConfig)
        class Decorated(NextBlockPrefetcher):
            name = "decorated-next-block"

        try:
            entry = predictor_entry("decorated-next-block")
            assert entry.cls is Decorated
            assert isinstance(build_predictor("decorated-next-block"), Decorated)
        finally:
            unregister_predictor("decorated-next-block")

    def test_build_uses_default_config_factory(self, next_block_registered):
        predictor = build_predictor("next-block")
        assert predictor.config == NextBlockConfig()
        predictor = build_predictor("next-block", NextBlockConfig(lookahead=3))
        assert predictor.config.lookahead == 3

    def test_register_config_class_rejects_name_collision(self):
        @dataclass(frozen=True)
        class DBCPConfig:  # same name as the built-in, different class
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_config_class(DBCPConfig)

    def test_register_config_class_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            register_config_class(object)

    def test_unregister_also_drops_the_config_class(self):
        register_predictor("throwaway", NextBlockPrefetcher, config_class=NextBlockConfig)
        assert CONFIG_CLASSES["NextBlockConfig"] is NextBlockConfig
        unregister_predictor("throwaway")
        assert "NextBlockConfig" not in CONFIG_CLASSES
        # A shared config class survives until its last user is gone.
        from repro.prefetchers.dbcp import DBCPConfig

        assert CONFIG_CLASSES["DBCPConfig"] is DBCPConfig  # dbcp + dbcp-unlimited


class TestThirdPartyPredictorEndToEnd:
    def test_spec_round_trip(self, next_block_registered):
        point = PointSpec(
            benchmark="gzip",
            predictor="next-block",
            predictor_config=NextBlockConfig(lookahead=2),
            num_accesses=4000,
        )
        restored = PointSpec.from_dict(point.to_dict())
        assert restored == point
        assert restored.predictor_config == NextBlockConfig(lookahead=2)
        assert restored.key() == point.key()

    def test_campaign_run(self, next_block_registered):
        points = [
            PointSpec(benchmark="swim", predictor="next-block",
                      predictor_config=NextBlockConfig(), num_accesses=4000),
        ]
        campaign = run_campaign(points, jobs=1)
        result = campaign.one(predictor="next-block")
        assert result.predictor == "next-block"
        assert result.num_accesses == 4000
        assert 0.0 <= result.coverage <= 1.0
        # Second run is served from the cache with an identical payload.
        again = run_campaign(points, jobs=1)
        assert again.cached_count == 1
        assert again.one(predictor="next-block").to_dict() == result.to_dict()

    def test_unified_cli_run(self, next_block_registered, capsys):
        from repro.cli import main

        assert main(["run", "swim", "--predictor", "next-block",
                     "--accesses", "4000", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "next-block" in output

    def test_pool_payload_ships_plugin_modules(self, next_block_registered):
        """Spawn-start pool workers re-import plugin modules before decoding."""
        from repro.campaign.runner import _plugin_modules

        point = PointSpec(benchmark="swim", predictor="next-block",
                          predictor_config=NextBlockConfig(), num_accesses=4000)
        assert _plugin_modules(point) == [NextBlockPrefetcher.__module__]
        # Built-in points ship no plugin modules.
        assert _plugin_modules(PointSpec(benchmark="swim", predictor="dbcp")) == []


class TestWorkloadRegistry:
    def test_builtins_registered(self):
        names = workload_names()
        assert len(names) >= 28
        assert "mcf" in names and "treeadd" in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(workload_entry("mcf").metadata, lambda meta, cfg: None)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            workload_entry("zeppelin")
        message = str(excinfo.value)
        assert "zeppelin" in message and "mcf" in message

    def test_third_party_workload_runs(self):
        meta = WorkloadMetadata(
            name="test-stream", suite="custom", description="test-only strided workload",
            paper_l1_miss_pct=0.0, paper_l2_miss_pct=0.0, paper_ipc=1.0,
            paper_speedup_perfect_l1=0.0, paper_speedup_ltcords=0.0,
            paper_speedup_ghb=0.0, paper_speedup_dbcp=0.0, paper_speedup_4mb_l2=0.0,
        )

        @register_workload(meta)
        def _test_stream(meta, cfg):
            return StridedLoopWorkload(meta, cfg, num_arrays=2, blocks_per_array=64,
                                       accesses_per_block=2)

        try:
            from repro.workloads.registry import get_workload

            workload = get_workload("test-stream")
            assert workload.name == "test-stream"
            result = repro.quick_simulation("test-stream", "stride", max_accesses=2000)
            assert result.benchmark == "test-stream"
        finally:
            unregister_workload("test-stream")
