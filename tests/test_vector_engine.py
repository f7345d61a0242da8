"""Behavioural contract of the compiled vector-kernel tier.

The equivalence suites pin kernel == interpreted on the full benchmark
grid; this file pins everything *around* that equality: which tier the
dispatcher picks (``sim.last_tier``) and why it falls back
(``sim.last_fallback``), the interpreted fallbacks (kill-switch, open
fold, continued replay, out-of-range addresses), the fallback warning and
counters, per-cache statistics fidelity, the stale-state guard after a
kernel run, NumPy staying unimported, and the kernel compilation cache
plumbing.
"""

import json
import subprocess
import sys
import warnings

import pytest
from conftest import kernel_disabled
from oracle import LegacySimulator

import repro.cache.vector as vector_mod
import repro.sim.vector_replay as replay_mod
from repro.api import build_predictor
from repro.cache.cache import DeferredSets
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vector import kernel_cache_dir, load_kernel
from repro.core.signatures import SignatureConfig
from repro.obs.metrics import REGISTRY
from repro.prefetchers.dbcp import DBCPConfig
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.trace_driven import TraceDrivenSimulator
from repro.trace.stream import TraceColumns, TraceStream
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

NUM_ACCESSES = 6000


def _trace(benchmark="mcf", num_accesses=NUM_ACCESSES, seed=11):
    return get_workload(benchmark, WorkloadConfig(num_accesses=num_accesses, seed=seed)).generate()


def _run(predictor="dbcp", config=None, trace=None, hierarchy_config=None,
         simulator=TraceDrivenSimulator):
    sim = simulator(
        prefetcher=build_predictor(predictor, config), hierarchy_config=hierarchy_config
    )
    result = sim.run(trace if trace is not None else _trace())
    return sim, result


def _interpreted(**kwargs):
    with kernel_disabled():
        return _run(**kwargs)


def _expected(tier):
    return tier if load_kernel() is not None else "interpreted"


@pytest.fixture
def no_kernel(monkeypatch):
    """The environment kill switch, with the loader's memo reset around it."""
    monkeypatch.setenv("REPRO_NO_VECTOR_KERNEL", "1")
    monkeypatch.setattr(vector_mod, "_KERNEL", None)
    monkeypatch.setattr(vector_mod, "_KERNEL_FAILED", None)


# ---------------------------------------------------------------------------
# Tier selection + equivalence per tier.
# ---------------------------------------------------------------------------


def test_dbcp_takes_the_kernel_tier_and_matches_fast():
    trace = _trace()
    _, interpreted = _interpreted(trace=trace)
    sim, kernel = _run(trace=trace)
    assert sim.last_tier == _expected("kernel-dbcp")
    assert kernel.to_dict() == interpreted.to_dict()


def test_null_predictor_takes_the_baseline_kernel_tier():
    trace = _trace("swim")
    _, interpreted = _interpreted(predictor="none", trace=trace)
    sim, kernel = _run(predictor="none", trace=trace)
    assert sim.last_tier == _expected("kernel-baseline")
    assert kernel.to_dict() == interpreted.to_dict()


def test_ltcords_takes_the_kernel_tier_and_matches_fast():
    trace = _trace("gcc", num_accesses=3000)
    _, interpreted = _interpreted(predictor="ltcords", trace=trace)
    sim, kernel = _run(predictor="ltcords", trace=trace)
    assert sim.last_tier == _expected("kernel-ltcords")
    assert sim.last_fallback is None or load_kernel() is None
    assert kernel.to_dict() == interpreted.to_dict()


class _PluginPrefetcher(StridePrefetcher):
    """A plugin predictor: the kernel ports exact built-in classes only."""

    name = "plugin-stride"


def test_ghb_and_stride_take_their_kernel_tiers_and_plugins_stay_interpreted():
    trace = _trace("gcc", num_accesses=3000)
    for predictor in ("ghb", "stride"):
        tier = REGISTRY.counter(f"replay.tier.{_expected(f'kernel-{predictor}')}")
        before = tier.value
        sim, result = _run(predictor=predictor, trace=trace)
        assert sim.last_tier == _expected(f"kernel-{predictor}")
        assert tier.value == before + 1
        assert sim.last_fallback is None or load_kernel() is None
        _, legacy = _run(predictor=predictor, trace=trace, simulator=LegacySimulator)
        assert result.to_dict() == legacy.to_dict()
    # A predictor without a kernel port is interpreted, and that is no
    # fallback: nothing is recorded or counted.
    fallbacks = {reason: REGISTRY.counter(f"replay.fallback.{reason}").value
                 for reason in replay_mod.FALLBACK_REASONS}
    sim = TraceDrivenSimulator(prefetcher=_PluginPrefetcher())
    sim.run(trace)
    assert sim.last_tier == "interpreted"
    assert sim.last_fallback is None
    assert fallbacks == {reason: REGISTRY.counter(f"replay.fallback.{reason}").value
                         for reason in replay_mod.FALLBACK_REASONS}


@pytest.mark.parametrize("table_entries", [64, 1])
def test_small_correlation_tables_exercise_kernel_lru_eviction(table_entries):
    # Tiny tables evict on nearly every record: the kernel's intrusive
    # LRU list and backward-shift hash deletion run constantly.
    config = DBCPConfig(table_entries=table_entries)
    trace = _trace()
    _, interpreted = _interpreted(config=config, trace=trace)
    sim, kernel = _run(config=config, trace=trace)
    assert sim.last_tier == _expected("kernel-dbcp")
    assert kernel.to_dict() == interpreted.to_dict()


def test_custom_geometry_and_mismatched_dbcp_block_size_match():
    # Direct-mapped 32B-block hierarchy while DBCP folds 64B blocks:
    # the kernel carries two distinct block masks.
    hierarchy = HierarchyConfig(
        l1=CacheConfig(name="L1-dm", size_bytes=2048, block_size=32, associativity=1),
        l2=CacheConfig(name="L2-sm", size_bytes=16384, block_size=32, associativity=4),
    )
    config = DBCPConfig(
        cache_config=CacheConfig(name="dbcp", size_bytes=4096, block_size=64, associativity=2),
        table_entries=256,
    )
    trace = _trace()
    _, interpreted = _interpreted(config=config, trace=trace, hierarchy_config=hierarchy)
    sim, kernel = _run(config=config, trace=trace, hierarchy_config=hierarchy)
    assert sim.last_tier == _expected("kernel-dbcp")
    assert kernel.to_dict() == interpreted.to_dict()


# ---------------------------------------------------------------------------
# Interpreted fallbacks: kill-switch, open fold, address range; no NumPy.
# ---------------------------------------------------------------------------


def test_without_numpy_the_python_tier_is_bit_identical(monkeypatch):
    # ``None`` in sys.modules makes ``import numpy`` raise ImportError
    # even though the real module is importable: the kernel tier never
    # needs NumPy, so it still runs and still matches.
    trace = _trace()
    _, interpreted = _interpreted(trace=trace)
    monkeypatch.setitem(sys.modules, "numpy", None)
    sim, kernel = _run(trace=trace)
    assert sim.last_tier == _expected("kernel-dbcp")
    assert kernel.to_dict() == interpreted.to_dict()


def test_default_kernel_replay_never_imports_numpy(tmp_path):
    script = (
        "import sys\n"
        "from repro.run import Session\n"
        "from repro.sim.trace_driven import TraceDrivenSimulator\n"
        "from repro.api import build_predictor\n"
        "from repro.workloads.base import WorkloadConfig\n"
        "from repro.workloads.registry import get_workload\n"
        "trace = get_workload('mcf', WorkloadConfig(num_accesses=2000)).generate()\n"
        "for name in ('none', 'dbcp', 'ltcords'):\n"
        "    sim = TraceDrivenSimulator(prefetcher=build_predictor(name))\n"
        "    sim.run(trace)\n"
        "    print(sim.last_tier)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**__import__("os").environ, "REPRO_TRACE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert lines[-1] == "False"
    if load_kernel() is not None:
        assert lines[:3] == ["kernel-baseline", "kernel-dbcp", "kernel-ltcords"]


def test_kill_switch_forces_python_tier(no_kernel):
    trace = _trace()
    counter = REGISTRY.counter("replay.fallback.kill-switch")
    for predictor in ("dbcp", "ghb", "stride"):
        before = counter.value
        _, legacy = _run(predictor=predictor, trace=trace, simulator=LegacySimulator)
        sim, result = _run(predictor=predictor, trace=trace)
        assert sim.last_tier == "interpreted"
        assert sim.last_fallback == "kill-switch"
        assert counter.value == before + 1
        assert result.to_dict() == legacy.to_dict()
    assert load_kernel() is None


def test_open_fold_dbcp_uses_fast_fallback():
    # Open-fold signatures are outside the kernel's contract.
    config = DBCPConfig(signature_config=SignatureConfig(trace_hash_bits=16))
    trace = _trace(num_accesses=2500)
    sim, result = _run(config=config, trace=trace)
    _, legacy = _run(config=config, trace=trace, simulator=LegacySimulator)
    assert sim.last_tier == "interpreted"
    assert sim.last_fallback == "open-fold"
    assert result.to_dict() == legacy.to_dict()


def test_addresses_beyond_the_kernel_range_are_interpreted():
    # Addresses >= 2^54 stay legal: they replay on the interpreted tier.
    base = _trace(num_accesses=2000).as_arrays()
    shifted = TraceColumns(
        base.pc, [a + (1 << 62) for a in base.address], base.is_write, base.icount
    )
    trace = TraceStream.from_columns(shifted, name="high")
    for predictor in ("none", "dbcp", "ltcords", "ghb", "stride"):
        sim, result = _run(predictor=predictor, trace=trace)
        _, legacy = _run(predictor=predictor, trace=trace, simulator=LegacySimulator)
        assert sim.last_tier == "interpreted"
        if load_kernel() is not None:
            assert sim.last_fallback == "address-range"
        assert result.to_dict() == legacy.to_dict()


def test_fallbacks_are_counted_and_warned_once(monkeypatch):
    monkeypatch.setattr(replay_mod, "_warned_fallback", False)
    counter = REGISTRY.counter("replay.fallback.open-fold")
    tier = REGISTRY.counter("replay.tier.interpreted")
    before, tier_before = counter.value, tier.value
    config = DBCPConfig(signature_config=SignatureConfig(trace_hash_bits=16))
    trace = _trace(num_accesses=500)
    with pytest.warns(RuntimeWarning, match="open-fold"):
        _run(config=config, trace=trace)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run(config=config, trace=trace)  # a second fallback: counted, not warned
    assert counter.value == before + 2
    assert tier.value == tier_before + 2


# ---------------------------------------------------------------------------
# Statistics fidelity beyond the aggregate result.
# ---------------------------------------------------------------------------


def test_per_cache_statistics_match_fast_engine_exactly():
    for predictor in ("dbcp", "ltcords", "ghb", "stride"):
        _check_per_cache_statistics(predictor)


def _check_per_cache_statistics(predictor):
    trace = _trace()
    fast_sim, _ = _interpreted(predictor=predictor, trace=trace)
    vec_sim, _ = _run(predictor=predictor, trace=trace)
    for attr in ("hierarchy", "baseline"):
        for level in ("l1", "l2"):
            fast_cache = getattr(getattr(fast_sim, attr), level)
            vec_cache = getattr(getattr(vec_sim, attr), level)
            assert vec_cache.stats == fast_cache.stats, f"{attr}.{level} stats diverge"
            assert vec_cache._serial == fast_cache._serial
        assert getattr(vec_sim, attr).stats == getattr(fast_sim, attr).stats
    assert vec_sim.prefetcher.stats == fast_sim.prefetcher.stats
    if predictor in ("dbcp", "ltcords"):
        assert vec_sim.prefetcher.history.stats == fast_sim.prefetcher.history.stats
    if predictor == "ghb":
        assert vec_sim.prefetcher.ghb_stats == fast_sim.prefetcher.ghb_stats
    for name in ("enqueued", "issued", "dropped", "_serial"):
        assert getattr(vec_sim.request_queue, name) == getattr(fast_sim.request_queue, name)


def test_kernel_counters_are_plain_python_ints():
    sim, result = _run()
    if not sim.last_tier.startswith("kernel"):
        pytest.skip("no compiled kernel available")
    stats = sim.hierarchy.l1.stats
    assert type(stats.hits) is int and type(stats.misses) is int
    # And the payload survives strict JSON round-tripping.
    json.dumps(result.to_dict(), allow_nan=False)


def test_kernel_run_never_builds_the_python_cache_state():
    sim, _ = _run(predictor="ltcords")
    if not sim.last_tier.startswith("kernel"):
        pytest.skip("no compiled kernel available")
    for hierarchy in (sim.hierarchy, sim.baseline):
        for cache in (hierarchy.l1, hierarchy.l2):
            assert type(vars(cache)["_tags"]) is DeferredSets
    assert type(vars(sim.prefetcher.signature_cache)["_sets"]) is DeferredSets


# ---------------------------------------------------------------------------
# Stale-state guard and interpreted continuation.
# ---------------------------------------------------------------------------


def test_second_replay_after_kernel_batch_is_rejected():
    sim = TraceDrivenSimulator(prefetcher=build_predictor("dbcp"))
    sim.replay(_trace())
    if not sim.last_tier.startswith("kernel"):
        pytest.skip("no compiled kernel available")
    with pytest.raises(RuntimeError, match="fresh TraceDrivenSimulator"):
        sim.replay(_trace(seed=12))


def test_python_tier_supports_continued_replay(no_kernel):
    # The interpreted tier mutates the real cache/predictor objects, so a
    # second replay on the same simulator keeps matching legacy.
    first, second = _trace(seed=11), _trace("gcc", seed=12)
    fast_sim = TraceDrivenSimulator(prefetcher=build_predictor("dbcp"))
    legacy_sim = LegacySimulator(prefetcher=build_predictor("dbcp"))
    for sim in (fast_sim, legacy_sim):
        sim.replay(first)
        sim.replay(second)
    assert fast_sim.last_tier == "interpreted"
    assert fast_sim.last_fallback == "not-fresh"  # warm sim: never the kernel
    assert fast_sim.build_result(second).to_dict() == legacy_sim.build_result(second).to_dict()


# ---------------------------------------------------------------------------
# Kernel compilation cache plumbing.
# ---------------------------------------------------------------------------


def test_kernel_cache_dir_honours_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    assert kernel_cache_dir() == str(tmp_path)
    monkeypatch.delenv("REPRO_KERNEL_CACHE")
    assert "repro" in kernel_cache_dir()


def test_kernel_failure_memo_is_process_wide(no_kernel, monkeypatch):
    assert load_kernel() is None
    # Clearing the env after the first failure does not retry: the
    # decision is memoised for the process.
    monkeypatch.delenv("REPRO_NO_VECTOR_KERNEL")
    assert load_kernel() is None
