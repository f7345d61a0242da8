"""One engine, one cache key: the replay tier is not part of any result.

Every simulation runs on the compiled kernel or, without one, on the
interpreted tier; the legacy reference stack is the test suite's oracle
(``tests/oracle.py``), not an option.  These tests pin what that leaves:
the engine name the benchmark harness reads, the spec field sets that
every result-cache key is hashed from (unchanged from when the default
engine was left out of them), and the two tiers sharing one cache
entry in both directions.
"""

import inspect
from contextlib import nullcontext

import pytest
from conftest import kernel_disabled

from repro.engines import DEFAULT_ENGINE

#: ``PointSpec().to_dict()`` fields; every cached trace, timing and
#: multiprogram result is keyed by a hash of exactly these.
POINT_FIELDS = {
    "benchmark", "predictor", "predictor_config", "hierarchy_config", "num_accesses",
    "seed", "sim", "perfect_l1", "secondary", "quantum_instructions", "max_switches",
}
#: A default ``MulticoreSpec``'s ``to_dict()`` fields.
MULTICORE_FIELDS = {
    "sim", "benchmarks", "predictors", "predictor_configs", "hierarchy_config",
    "num_accesses", "seed", "interleave", "quantum_accesses", "address_shift",
}


def test_registry_contents():
    from repro.sim.trace_driven import TraceDrivenSimulator

    assert DEFAULT_ENGINE == "fast"
    assert TraceDrivenSimulator.engine == DEFAULT_ENGINE


@pytest.mark.parametrize("engine", ["fast", "legacy"])
def test_unknown_engine_is_rejected_by_every_consumer(engine):
    """No entry point takes an ``engine`` any more, whatever its value."""
    from repro.api import quick_simulation
    from repro.cache.hierarchy import CacheHierarchy, SharedL2
    from repro.campaign.spec import PointSpec
    from repro.multicore import MulticoreSimulator, MulticoreSpec
    from repro.run import Session
    from repro.sim.multiprogram import _simulate_pair
    from repro.sim.timing import TimingSimulator, _simulate_speedup
    from repro.sim.trace_driven import TraceDrivenSimulator, simulate_benchmark

    for entry in (
        quick_simulation, CacheHierarchy, SharedL2, PointSpec, MulticoreSimulator,
        MulticoreSpec, Session, _simulate_pair, TimingSimulator, _simulate_speedup,
        TraceDrivenSimulator, simulate_benchmark,
    ):
        assert "engine" not in inspect.signature(entry).parameters, entry
    with pytest.raises(TypeError, match="engine"):
        PointSpec(benchmark="mcf", engine=engine)
    with pytest.raises(TypeError, match="engine"):
        MulticoreSpec(benchmarks=("mcf",), engine=engine)


# ---------------------------------------------------------------------------
# build_predictor: one class per entry.
# ---------------------------------------------------------------------------


def test_build_predictor_falls_back_to_fast_class():
    """A registered class is the one class every tier and the oracle replay."""
    from oracle import legacy_engine

    from repro.prefetchers.null import NullPrefetcher
    from repro.registry import build_predictor, register_predictor, unregister_predictor
    from repro.run import RunSpec, execute_spec

    class FastOnly(NullPrefetcher):
        pass

    entry = register_predictor("_test_fast_only", FastOnly)
    try:
        assert entry.cls is FastOnly
        assert type(build_predictor("_test_fast_only")) is FastOnly
        spec = RunSpec(benchmark="gzip", predictor="_test_fast_only", num_accesses=300)
        with legacy_engine():
            legacy = execute_spec(spec).to_dict()
        assert execute_spec(spec).to_dict() == legacy
    finally:
        unregister_predictor("_test_fast_only")


# ---------------------------------------------------------------------------
# Cache-key invariance: the replay tier is not part of any key.
# ---------------------------------------------------------------------------


def _spec(**overrides):
    from repro.run import RunSpec

    fields = dict(benchmark="mcf", predictor="dbcp", num_accesses=2000)
    fields.update(overrides)
    return RunSpec(**fields)


def _tier(name):
    """Replay on the ``"vector"`` kernel tier or the interpreted ``"fast"`` loops."""
    return kernel_disabled() if name == "fast" else nullcontext()


def test_fast_equivalent_engines_share_one_spec_key():
    """Every point spec encodes the same field set, so results keep their keys."""
    from repro.campaign.spec import PointSpec

    assert set(_spec().to_dict()) == POINT_FIELDS
    for kind in ({"sim": "timing"}, {"sim": "multiprogram", "secondary": "swim"}):
        assert set(_spec(**kind).to_dict()) == POINT_FIELDS
    assert PointSpec.from_dict(_spec().to_dict()).key() == _spec().key()


def test_multicore_spec_key_is_engine_invariant_for_fast_equivalents():
    from repro.multicore import MulticoreSpec

    spec = MulticoreSpec(benchmarks=("mcf", "gcc"), predictors=("dbcp",), num_accesses=2000)
    assert set(spec.to_dict()) == MULTICORE_FIELDS
    assert MulticoreSpec.from_dict(spec.to_dict()).key() == spec.key()


@pytest.mark.parametrize(
    "first,second", [("fast", "vector"), ("vector", "fast")], ids=["fast_then_vector", "vector_then_fast"]
)
def test_result_cache_is_shared_across_fast_and_vector(first, second):
    """A result computed on one replay tier serves the other.

    ``"vector"`` is the compiled kernel tier and ``"fast"`` the
    interpreted loops (kernel switched off).  Both directions matter: the
    bug this guards against is tier state leaking into the content key,
    which would silently split the cache and recompute every point on a
    host without a compiler.
    """
    from repro.run import Session

    session = Session(jobs=1)
    spec = _spec()
    assert session.cache.get(spec) is None
    with _tier(first):
        computed = session.run(spec)
    with _tier(second):
        served = session.cache.get(spec)
        assert served is not None, f"{second} tier missed the cache after a {first} run"
        assert served.to_dict() == computed.to_dict()
        # And the facade path agrees end to end.
        assert session.run(spec).to_dict() == computed.to_dict()
