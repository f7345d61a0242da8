"""End-to-end replay equivalence: both tiers against the legacy oracle.

For every (benchmark × predictor) pair used by the experiment drivers,
the package's replay (array-backed cache model, columnar loop) and the
test suite's legacy oracle (object-based cache model and loop,
``tests/oracle.py``) must produce bit-identical
``SimulationResult.to_dict()`` output.  Any behavioural drift in the
cache model, the trace representation or the simulator loop shows up
here as a counter mismatch.  The package is checked on both of its
replay tiers: the compiled vector kernel (the default where a C
compiler exists) and the interpreted loop.
"""

import pytest
from conftest import kernel_disabled
from oracle import LegacySimulator, legacy_engine

from repro.api import available_benchmarks, available_predictors, build_predictor
from repro.sim.trace_driven import TraceDrivenSimulator, simulate_benchmark

# One of the two slowest suites; skippable via `-m "not slow"` (pytest.ini).
pytestmark = pytest.mark.slow
from repro.workloads.base import WorkloadConfig
from repro.workloads.registry import get_workload

#: Trace length for the exhaustive sweep: long enough to exercise misses,
#: evictions, prefetch displacement and confidence feedback on every
#: benchmark, short enough to keep the full 28x6 grid in tier-1 time.
NUM_ACCESSES = 1500


def _pairs():
    # The parameter is named workload (not "benchmark") because the
    # pytest-benchmark plugin reserves that funcarg name.
    return [
        pytest.param(benchmark, predictor, id=f"{benchmark}_{predictor}".replace("-", "_"))
        for benchmark in available_benchmarks()
        for predictor in available_predictors()
    ]


@pytest.mark.parametrize("workload,predictor", _pairs())
def test_engines_bit_identical(workload, predictor):
    fast = simulate_benchmark(workload, build_predictor(predictor), num_accesses=NUM_ACCESSES)
    with legacy_engine():
        legacy = simulate_benchmark(
            workload, build_predictor(predictor), num_accesses=NUM_ACCESSES
        )
    assert fast.to_dict() == legacy.to_dict()


@pytest.mark.parametrize("workload,predictor", _pairs())
def test_vector_engine_bit_identical(workload, predictor):
    """The vector kernel tier matches the interpreted tier on the full grid.

    Every predictor on the grid takes the compiled kernel when a
    compiler is present.
    """
    vector = simulate_benchmark(
        workload, build_predictor(predictor), num_accesses=NUM_ACCESSES
    )
    with kernel_disabled():
        interpreted = simulate_benchmark(
            workload, build_predictor(predictor), num_accesses=NUM_ACCESSES
        )
    assert interpreted.to_dict() == vector.to_dict()


@pytest.mark.parametrize("predictor", ["dbcp", "ltcords"])
def test_engines_agree_on_longer_shared_trace(predictor):
    """One deeper run per heavyweight predictor, replaying one shared trace."""
    trace = get_workload("mcf", WorkloadConfig(num_accesses=20_000, seed=7)).generate()
    fast = TraceDrivenSimulator(prefetcher=build_predictor(predictor)).run(trace)
    legacy = LegacySimulator(prefetcher=build_predictor(predictor)).run(trace)
    with kernel_disabled():
        interpreted = TraceDrivenSimulator(prefetcher=build_predictor(predictor)).run(trace)
    assert fast.to_dict() == legacy.to_dict()
    assert fast.to_dict() == interpreted.to_dict()


@pytest.mark.parametrize("predictor", ["dbcp", "ghb", "ltcords", "stride"])
def test_fast_predictor_on_legacy_engine_matches(predictor):
    """The one predictor class agrees under both loops and cache models.

    The legacy oracle builds an ``AccessOutcome`` per access over the
    object-per-block caches; the interpreted tier reuses one over the
    flat-array caches.
    """
    trace = get_workload("gcc", WorkloadConfig(num_accesses=4000, seed=3)).generate()
    legacy = LegacySimulator(prefetcher=build_predictor(predictor)).run(trace)
    with kernel_disabled():
        interpreted = TraceDrivenSimulator(prefetcher=build_predictor(predictor)).run(trace)
    assert interpreted.to_dict() == legacy.to_dict()


def test_engine_argument_is_validated():
    """There is one engine: the simulator takes no ``engine`` argument."""
    with pytest.raises(TypeError, match="engine"):
        TraceDrivenSimulator(engine="legacy")
