"""End-to-end engine equivalence: fast vs legacy simulation results.

For every (benchmark × predictor) pair used by the experiment drivers,
the full fast stack (array-backed cache model, columnar loop, flat-state
predictors) and the full legacy stack (object-based cache model, loop
and predictors) must produce bit-identical ``SimulationResult.to_dict()``
output.  This is the acceptance gate of the fast-path rewrite: any
behavioural drift in the cache model, the trace representation, the
simulator loop or a predictor's flat rewrite shows up here as a counter
mismatch.  The fast engine is checked on both of its replay tiers: the
compiled vector kernel (the default where a C compiler exists) and the
interpreted loops.
"""

import pytest
from conftest import kernel_disabled

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
    fast = simulate_benchmark(
        workload,
        build_predictor(predictor),
        num_accesses=NUM_ACCESSES,
        engine="fast",
    )
    legacy = simulate_benchmark(
        workload,
        build_predictor(predictor),
        num_accesses=NUM_ACCESSES,
        engine="legacy",
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
    fast = TraceDrivenSimulator(
        prefetcher=build_predictor(predictor), engine="fast"
    ).run(trace)
    legacy = TraceDrivenSimulator(
        prefetcher=build_predictor(predictor), engine="legacy"
    ).run(trace)
    with kernel_disabled():
        interpreted = TraceDrivenSimulator(prefetcher=build_predictor(predictor)).run(trace)
    assert fast.to_dict() == legacy.to_dict()
    assert fast.to_dict() == interpreted.to_dict()


@pytest.mark.parametrize("predictor", ["dbcp", "ghb", "ltcords", "stride"])
def test_fast_predictor_on_legacy_engine_matches(predictor):
    """The one predictor class agrees under both loops and cache models.

    The legacy engine builds an ``AccessOutcome`` per access over the
    object-per-block caches; the fast engine's interpreted tier reuses
    one over the flat-array caches.
    """
    trace = get_workload("gcc", WorkloadConfig(num_accesses=4000, seed=3)).generate()
    legacy = TraceDrivenSimulator(
        prefetcher=build_predictor(predictor), engine="legacy"
    ).run(trace)
    with kernel_disabled():
        interpreted = TraceDrivenSimulator(prefetcher=build_predictor(predictor)).run(trace)
    assert interpreted.to_dict() == legacy.to_dict()


def test_engine_argument_is_validated():
    with pytest.raises(ValueError):
        TraceDrivenSimulator(engine="warp")
