"""Differential collapse: a 1-core multicore run IS the single-core simulator.

For every real predictor, both replay tiers and the legacy oracle, a
one-core ``repro.multicore`` run must produce a per-core
``SimulationResult`` whose full ``to_dict`` payload is bit-identical to
:class:`~repro.sim.trace_driven.TraceDrivenSimulator` on the same spec.
The modes are ``"legacy"`` (both sides on the oracle,
``tests/oracle.py``), ``"fast"`` (the single-core side with the compiled
kernel switched off) and ``"kernel"`` (both sides with the compiled
kernel, as by default).
This pins the co-run's shared-L2 lanes to the extensively cross-checked
single-core engines: any drift in the shared hierarchy, the chunked
replay, the feedback plumbing or the stat settlement shows up here as a
field-level diff.
"""

from contextlib import nullcontext

import pytest
from conftest import kernel_disabled
from oracle import legacy_engine

from repro.multicore import MulticoreSpec, simulate_multicore
from repro.registry import build_predictor
from repro.sim.trace_driven import simulate_benchmark

PREDICTORS = ("ltcords", "dbcp", "ghb", "stride")
NUM_ACCESSES = 4000
MODES = ("fast", "legacy", "kernel")


def _collapse(mode, spec):
    """The co-run of ``spec`` and the single-core run of its one core, in ``mode``."""
    ((benchmark,), (predictor,)) = spec.benchmarks, spec.core_predictors
    with legacy_engine() if mode == "legacy" else nullcontext():
        multi = simulate_multicore(spec)
        with kernel_disabled() if mode == "fast" else nullcontext():
            single = simulate_benchmark(
                benchmark, prefetcher=build_predictor(predictor), num_accesses=NUM_ACCESSES
            )
    return multi, single


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_one_core_collapses_to_trace_driven(predictor, mode):
    spec = MulticoreSpec(benchmarks=("mcf",), predictors=(predictor,), num_accesses=NUM_ACCESSES)
    multi, single = _collapse(mode, spec)
    assert multi.num_cores == 1
    assert multi.per_core[0].to_dict() == single.to_dict()
    # No co-runner: the shared structures show no interference.
    assert multi.cross_core_evictions == 0
    assert multi.prefetch_cross_core_evictions == [0]


@pytest.mark.parametrize("mode", MODES)
def test_one_core_collapse_holds_for_null_predictor(mode):
    # "none" exercises the on_access (non-fast-protocol) path of the
    # co-run lane against the single-core interpreted loop (or kernel).
    spec = MulticoreSpec(benchmarks=("swim",), predictors=("none",), num_accesses=NUM_ACCESSES)
    multi, single = _collapse(mode, spec)
    assert multi.per_core[0].to_dict() == single.to_dict()


@pytest.mark.parametrize("interleave", ["rr", "icount"])
def test_one_core_collapse_independent_of_interleave_policy(interleave):
    spec = MulticoreSpec(benchmarks=("mcf",), predictors=("dbcp",),
                         num_accesses=NUM_ACCESSES, interleave=interleave)
    multi = simulate_multicore(spec)
    single = simulate_benchmark(
        "mcf", prefetcher=build_predictor("dbcp"), num_accesses=NUM_ACCESSES
    )
    assert multi.per_core[0].to_dict() == single.to_dict()
