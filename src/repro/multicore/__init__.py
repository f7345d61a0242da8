"""repro.multicore — shared-hierarchy N-core co-run simulation.

Cores replay independent traces through private L1Ds into one genuinely
shared L2 and a shared memory bus, with per-core prefetchers from the
predictor registry (heterogeneous mixes allowed) and deterministic
round-robin or icount-proportional interleaving.  A one-core run is
bit-identical to the single-core trace-driven simulator, on the kernel
and on the interpreted tier alike.

Quickstart::

    from repro import Session
    from repro.multicore import MulticoreSpec

    result = Session().run(MulticoreSpec(benchmarks=("mcf", "art"), predictors=("dbcp",)))
    print(result.coverage, result.shared_l2_miss_rate, result.cross_core_evictions)
"""

from repro.multicore.engine import MulticoreSimulator, schedule_chunks, simulate_multicore
from repro.multicore.result import MulticoreResult
from repro.multicore.spec import (
    DEFAULT_ADDRESS_SHIFT,
    DEFAULT_QUANTUM_ACCESSES,
    INTERLEAVE_POLICIES,
    MulticoreSpec,
    expand_core_benchmarks,
)

__all__ = [
    "DEFAULT_ADDRESS_SHIFT",
    "DEFAULT_QUANTUM_ACCESSES",
    "INTERLEAVE_POLICIES",
    "MulticoreResult",
    "MulticoreSimulator",
    "MulticoreSpec",
    "expand_core_benchmarks",
    "schedule_chunks",
    "simulate_multicore",
]
