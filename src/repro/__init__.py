"""repro — reproduction of *Last-Touch Correlated Data Streaming* (ISPASS 2007).

This package implements, in pure Python, the full system described by
Ferdman & Falsafi: the LT-cords address-correlating prefetcher, the
dead-block/last-touch machinery it builds on, the baseline prefetchers the
paper compares against (DBCP, GHB PC/DC, stride), the memory-system
substrate (LRU set-associative caches, the DRAM parameters and a bus
model), a first-order out-of-order timing model, synthetic workload
generators that stand in for the SPEC CPU2000 / Olden benchmarks, and the
analysis code that regenerates every figure and table of the paper's
evaluation.

Quickstart
----------
>>> from repro import quick_simulation
>>> result = quick_simulation("mcf", predictor="ltcords", max_accesses=50_000)
>>> 0.0 <= result.coverage <= 1.0
True

The :class:`Session` facade is the full-featured front door — cached
single runs, predictor comparisons, and parallel sweeps all driven by
one serializable :class:`RunSpec` type::

>>> from repro import Session
>>> session = Session()
>>> result = session.run("mcf", predictor="dbcp", num_accesses=50_000)

and ``python -m repro`` exposes the same machinery on the command line
(``run`` / ``sweep`` / ``figures`` / ``bench`` / ``trace`` / ``obs`` /
``doctor`` / ``info``).
"""

from repro.api import (
    available_benchmarks,
    available_predictors,
    build_predictor,
    build_workload,
    quick_simulation,
    run_campaign,
)
from repro.multicore import MulticoreResult, MulticoreSpec
from repro.registry import register_config_class, register_predictor, register_workload
from repro.resilience import FaultPlan, RetryPolicy
from repro.run import RunSpec, Session
from repro.version import __version__

__all__ = [
    "__version__",
    "FaultPlan",
    "MulticoreResult",
    "MulticoreSpec",
    "RetryPolicy",
    "RunSpec",
    "Session",
    "available_benchmarks",
    "available_predictors",
    "build_predictor",
    "build_workload",
    "quick_simulation",
    "register_config_class",
    "register_predictor",
    "register_workload",
    "run_campaign",
]
