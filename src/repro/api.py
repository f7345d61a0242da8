"""Top-level convenience API.

These helpers are what the examples and most downstream users touch:
registry lookups for predictors and benchmarks, and a one-call
trace-driven simulation.  All of them are thin shims over the public
plugin registries (:mod:`repro.registry`) and the :class:`repro.run.Session`
facade — the same machinery the campaign engine and the ``python -m repro``
CLI are built on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.hierarchy import HierarchyConfig
from repro.core.interface import Prefetcher
from repro.registry import build_predictor, predictor_names, workload_names
from repro.run import RunSpec, Session
from repro.sim.trace_driven import SimulationResult
from repro.workloads.base import SyntheticWorkload, WorkloadConfig
from repro.workloads.registry import get_workload

__all__ = [
    "available_benchmarks",
    "available_predictors",
    "build_predictor",
    "build_workload",
    "quick_simulation",
    "run_campaign",
]


def available_benchmarks() -> List[str]:
    """Names of every registered benchmark (the paper's 28 plus any plugins)."""
    return workload_names()


def available_predictors() -> List[str]:
    """Names accepted by :func:`build_predictor` and :func:`quick_simulation`."""
    return predictor_names()


def build_workload(name: str, num_accesses: int = 200_000, seed: int = 42) -> SyntheticWorkload:
    """Construct the synthetic workload for benchmark ``name``."""
    return get_workload(name, WorkloadConfig(num_accesses=num_accesses, seed=seed))


def quick_simulation(
    benchmark: str,
    predictor: str = "ltcords",
    max_accesses: int = 100_000,
    seed: int = 42,
    predictor_config: Optional[object] = None,
    hierarchy_config: Optional["HierarchyConfig"] = None,
) -> SimulationResult:
    """Run one trace-driven simulation of ``predictor`` on ``benchmark``.

    Thin shim over the :class:`~repro.run.Session` facade: the arguments
    become a trace :class:`~repro.run.RunSpec` executed uncached, with
    output bit-identical to the historical direct path.  Use a
    :class:`~repro.run.Session` directly for cached, sweep-capable runs.
    """
    spec = RunSpec(
        benchmark=benchmark,
        predictor=predictor,
        predictor_config=predictor_config,
        hierarchy_config=hierarchy_config,
        num_accesses=max_accesses,
        seed=seed,
    )
    return Session(use_cache=False).run(spec)


def run_campaign(spec, jobs: Optional[int] = None, use_cache: bool = True, cache=None):
    """Execute a campaign (a :class:`SweepSpec` or list of points) and return its results.

    Thin delegation to :func:`repro.campaign.run_campaign`; see
    :mod:`repro.campaign` for the sweep/caching machinery.  Imported
    lazily to keep ``repro.api`` free of a module-level cycle with the
    campaign package.
    """
    from repro.campaign import run_campaign as _run_campaign

    return _run_campaign(spec, jobs=jobs, use_cache=use_cache, cache=cache)
