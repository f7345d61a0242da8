"""The benchmark's workloads: what one pass runs, and how its output is checked.

Each workload drives the package through its public API (``repro.run.Session``
and the figure/table drivers in ``repro.experiments``) in one process.
Every pass starts from an empty result cache, so every simulated cache
starts empty too; the trace store is warm (filled during set-up).  A
pass samples the host's speed between its points (``hostspeed.py``); its
wall time covers the points only, not the samples.

The figure workloads scale the ``figures --quick`` configuration down so
that several passes fit in one timed run: the same eight campaigns, the
two quick benchmarks at the footprint extremes, shorter traces, and four
of Figure 11's fourteen pairings (one per primary benchmark family).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from hostspeed import HostClock

#: Workload seeds with a committed reference digest.  Any ``--seed`` folds
#: onto one of them, so every run's output can be checked exactly.
REFERENCE_SEEDS: Tuple[int, ...] = tuple(range(42, 50))

#: From the quick set: mcf misses heavily past L2, gzip is nearly cache-resident.
FIGURE_BENCHMARKS: Tuple[str, ...] = ("mcf", "gzip")
CAMPAIGNS: Tuple[str, ...] = ("fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "table2", "table3")
FIG11_PAIRINGS: Tuple[Tuple[str, str], ...] = (
    ("gcc", "mcf"), ("mcf", "vortex"), ("swim", "fma3d"), ("lucas", "applu"),
)
GRID_BENCHMARKS: Tuple[str, ...] = ("mcf", "em3d", "swim", "gzip")
GRID_PREDICTORS: Tuple[str, ...] = ("none", "dbcp", "ltcords", "ghb", "stride")
#: Host-speed chunks around each campaign: a campaign runs far longer than a grid point.
CAMPAIGN_SPEED_SAMPLES = 3


def workload_seed(seed: int) -> int:
    """Fold a benchmark seed onto the reference seeds (42 maps to itself)."""
    first = REFERENCE_SEEDS[0]
    return REFERENCE_SEEDS[(seed - first) % len(REFERENCE_SEEDS)]


def result_digest(result: Any) -> str:
    """Short SHA-256 of a result's canonical ``to_dict()`` (``"missing"`` for none)."""
    if result is None:
        return "missing"
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def combined_digest(point_digests: Sequence[str]) -> str:
    """The workload digest: SHA-256 over the ordered point digests."""
    return hashlib.sha256("\n".join(point_digests).encode("utf-8")).hexdigest()


def spec_accesses(spec: Any) -> int:
    """Simulated accesses of one point: trace length times program traces."""
    if spec.sim == "multicore":
        return spec.num_accesses * len(spec.benchmarks)
    if spec.sim == "multiprogram":
        return spec.num_accesses * 2
    return spec.num_accesses


@dataclass
class PassResult:
    """What one pass did and produced."""

    #: Host seconds spent in the points (the speed samples excluded).
    wall_s: float = 0.0
    #: Host speed over the pass, relative to the reference host.
    host_speed: float = 1.0
    #: Simulated accesses of the points actually executed (not cache hits).
    accesses: int = 0
    #: Point identifiers (``fig4:0``, ``mcf/dbcp``) and result digests, aligned.
    point_ids: List[str] = field(default_factory=list)
    point_digests: List[str] = field(default_factory=list)
    #: Points that did not end with status ``ok`` (or raised).
    not_ok: List[str] = field(default_factory=list)
    #: Every ``CampaignResult`` the pass's sweeps returned, in order (traced passes).
    campaigns: List[Any] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return combined_digest(self.point_digests)

    @property
    def reference_wall_s(self) -> float:
        """``wall_s`` rescaled to the reference host speed."""
        return self.wall_s * self.host_speed

    def record(self, point_id: str, value: Any, ok: bool = True, error: Optional[str] = None) -> None:
        """Add one point's outcome (digests are taken after the timed region)."""
        self.point_ids.append(point_id)
        self.point_digests.append("error" if error is not None else result_digest(value))
        if error is not None:
            self.errors.append(f"{point_id}: {error}")
        if error is not None or not ok or value is None:
            self.not_ok.append(point_id)


@contextmanager
def _sampling_after_each_point(clock: HostClock) -> Iterator[None]:
    """Let ``clock`` sample host speed after every point ``execute_spec`` runs in this process.

    A serial campaign runs for seconds, so samples between campaigns alone
    miss most of the host's swings.  The samples land between points,
    outside the timed work: the pass subtracts their time from its wall.
    """
    import repro.run

    execute_spec = repro.run.execute_spec

    def sampled(*args: Any, **kwargs: Any) -> Any:
        try:
            return execute_spec(*args, **kwargs)
        finally:
            clock.sample_if_due()

    repro.run.execute_spec = sampled
    try:
        yield
    finally:
        repro.run.execute_spec = execute_spec


def _recording_session(**kwargs: Any) -> Any:
    """A ``Session`` that keeps every ``CampaignResult`` its sweeps return."""
    from repro.run import Session

    class RecordingSession(Session):
        def __init__(self, **session_kwargs: Any) -> None:
            super().__init__(**session_kwargs)
            self.campaigns: List[Any] = []

        def sweep(self, spec: Any, name: Optional[str] = None, resume: Optional[bool] = None) -> Any:
            result = super().sweep(spec, name=name, resume=resume)
            self.campaigns.append(result)
            return result

    return RecordingSession(**kwargs)


@dataclass(frozen=True)
class FiguresWorkload:
    """All eight paper campaigns through one ``Session(jobs=...)``."""

    name: str
    jobs: int
    #: The workload whose reference digests this one must reproduce.
    reference: str
    num_accesses: int = 3000
    benchmarks: Tuple[str, ...] = FIGURE_BENCHMARKS
    pairings: Tuple[Tuple[str, str], ...] = FIG11_PAIRINGS
    campaigns: Tuple[str, ...] = CAMPAIGNS

    def trace_benchmarks(self) -> List[str]:
        paired = {name for pairing in self.pairings for name in pairing}
        return sorted(set(self.benchmarks) | paired)

    def run_pass(self, seed: int, cache_dir: str, tracer: Any = None) -> PassResult:
        from repro.campaign.cache import ResultCache

        out = PassResult()
        session = _recording_session(jobs=self.jobs, cache=ResultCache(cache_dir))
        outcomes: List[Tuple[str, Any]] = []  # (campaign, its CampaignResults or the error)
        clock = HostClock()
        # Pool workers would inherit the sampler, and a traced pass would
        # count the samples in its spans: both sample between campaigns only.
        sampler = _sampling_after_each_point(clock) if self.jobs == 1 and tracer is None else nullcontext()
        with sampler:
            self._run_campaigns(seed, session, tracer, clock, out, outcomes)
        clock.sample(CAMPAIGN_SPEED_SAMPLES)
        out.host_speed = clock.speed
        if tracer is not None:
            # Only the traced pass needs them; keeping every pass's results
            # alive would inflate the process's peak memory.
            out.campaigns = session.campaigns

        for campaign, outcome in outcomes:
            if isinstance(outcome, Exception):
                out.record(f"{campaign}:error", None, error=f"{type(outcome).__name__}: {outcome}")
                continue
            points = [
                point
                for result in outcome
                for point in zip(result.points, result.results, result.point_status, result.point_cached)
            ]
            for index, (spec, value, status, cached) in enumerate(points):
                out.record(f"{campaign}:{index}", value, ok=status == "ok")
                if not cached:
                    out.accesses += spec_accesses(spec)
        return out

    def _run_campaigns(
        self, seed: int, session: Any, tracer: Any, clock: HostClock,
        out: PassResult, outcomes: List[Tuple[str, Any]],
    ) -> None:
        from repro.cli import NAMED_CAMPAIGNS

        for campaign in self.campaigns:
            module = importlib.import_module(NAMED_CAMPAIGNS[campaign][0])
            kwargs: Dict[str, Any] = {
                "session": session, "num_accesses": self.num_accesses, "seed": seed,
            }
            if campaign == "fig11":
                kwargs["pairings"] = list(self.pairings)
            else:
                kwargs["benchmarks"] = list(self.benchmarks)
            first = len(session.campaigns)
            span = tracer.span(f"experiments.{campaign}") if tracer is not None else nullcontext()
            clock.sample(CAMPAIGN_SPEED_SAMPLES)
            started, sampled = time.perf_counter(), clock.seconds
            try:
                with span:
                    module.format_results(module.run(**kwargs))
            except Exception as error:  # counted as a failed point, the pass goes on
                outcomes.append((campaign, error))
            else:
                outcomes.append((campaign, session.campaigns[first:]))
            out.wall_s += time.perf_counter() - started - (clock.seconds - sampled)


@dataclass(frozen=True)
class ReplayGridWorkload:
    """Single-core replays, benchmark x predictor, on the default engine."""

    name: str = "replay-grid"
    reference: str = "replay-grid"
    num_accesses: int = 25_000
    benchmarks: Tuple[str, ...] = GRID_BENCHMARKS
    predictors: Tuple[str, ...] = GRID_PREDICTORS

    def trace_benchmarks(self) -> List[str]:
        return sorted(self.benchmarks)

    def run_pass(self, seed: int, cache_dir: str, tracer: Any = None) -> PassResult:
        from repro.run import Session

        out = PassResult()
        session = Session(use_cache=False)
        outcomes: List[Tuple[str, Any, Optional[str]]] = []  # (point id, result, error)
        clock = HostClock()
        for benchmark in self.benchmarks:
            for predictor in self.predictors:
                point_id = f"{benchmark}/{predictor}"
                clock.sample()
                started = time.perf_counter()
                try:
                    result = session.run(
                        benchmark, predictor=predictor, num_accesses=self.num_accesses, seed=seed
                    )
                except Exception as error:  # counted as a failed point, the pass goes on
                    outcomes.append((point_id, None, f"{type(error).__name__}: {error}"))
                else:
                    outcomes.append((point_id, result, None))
                out.wall_s += time.perf_counter() - started
        clock.sample()
        out.host_speed = clock.speed

        for point_id, result, error in outcomes:
            out.record(point_id, result, error=error)
            if error is None:
                out.accesses += self.num_accesses
        return out


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        # What a researcher runs: every campaign, serial.  The only
        # workload reaching the timing, multiprogram and multicore models.
        FiguresWorkload("figures-quick", jobs=1, reference="figures-quick"),
        # Long single-core replays: per-access replay cost dominates.
        ReplayGridWorkload(),
        # The same campaigns through the process pool `figures all` uses.
        FiguresWorkload("figures-pool", jobs=2, reference="figures-quick"),
    )
}


def check_pass(result: PassResult, reference: Optional[Dict[str, Any]]) -> List[str]:
    """Point ids that failed: not ``ok``, or a digest differing from ``reference``.

    ``reference`` is the committed entry for this workload and seed
    (``{"digest": ..., "points": {id: digest}}``); without one, no point
    can be verified and every point fails.
    """
    expected = (reference or {}).get("points", {})
    failed = set(result.not_ok)
    failed.update(
        point_id
        for point_id, digest in zip(result.point_ids, result.point_digests)
        if expected.get(point_id) != digest
    )
    if reference is not None and not failed and result.digest != reference["digest"]:
        # Every point it ran matches, but the pass ran a different point set.
        failed.add("<workload digest>")
    return sorted(failed)


def reference_entry(references: Dict[str, Any], workload: Any, seed: int) -> Optional[Dict[str, Any]]:
    return references.get(workload.reference, {}).get(str(seed))


def make_reference(result: PassResult) -> Dict[str, Any]:
    return {"digest": result.digest, "points": dict(zip(result.point_ids, result.point_digests))}
