"""The unified ``python -m repro`` command line.

One front door for the whole reproduction, with subcommands sharing flag
parsing and output formatting::

    python -m repro info                       # registries, cache, trace store, kernel
    python -m repro run mcf --predictor dbcp --accesses 20000
    python -m repro run mcf --sim timing --perfect-l1
    python -m repro sweep --benchmarks mcf swim --predictors ltcords ghb
    python -m repro figures fig8 --quick       # paper figures/tables
    python -m repro bench --quick              # perf harness (repro.bench)
    python -m repro trace list                 # trace store (repro.trace)

``run`` and ``sweep`` drive the :class:`repro.run.Session` facade;
``figures`` runs the named experiment drivers; ``bench`` and ``trace``
mount the existing harness CLIs as subcommands.  The per-subsystem entry
points (``python -m repro.campaign`` etc.) remain and share these
implementations.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.spec import DEFAULT_NUM_ACCESSES, PredictorVariant, SweepSpec
from repro.registry import ENGINE_NAMES, predictor_entry
from repro.resilience import RetryPolicy
from repro.run import RunSpec, Session
from repro.version import __version__

#: Paper figure/table campaigns runnable by name (``figures`` subcommand
#: and ``python -m repro.campaign run <name>``).  Each entry is the
#: experiment-driver module (exposing ``run``/``format_results``) and a
#: one-line description.
NAMED_CAMPAIGNS = {
    "fig4": ("repro.experiments.fig4_dbcp_sensitivity", "DBCP coverage vs correlation-table size"),
    "fig8": ("repro.experiments.fig8_coverage", "LT-cords coverage vs unlimited DBCP"),
    "fig9": ("repro.experiments.fig9_sigcache", "Coverage vs signature-cache size"),
    "fig10": ("repro.experiments.fig10_storage", "Coverage vs off-chip sequence storage"),
    "fig11": ("repro.experiments.fig11_multiprogram", "Multi-programmed coverage retention"),
    "fig12": ("repro.experiments.fig12_bandwidth", "Memory-bus utilisation breakdown"),
    "table2": ("repro.experiments.table2_baseline", "Baseline miss rates and IPC"),
    "table3": ("repro.experiments.table3_speedup", "Speedup over the baseline processor"),
}

#: Trace length the ``--quick`` figure mode uses when none is given.
QUICK_FIGURE_ACCESSES = 20_000


# ---------------------------------------------------------------------------
# Shared formatting (also used by python -m repro.campaign).
# ---------------------------------------------------------------------------

def format_table(headers, rows) -> str:
    """Fixed-width text table (re-exported from the experiments layer)."""
    from repro.experiments.common import format_table as _format_table

    return _format_table(headers, rows)


def format_result(result: Any) -> str:
    """Human-readable summary of any simulation result kind."""
    lines: List[str] = []
    if hasattr(result, "breakdown") and hasattr(result, "prefetch_accuracy"):
        # SimulationResult (functional trace-driven run).
        b = result.breakdown
        lines += [
            f"benchmark            : {result.benchmark}",
            f"predictor            : {result.predictor}",
            f"references simulated : {result.num_accesses}",
            f"baseline L1D misses  : {result.baseline_l1_misses} "
            f"({100 * result.baseline_l1_miss_rate:.1f}% of accesses)",
            f"baseline L2 miss rate: {100 * result.baseline_l2_miss_rate:.1f}%",
            "opportunity breakdown (Figure 8 categories):",
            f"  correct   : {b.coverage_pct:6.1f}%",
            f"  incorrect : {b.incorrect_pct:6.1f}%",
            f"  train     : {b.train_pct:6.1f}%",
            f"  early     : {b.early_pct:6.1f}% (above 100%)",
            f"prefetches issued/used: {result.prefetches_issued} / {result.prefetches_used} "
            f"({100 * result.prefetch_accuracy:.1f}% accuracy)",
        ]
    elif hasattr(result, "ipc"):
        # TimingResult.
        lines += [
            f"benchmark   : {result.benchmark}",
            f"predictor   : {result.predictor}",
            f"accesses    : {result.accesses}",
            f"IPC         : {result.ipc:.3f}",
            f"cycles      : {result.cycles:.0f}",
            f"L1D misses  : {result.l1_misses} ({100 * result.l1_miss_rate:.1f}%)",
            f"L2 misses   : {result.l2_misses}",
        ]
    elif hasattr(result, "per_core"):
        # MulticoreResult.
        lines.append(
            f"cores                : {result.num_cores} "
            f"({result.interleave} interleave)"
        )
        for index, core in enumerate(result.per_core):
            lines.append(
                f"  core{index} {result.benchmarks[index]}/{core.predictor}: "
                f"coverage {100 * core.coverage:.1f}%, "
                f"accuracy {100 * core.prefetch_accuracy:.1f}%, "
                f"L1D miss rate {100 * core.baseline_l1_miss_rate:.1f}% (baseline)"
            )
        lines += [
            f"aggregate coverage   : {100 * result.coverage:.1f}% "
            f"({100 * result.prefetch_accuracy:.1f}% accuracy)",
            f"shared L2            : {result.shared_l2_accesses} accesses, "
            f"{100 * result.shared_l2_miss_rate:.1f}% miss rate",
            f"cross-core evictions : {result.cross_core_evictions} "
            f"(prefetch-caused per core: {result.prefetch_cross_core_evictions})",
            f"bus                  : {sum(result.bus_bytes.values())} bytes, "
            f"occupancy {100 * result.bus_occupancy():.1f}% (est. at 1 IPC)",
        ]
    elif hasattr(result, "primary_coverage"):
        # MultiProgramResult.
        lines += [
            f"pairing               : {result.primary} + {result.secondary}",
            f"{result.primary} coverage    : {100 * result.primary_coverage:.1f}% "
            f"(standalone {100 * result.primary_standalone_coverage:.1f}%)",
            f"{result.secondary} coverage    : {100 * result.secondary_coverage:.1f}% "
            f"(standalone {100 * result.secondary_standalone_coverage:.1f}%)",
            f"context switches      : {result.context_switches}",
        ]
    else:  # pragma: no cover - new result kinds format themselves via to_dict
        lines.append(json.dumps(result.to_dict(), indent=2))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def configure_run_parser(parser: argparse.ArgumentParser) -> None:
    """Flags for running one simulation point through the Session facade."""
    parser.add_argument("benchmark",
                        help="benchmark name (see `info`); a comma-separated list "
                             "(e.g. mcf,art) co-runs one benchmark per core through "
                             "the shared-L2 multicore simulator")
    parser.add_argument("--predictor", default="ltcords",
                        help="predictor name (default ltcords); comma-separate for "
                             "a heterogeneous per-core mix in multicore runs")
    parser.add_argument("--cores", type=int, default=None,
                        help="co-run N cores over a shared L2 (benchmark names cycle "
                             "to fill the cores)")
    parser.add_argument("--interleave", choices=["rr", "icount"], default="rr",
                        help="multicore only: core interleaving policy (default rr)")
    parser.add_argument("--accesses", type=int, default=DEFAULT_NUM_ACCESSES,
                        help=f"trace length (default {DEFAULT_NUM_ACCESSES})")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument("--engine", choices=list(ENGINE_NAMES), default="fast",
                        help="simulation engine (default fast)")
    parser.add_argument("--sim", choices=["trace", "timing", "multiprogram"], default="trace",
                        help="simulator kind (default trace)")
    parser.add_argument("--perfect-l1", action="store_true",
                        help="timing only: model a perfect L1D instead of a predictor")
    parser.add_argument("--secondary", default=None,
                        help="multiprogram only: co-scheduled benchmark")
    parser.add_argument("--quantum-instructions", type=int, default=20_000,
                        help="multiprogram only: context-switch quantum (default 20000)")
    parser.add_argument("--max-switches", type=int, default=60,
                        help="multiprogram only: context switches (default 60)")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the result as JSON instead of a summary")


def _multicore_spec_from_args(args: argparse.Namespace):
    """Build a :class:`~repro.multicore.MulticoreSpec` from run-subcommand flags."""
    from repro.multicore import MulticoreSpec, expand_core_benchmarks
    from repro.registry import workload_entry

    if args.sim != "trace":
        raise ValueError("--cores applies to the trace-driven simulator only")
    if args.perfect_l1 or args.secondary is not None:
        raise ValueError("--perfect-l1/--secondary do not apply to multicore runs")
    if args.quantum_instructions != 20_000 or args.max_switches != 60:
        raise ValueError(
            "--quantum-instructions/--max-switches are multiprogram flags; "
            "multicore interleaving is controlled by --interleave"
        )
    names = [name for name in args.benchmark.split(",") if name]
    for name in names:
        workload_entry(name)  # fail fast with the available-names message
    if args.cores is not None and args.cores < len(names):
        raise ValueError(
            f"--cores {args.cores} is smaller than the {len(names)} per-core "
            f"benchmarks given; drop --cores or name at most that many"
        )
    predictors = tuple(name for name in args.predictor.split(",") if name)
    benchmarks = expand_core_benchmarks(names, args.cores if args.cores is not None else len(names))
    if len(predictors) not in (1, len(benchmarks)):
        raise ValueError(
            f"--predictor must name one predictor or one per core "
            f"({len(benchmarks)}), got {len(predictors)}"
        )
    return MulticoreSpec(
        benchmarks=benchmarks,
        predictors=predictors,
        num_accesses=args.accesses,
        seed=args.seed,
        engine=args.engine,
        interleave=args.interleave,
    )


def run_point_cli(args: argparse.Namespace) -> int:
    """Run one point (``python -m repro run ...``)."""
    if args.cores is not None or "," in args.benchmark:
        spec = _multicore_spec_from_args(args)
    else:
        if args.interleave != "rr":
            raise ValueError("--interleave applies to multicore runs only (pass --cores)")
        spec = RunSpec(
            benchmark=args.benchmark,
            predictor=args.predictor,
            num_accesses=args.accesses,
            seed=args.seed,
            engine=args.engine,
            sim=args.sim,
            perfect_l1=args.perfect_l1,
            secondary=args.secondary,
            quantum_instructions=args.quantum_instructions,
            max_switches=args.max_switches,
        )
    session = Session(use_cache=not args.no_cache, observer=getattr(args, "observer", None))
    started = time.monotonic()
    result = session.run(spec)
    elapsed = time.monotonic() - started
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_result(result))
        print(f"elapsed     : {elapsed:.2f}s")
    return 0


# ---------------------------------------------------------------------------
# resilience flags (shared by sweep / figures / python -m repro.campaign run)
# ---------------------------------------------------------------------------

def add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Retry/timeout/resume flags shared by every campaign-running command."""
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-attempts per failing point with deterministic "
                             "exponential backoff (default 0; --on-error=retry "
                             "implies 2)")
    parser.add_argument("--point-timeout", type=float, default=None, metavar="SECONDS",
                        dest="point_timeout",
                        help="wall-clock budget per point attempt, enforced in "
                             "serial and pooled execution alike")
    parser.add_argument("--on-error", choices=["fail", "skip", "retry"], default=None,
                        dest="on_error",
                        help="failing point disposition: fail = abort the campaign "
                             "(default), skip = record it skipped and continue, "
                             "retry = retry then record failed and continue")
    parser.add_argument("--resume", action="store_true",
                        help="continue a crashed/interrupted campaign: skip every "
                             "point the campaign journal records as completed and "
                             "whose result verifies from the cache")


def retry_policy_from_args(args: argparse.Namespace) -> Optional[RetryPolicy]:
    """The :class:`RetryPolicy` the resilience flags describe (``None`` = default)."""
    if (
        getattr(args, "retries", None) is None
        and getattr(args, "point_timeout", None) is None
        and getattr(args, "on_error", None) is None
    ):
        return None
    return RetryPolicy(
        retries=args.retries if args.retries is not None else 0,
        on_error=args.on_error if args.on_error is not None else "fail",
        timeout_s=args.point_timeout,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def configure_sweep_parser(parser: argparse.ArgumentParser) -> None:
    """Flags for an ad-hoc benchmark x predictor grid (shared with repro.campaign)."""
    parser.add_argument("--benchmarks", nargs="+",
                        help="benchmarks to sweep (default: representative subset); "
                             "with --cores, each entry may be a comma-separated "
                             "per-core group (e.g. mcf,art)")
    parser.add_argument("--predictors", nargs="+", default=["ltcords"],
                        help="predictors to cross with (default: ltcords)")
    parser.add_argument("--cores", type=int, default=None,
                        help="sweep shared-L2 multicore co-runs of N cores instead of "
                             "single-core points (single names co-run with themselves)")
    parser.add_argument("--interleave", choices=["rr", "icount"], default="rr",
                        help="multicore sweeps only: core interleaving policy (default rr)")
    parser.add_argument("--num-accesses", nargs="+", type=int, default=None,
                        help="trace lengths to sweep")
    parser.add_argument("--seeds", nargs="+", type=int, default=None,
                        help="workload seeds to sweep")
    parser.add_argument("--engine", choices=list(ENGINE_NAMES), default="fast",
                        help="simulation engine for every point (default fast)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPU count)")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="skip writing JSON/CSV artifacts")
    add_resilience_flags(parser)


def _multicore_sweep_points(args: argparse.Namespace) -> List[Any]:
    """Materialise a multicore co-run grid from sweep-subcommand flags."""
    from repro.multicore import MulticoreSpec, expand_core_benchmarks
    from repro.experiments.common import selected_benchmarks
    from repro.registry import workload_entry

    entries = args.benchmarks if args.benchmarks else selected_benchmarks(None)
    cores = args.cores if args.cores is not None else 1
    points: List[Any] = []
    for entry in entries:
        names = [name for name in entry.split(",") if name]
        for name in names:
            workload_entry(name)  # fail fast with the available-names message
        if args.cores is not None and args.cores < len(names):
            raise ValueError(
                f"--cores {args.cores} is smaller than the {len(names)} per-core "
                f"benchmarks in group {entry!r}"
            )
        group = expand_core_benchmarks(names, cores)
        for predictor in args.predictors:
            for accesses in (args.num_accesses if args.num_accesses is not None
                             else [DEFAULT_NUM_ACCESSES]):
                for seed in (args.seeds if args.seeds is not None else [42]):
                    points.append(MulticoreSpec(
                        benchmarks=group,
                        predictors=(predictor,),
                        num_accesses=accesses,
                        seed=seed,
                        engine=args.engine,
                        interleave=args.interleave,
                        label=entry,
                    ))
    return points


def _sweep_row(point: Any, result: Any, status: Optional[str] = None) -> tuple:
    """One summary-table row for any (spec, result) kind.

    ``result`` is ``None`` for points a continue-on-error retry policy
    gave up on; their metric cells show the point's status instead.
    """
    benchmarks = getattr(point, "benchmarks", None)
    if benchmarks:
        benchmark, predictor = "+".join(benchmarks), "/".join(sorted(set(point.core_predictors)))
    else:
        benchmark, predictor = point.benchmark, point.predictor
    if result is None:
        placeholder = status or "-"
        return (benchmark, predictor, point.num_accesses, point.seed, placeholder, placeholder)
    return (
        benchmark, predictor, point.num_accesses, point.seed,
        f"{100 * result.coverage:.1f}%", f"{100 * result.prefetch_accuracy:.1f}%",
    )


def run_sweep_cli(args: argparse.Namespace) -> int:
    """Run an ad-hoc grid through the Session facade and print a summary table."""
    from repro.campaign.artifacts import ArtifactStore
    from repro.experiments.common import selected_benchmarks

    for predictor in args.predictors:
        predictor_entry(predictor)  # fail fast with the available-names message
    multicore = getattr(args, "cores", None) is not None or any(
        "," in entry for entry in (args.benchmarks or ())
    )
    session = Session(
        engine=args.engine,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        observer=getattr(args, "observer", None),
        retry=retry_policy_from_args(args),
        resume=getattr(args, "resume", False),
    )
    sweep_name = None
    if multicore:
        points = _multicore_sweep_points(args)
        spec: Any = points
        cores = args.cores if args.cores is not None else 1
        sweep_name = f"adhoc-{cores}x-" + "-".join(args.predictors)
        count, groups = len(points), len({p.benchmarks for p in points})
        print(f"Running {count} multicore co-runs over {groups} core groups "
              f"(jobs={session.runner.jobs}) ...")
    else:
        benchmarks = selected_benchmarks(args.benchmarks)
        spec = SweepSpec(
            name="adhoc-" + "-".join(args.predictors),
            benchmarks=benchmarks,
            variants=[PredictorVariant(predictor) for predictor in args.predictors],
            num_accesses=args.num_accesses if args.num_accesses is not None else [DEFAULT_NUM_ACCESSES],
            seeds=args.seeds if args.seeds is not None else [42],
        )
        print(f"Running {len(spec)} points over {len(benchmarks)} benchmarks "
              f"(jobs={session.runner.jobs}) ...")
    campaign = session.sweep(spec, name=sweep_name)
    statuses = campaign.point_status if len(campaign.point_status) == len(campaign) else None
    print(format_table(
        ["benchmark", "predictor", "accesses", "seed", "coverage", "accuracy"],
        [_sweep_row(point, result, statuses[index] if statuses else None)
         for index, (point, result) in enumerate(campaign.items())],
    ))
    print(
        f"\n{len(campaign)} points in {campaign.elapsed_seconds:.2f}s "
        f"({campaign.cached_count} cached, {campaign.computed_count} computed, "
        f"jobs={campaign.jobs})"
    )
    extras = []
    counts = campaign.status_counts()
    if any(counts.get(status) for status in ("retried", "skipped", "failed")):
        extras.append("status: " + ", ".join(
            f"{count} {status}" for status, count in sorted(counts.items()) if count))
    if campaign.resumed_count:
        extras.append(f"resumed past {campaign.resumed_count} journaled points")
    if campaign.respawn_count:
        extras.append(f"worker pool respawned {campaign.respawn_count}x")
    if extras:
        print("; ".join(extras))
    if not args.no_artifacts:
        for path in ArtifactStore().write(campaign):
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def configure_figures_parser(parser: argparse.ArgumentParser) -> None:
    """Flags for regenerating the paper's figures/tables by name."""
    parser.add_argument("name", choices=sorted(NAMED_CAMPAIGNS) + ["all"],
                        help="figure/table to regenerate (or 'all')")
    parser.add_argument("--quick", action="store_true",
                        help=f"small smoke configuration (quick benchmark subset, "
                             f"{QUICK_FIGURE_ACCESSES} accesses)")
    parser.add_argument("--benchmarks", nargs="+", help="benchmarks to sweep")
    parser.add_argument("--accesses", type=int, default=None, help="trace length per point")
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or CPU count)")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    add_resilience_flags(parser)


def run_named_campaign(
    name: str,
    benchmarks: Optional[List[str]] = None,
    num_accesses: Optional[int] = None,
    seed: Optional[int] = None,
    session: Optional[Session] = None,
    quick: bool = False,
) -> int:
    """Run one named figure/table driver and print its formatted results.

    ``quick`` substitutes the quick benchmark subset and a short trace
    length for anything not explicitly overridden (figure 11 sweeps
    fixed benchmark pairings, so only the trace length applies there).
    """
    from repro.experiments.common import QUICK_BENCHMARKS

    module_name, description = NAMED_CAMPAIGNS[name]
    module = importlib.import_module(module_name)
    kwargs: Dict[str, Any] = {"session": session if session is not None else Session()}
    if quick:
        if benchmarks is None and name != "fig11":
            benchmarks = list(QUICK_BENCHMARKS)
        if num_accesses is None:
            num_accesses = QUICK_FIGURE_ACCESSES
    if benchmarks is not None:
        if name == "fig11":
            raise ValueError("fig11 sweeps benchmark pairings; --benchmarks does not apply")
        kwargs["benchmarks"] = benchmarks
    if num_accesses is not None:
        kwargs["num_accesses"] = num_accesses
    if seed is not None:
        kwargs["seed"] = seed
    print(f"Running campaign {name!r} — {description}")
    print(module.format_results(module.run(**kwargs)))
    return 0


def run_figures_cli(args: argparse.Namespace) -> int:
    """Run one or all named figure/table campaigns."""
    names = sorted(NAMED_CAMPAIGNS) if args.name == "all" else [args.name]
    session = Session(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        observer=getattr(args, "observer", None),
        retry=retry_policy_from_args(args),
        resume=getattr(args, "resume", False),
    )
    for name in names:
        benchmarks = args.benchmarks
        if name == "fig11" and args.name == "all":
            benchmarks = None  # fig11 has fixed pairings; don't reject an 'all' run
        run_named_campaign(
            name,
            benchmarks=benchmarks,
            num_accesses=args.accesses,
            seed=args.seed,
            session=session,
            quick=args.quick,
        )
    return 0


# ---------------------------------------------------------------------------
# obs
# ---------------------------------------------------------------------------

def configure_obs_parser(parser: argparse.ArgumentParser) -> None:
    """Subcommands for working with structured JSONL event logs."""
    sub = parser.add_subparsers(dest="obs_command", required=True)
    summary = sub.add_parser(
        "summary", help="aggregate an event log into per-phase percentiles",
        description="Fold a --log-json event log into per-phase and per-point "
                    "duration percentiles, cache-hit rates, and warnings.")
    summary.add_argument("log", help="path to a JSONL event log")
    summary.add_argument("--json", action="store_true", dest="as_json",
                         help="print the summary as JSON instead of a table")
    check = sub.add_parser(
        "check", help="validate an event log against the schema",
        description="Validate schema versions, event types and required fields; "
                    "exit 1 when the log is malformed or incomplete.")
    check.add_argument("log", help="path to a JSONL event log")
    check.add_argument("--require", nargs="+", default=["run_start", "run_end"],
                       metavar="TYPE",
                       help="event types that must appear at least once "
                            "(default: run_start run_end)")


def run_obs_cli(args: argparse.Namespace) -> int:
    """``python -m repro obs summary|check <events.jsonl>``."""
    from repro.obs.events import check_events, read_events
    from repro.obs.summary import format_summary, summarize_events

    try:
        events = read_events(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read event log: {exc}", file=sys.stderr)
        return 2
    if args.obs_command == "summary":
        if not events:
            print(f"error: event log {args.log} holds no events", file=sys.stderr)
            return 2
        summary = summarize_events(events)
        if args.as_json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_summary(summary))
        return 0
    problems = check_events(events, require_types=tuple(args.require))
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    print(f"ok: {len(events)} events, schema valid, "
          f"required types present ({', '.join(args.require)})")
    return 0


# ---------------------------------------------------------------------------
# doctor
# ---------------------------------------------------------------------------

def configure_doctor_parser(parser: argparse.ArgumentParser) -> None:
    """Flags for scanning/repairing the stores (``python -m repro doctor``)."""
    parser.add_argument("--trace-dir", default=None, metavar="PATH",
                        help="trace-store root to scan (default: REPRO_TRACE_DIR "
                             "or .repro_traces)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="result-cache root to scan (default: REPRO_CACHE_DIR "
                             "or .repro_cache)")
    parser.add_argument("--repair", action="store_true",
                        help="move damaged entries into the store's quarantine/ "
                             "sibling and trim torn journal tails (regeneration "
                             "is automatic on the next read; nothing is deleted)")
    parser.add_argument("--gc", action="store_true",
                        help="reclaim quarantined entries, orphaned *.tmp files "
                             "and stale single-flight leases")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full report as JSON")


def run_doctor_cli(args: argparse.Namespace) -> int:
    """``python -m repro doctor [--repair] [--gc] [--json]``."""
    from repro.integrity import run_doctor

    report = run_doctor(
        trace_root=args.trace_dir,
        cache_root=args.cache_dir,
        repair=args.repair,
        gc=args.gc,
    )
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        scanned = report["scanned"]
        print(f"doctor: scanned {scanned['trace_entries']} trace entries "
              f"({report['trace_root']}), {scanned['cache_entries']} cache entries "
              f"({report['cache_root']}), {scanned['journals']} journals")
        for finding in report["findings"]:
            action = f" -> {finding['action']}" if finding["action"] else ""
            print(f"  [{finding['severity']}] {finding['store']}: "
                  f"{finding['problem']} {finding['path']} "
                  f"({finding['detail']}){action}")
        summary = (f"{report['errors']} error(s), {report['warnings']} warning(s), "
                   f"{report['repaired']} quarantined, {report['trimmed']} trimmed, "
                   f"{report['removed']} removed")
        print(f"doctor: {summary}")
        print("doctor: ok" if report["ok"]
              else f"doctor: {report['unresolved']} unresolved problem(s) "
                   f"(re-run with --repair)")
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def _print_obs_info(obs: Dict[str, Any]) -> None:
    """Render the live metric registry (``info --obs``)."""
    def rate(value: Optional[float]) -> str:
        return f"{100 * value:.1f}%" if value is not None else "n/a"

    print("Observability (this process):")
    print(f"  points executed   : {obs['points_executed']}")
    print(f"  accesses replayed : {obs['accesses_replayed']}")
    print(f"  cache hit rate    : {rate(obs['cache_hit_rate'])} "
          f"({obs['cache_corrupt']} corrupt entries)")
    print(f"  trace-store hits  : {rate(obs['trace_store_hit_rate'])}")
    if obs["phases"]:
        print(f"  {'phase':<16} {'count':>6} {'total':>10} {'p50':>10} {'p95':>10}")
        for name, stats in sorted(obs["phases"].items()):
            p50 = f"{stats['p50']:.4f}s" if stats.get("p50") is not None else "-"
            p95 = f"{stats['p95']:.4f}s" if stats.get("p95") is not None else "-"
            print(f"  {name:<16} {stats['count']:>6} {stats['total']:>9.4f}s "
                  f"{p50:>10} {p95:>10}")


def run_info_cli(args: argparse.Namespace) -> int:
    """Print the environment snapshot: registries, cache, trace store and kernel."""
    session = Session()
    info = session.info()
    print(f"repro {info['version']} — Ferdman & Falsafi, ISPASS 2007 reproduction")
    print()
    print("Predictors:")
    print(format_table(
        ["name", "description"],
        [(name, description) for name, description in sorted(info["predictors"].items())],
    ))
    print()
    total = sum(len(names) for names in info["benchmarks"].values())
    print(f"Benchmarks ({total}):")
    for suite in sorted(info["benchmarks"]):
        print(f"  {suite:<8}: {', '.join(sorted(info['benchmarks'][suite]))}")
    print()
    print("Figures/tables (python -m repro figures <name>):")
    print(format_table(
        ["name", "description"],
        [(name, description) for name, (_, description) in sorted(NAMED_CAMPAIGNS.items())],
    ))
    print()
    cache, store = info["cache"], info["trace_store"]
    cache_state = "" if cache["enabled"] else " [disabled]"
    store_state = "" if store["enabled"] else " [disabled]"
    print(f"Result cache: {cache['root']} ({cache['entries']} entries, "
          f"{cache['bytes']} bytes){cache_state}")
    print(f"Trace store : {store['root']} ({store['entries']} traces, "
          f"{store['bytes']} bytes, format v{store['format_version']}){store_state}")
    kernel = info["kernel"]
    tier = "compiled" if kernel["loaded"] else f"unavailable ({kernel['reason']}): runs interpreted"
    print(f"Kernel      : {tier}, cache {kernel['cache_dir']}")
    if getattr(args, "show_obs", False):
        print()
        _print_obs_info(info["obs"])
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and dispatch.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The unified parser: every subsystem mounted as one subcommand."""
    from repro.bench import __main__ as bench_cli
    from repro.trace import __main__ as trace_cli

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Last-Touch Correlated Data Streaming (ISPASS 2007).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--log-json", metavar="PATH", default=None,
                        help="append structured run events to PATH as JSON lines "
                             "(see `obs summary`)")
    parser.add_argument("--progress", action="store_true",
                        help="stream live per-point progress lines to stderr")
    parser.add_argument("--profile", action="store_true",
                        help="after the command, print the per-phase time split "
                             "(p50/p95/p99) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    configure_run_parser(sub.add_parser(
        "run", help="run one simulation point (cached)",
        description="Run one simulation point through the Session facade."))
    configure_sweep_parser(sub.add_parser(
        "sweep", help="run an ad-hoc benchmark x predictor grid",
        description="Run a cached, parallel sweep over a benchmark x predictor grid."))
    configure_figures_parser(sub.add_parser(
        "figures", help="regenerate a paper figure/table",
        description="Run the named figure/table experiment drivers."))
    bench_cli.configure_parser(sub.add_parser(
        "bench", help="performance harness (repro.bench)",
        description="Time repro micro/macro benchmarks and diff against a baseline."))
    trace_cli.configure_parser(sub.add_parser(
        "trace", help="trace-store management (repro.trace)",
        description="List, prewarm or clean the content-addressed trace store."))
    configure_obs_parser(sub.add_parser(
        "obs", help="inspect structured event logs (repro.obs)",
        description="Summarise or validate the JSONL event logs --log-json writes."))
    configure_doctor_parser(sub.add_parser(
        "doctor", help="scan/verify/repair the stores (repro.integrity)",
        description="Verify every trace-store entry, result-cache entry and "
                    "campaign journal; quarantine damage with --repair, reclaim "
                    "debris with --gc."))
    info = sub.add_parser(
        "info", help="show registries, cache, trace-store and kernel state",
        description="Show predictors, benchmarks, named figures, cache, trace-store "
                    "and replay-kernel state.")
    info.add_argument("--obs", action="store_true", dest="show_obs",
                      help="also print this process's live metric registry")
    return parser


def _build_observer(args: argparse.Namespace):
    """The composed observer the global ``--log-json``/``--progress`` flags ask for."""
    from repro.obs.observer import JsonlObserver, StderrProgressObserver, compose

    return compose(
        JsonlObserver(args.log_json) if getattr(args, "log_json", None) else None,
        StderrProgressObserver() if getattr(args, "progress", False) else None,
    )


def _print_profile() -> None:
    """Per-phase time split of this process (the ``--profile`` flag)."""
    from repro.run import Session

    obs = Session.obs_info()
    if not obs["phases"]:
        print("profile: no phases recorded", file=sys.stderr)
        return
    print(f"profile: {'phase':<16} {'count':>6} {'total':>10} "
          f"{'p50':>10} {'p95':>10} {'p99':>10}", file=sys.stderr)
    for name, stats in sorted(obs["phases"].items()):
        cells = [
            f"{stats[label]:.4f}s" if stats.get(label) is not None else "-"
            for label in ("p50", "p95", "p99")
        ]
        print(f"profile: {name:<16} {stats['count']:>6} {stats['total']:>9.4f}s "
              f"{cells[0]:>10} {cells[1]:>10} {cells[2]:>10}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Unified CLI entry point (``python -m repro``)."""
    from repro.bench import __main__ as bench_cli
    from repro.obs.observer import add_global_observer, remove_global_observer
    from repro.trace import __main__ as trace_cli

    dispatch: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run": run_point_cli,
        "sweep": run_sweep_cli,
        "figures": run_figures_cli,
        "bench": bench_cli.run_cli,
        "trace": trace_cli.run_cli,
        "obs": run_obs_cli,
        "doctor": run_doctor_cli,
        "info": run_info_cli,
    }
    args = build_parser().parse_args(argv)
    # The composed --log-json/--progress observer rides on the namespace
    # (command handlers pick it up via getattr, so the per-subsystem entry
    # points that reuse them keep working without the global flags) and is
    # registered globally so cache/trace-store warnings reach the same log.
    observer = _build_observer(args)
    args.observer = observer
    if observer is not None:
        add_global_observer(observer)
    try:
        return dispatch[args.command](args)
    except (KeyError, ValueError) as error:
        # Bad benchmark/predictor names, malformed REPRO_JOBS, etc.: show
        # the message, not a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if observer is not None:
            remove_global_observer(observer)
            observer.close()
        if getattr(args, "profile", False):
            _print_profile()


if __name__ == "__main__":
    sys.exit(main())
