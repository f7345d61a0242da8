"""Writing ``BENCH_*.json`` reports and diffing them against a baseline.

A report records every measured scenario (best wall time, ops/sec, peak
RSS) plus the speedups derived from twin scenarios.  The regression check
compares *calibration-normalised* throughput: each scenario's ops/sec is
divided by the run's ``calibrate`` scenario ops/sec (a fixed arithmetic
loop), so a CI runner that is uniformly slower or faster than the
machine that produced the committed baseline does not produce spurious
regressions — only changes relative to the interpreter's own speed
count.  A scenario regresses when its normalised throughput falls more
than ``tolerance`` (default 25%) below the baseline's.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.bench.harness import BenchResult
from repro.version import __version__

SCHEMA_VERSION = 1
CALIBRATION_SCENARIO = "calibrate"
DEFAULT_TOLERANCE = 0.25
#: Baseline committed at the repository root; the CI bench-smoke job
#: fails when a quick run regresses more than the tolerance against it.
DEFAULT_BASELINE_NAME = "BENCH_baseline.json"


#: Scenario pair the report's generation-vs-replay time split is derived
#: from: both run mcf at the same scaled length, one timing only trace
#: generation and the other timing only the DBCP replay.
TIME_SPLIT_GENERATE = "trace.generate"
TIME_SPLIT_REPLAY = "sim.dbcp.mcf.replay"

#: Scenario pair the checksum-verification cost split is derived from:
#: both load the same warmed store entry, one through the memoised fast
#: path and one with payload CRC verification forced on every read.
VERIFY_SPLIT_LOAD = "trace.store_load"
VERIFY_SPLIT_VERIFY = "trace.store_verify"


def _time_split(results: Dict[str, BenchResult]) -> Optional[Dict[str, float]]:
    """Trace-generation vs replay wall-time split, when both halves ran."""
    generate = results.get(TIME_SPLIT_GENERATE)
    replay = results.get(TIME_SPLIT_REPLAY)
    if generate is None or replay is None:
        return None
    total = generate.wall_seconds + replay.wall_seconds
    return {
        "trace_generation_seconds": generate.wall_seconds,
        "replay_seconds": replay.wall_seconds,
        "generation_fraction": generate.wall_seconds / total if total else 0.0,
    }


def _verify_split(results: Dict[str, BenchResult]) -> Optional[Dict[str, float]]:
    """Checksum-verification cost of a store load, when both halves ran.

    ``verify_overhead_fraction`` is the extra wall time a CRC-verified
    load pays over the memoised fast path, relative to the fast path —
    i.e. what ``REPRO_VERIFY=always`` would cost per load.  Report-only:
    the regression gate does not act on it.
    """
    load = results.get(VERIFY_SPLIT_LOAD)
    verify = results.get(VERIFY_SPLIT_VERIFY)
    if load is None or verify is None:
        return None
    overhead = verify.wall_seconds - load.wall_seconds
    return {
        "store_load_seconds": load.wall_seconds,
        "verified_load_seconds": verify.wall_seconds,
        "verify_overhead_fraction": (
            overhead / load.wall_seconds if load.wall_seconds else 0.0
        ),
    }


def build_report(
    name: str,
    results: Dict[str, BenchResult],
    speedups: Dict[str, float],
    scale: float = 1.0,
) -> Dict[str, Any]:
    """Assemble the JSON-safe report document.

    When the run measured both halves of the generation/replay pair, the
    report carries a ``time_split`` section quantifying what fraction of
    one cold sweep point is trace generation — the cost the warm trace
    store removes.
    """
    report = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": scale,
        "results": {scenario: result.to_dict() for scenario, result in results.items()},
        "speedups": speedups,
    }
    split = _time_split(results)
    if split is not None:
        report["time_split"] = split
    verify_split = _verify_split(results)
    if verify_split is not None:
        report["verify_split"] = verify_split
    return report


def write_report(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write ``report`` to ``path`` (pretty-printed, trailing newline)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a previously written ``BENCH_*.json``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


@dataclass
class ScenarioComparison:
    """Baseline comparison of one scenario."""

    name: str
    current_ops_per_sec: float
    baseline_ops_per_sec: float
    #: current/baseline of calibration-normalised throughput (>1 = faster).
    normalized_ratio: Optional[float]
    regressed: bool


@dataclass
class ComparisonReport:
    """Outcome of diffing a run against a baseline report."""

    tolerance: float
    comparisons: List[ScenarioComparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: ``False`` when the two reports could not be meaningfully compared
    #: (e.g. different scales) — the check must fail, not silently pass.
    comparable: bool = True
    #: Baseline scenarios with no measurement in a same-named current run:
    #: lost gate coverage, treated as a failure (a renamed or de-quick'd
    #: scenario must not silently drop out of the CI check).
    missing_scenarios: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[ScenarioComparison]:
        """Scenarios that regressed beyond the tolerance."""
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        """``True`` when the reports were comparable, complete, and nothing regressed."""
        return self.comparable and not self.missing_scenarios and not self.regressions


def _ops_per_sec(report: Dict[str, Any], scenario: str) -> Optional[float]:
    entry = report.get("results", {}).get(scenario)
    if not entry:
        return None
    value = entry.get("ops_per_sec", 0.0)
    return float(value) if value else None


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> ComparisonReport:
    """Diff ``current`` against ``baseline``; flag >tolerance regressions.

    Only scenarios present in both reports are compared.  When both
    reports carry the calibration scenario, throughput is normalised by
    it; otherwise raw ops/sec are compared (and a note records the
    weaker methodology).
    """
    outcome = ComparisonReport(tolerance=tolerance)
    if current.get("scale") != baseline.get("scale"):
        outcome.comparable = False
        outcome.notes.append(
            f"scale mismatch (current {current.get('scale')} vs baseline "
            f"{baseline.get('scale')}): results are not comparable"
        )
        return outcome

    current_cal = _ops_per_sec(current, CALIBRATION_SCENARIO)
    baseline_cal = _ops_per_sec(baseline, CALIBRATION_SCENARIO)
    normalize = current_cal is not None and baseline_cal is not None
    if not normalize:
        outcome.notes.append(
            "calibration scenario missing from one report; comparing raw ops/sec"
        )

    # A baseline scenario missing from a same-named run (quick vs quick,
    # full vs full) is lost gate coverage and fails; a deliberately
    # partial run (--scenario subset, name "custom") is only noted.
    same_run_kind = current.get("name") == baseline.get("name")
    for scenario in sorted(baseline.get("results", {})):
        if scenario == CALIBRATION_SCENARIO:
            continue
        base_ops = _ops_per_sec(baseline, scenario)
        cur_ops = _ops_per_sec(current, scenario)
        if base_ops is None:
            continue
        if cur_ops is None:
            if same_run_kind:
                outcome.missing_scenarios.append(scenario)
            else:
                outcome.notes.append(f"{scenario}: in baseline but not measured in this run")
            continue
        if normalize:
            ratio = (cur_ops / current_cal) / (base_ops / baseline_cal)
        else:
            ratio = cur_ops / base_ops
        outcome.comparisons.append(
            ScenarioComparison(
                name=scenario,
                current_ops_per_sec=cur_ops,
                baseline_ops_per_sec=base_ops,
                normalized_ratio=ratio,
                regressed=ratio < 1.0 - tolerance,
            )
        )
    return outcome


def format_results_table(results: Dict[str, BenchResult], speedups: Dict[str, float]) -> str:
    """Human-readable summary of one run.

    The wall column stays the min-of-N the regression gate compares; the
    p50/p95 columns show the per-repeat spread (measurement noise), and
    are reported only — they feed no comparison.
    """
    lines = [
        f"{'scenario':<28} {'wall (s)':>10} {'p50 (s)':>10} {'p95 (s)':>10} "
        f"{'ops/sec':>14} {'peak RSS':>10}"
    ]
    for name, result in results.items():
        spread = result.percentiles()
        p50 = f"{spread['p50']:.3f}" if spread["p50"] is not None else "-"
        p95 = f"{spread['p95']:.3f}" if spread["p95"] is not None else "-"
        lines.append(
            f"{name:<28} {result.wall_seconds:>10.3f} {p50:>10} {p95:>10} "
            f"{result.ops_per_sec:>14,.0f} {result.peak_rss_kb / 1024:>8.0f}MB"
        )
    for fast_name, speedup in sorted(speedups.items()):
        # The key is the faster twin; the ratio is measured against the
        # scenario that declared it: its ".interpreted" (kill-switch) twin
        # when one ran, else another slower twin (sweep.trace_cold).
        interpreted = f"{fast_name}.interpreted" in results
        slower = "its interpreted tier" if interpreted else "its slower twin"
        lines.append(f"speedup[{fast_name}]: {speedup:.2f}x faster than {slower}")
    return "\n".join(lines)


def format_comparison(comparison: ComparisonReport) -> str:
    """Human-readable baseline diff."""
    lines: List[str] = []
    for note in comparison.notes:
        lines.append(f"note: {note}")
    for entry in comparison.comparisons:
        delta = (entry.normalized_ratio - 1.0) * 100.0 if entry.normalized_ratio else 0.0
        marker = "REGRESSED" if entry.regressed else "ok"
        lines.append(f"{entry.name:<28} {delta:>+7.1f}% vs baseline  [{marker}]")
    if not comparison.comparable:
        lines.append("FAIL: reports are not comparable")
    elif comparison.missing_scenarios:
        names = ", ".join(comparison.missing_scenarios)
        lines.append(f"FAIL: baseline scenario(s) not measured in this run: {names}")
    elif comparison.regressions:
        names = ", ".join(c.name for c in comparison.regressions)
        lines.append(
            f"FAIL: {len(comparison.regressions)} scenario(s) regressed more than "
            f"{comparison.tolerance:.0%}: {names}"
        )
    elif comparison.comparisons:
        lines.append(f"all compared scenarios within {comparison.tolerance:.0%} of baseline")
    return "\n".join(lines)
