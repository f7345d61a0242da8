"""``repro.bench`` — the performance harness.

Times micro-benchmarks (cache probe loops, trace generation, columnar
iteration) and macro-benchmarks (whole ``simulate_benchmark`` runs, on
the compiled kernel and under the kill switch) across named scenarios,
writes ``BENCH_<name>.json`` reports (best wall time, ops/sec, peak RSS,
twin-scenario speedups), and diffs runs against the committed
``BENCH_baseline.json`` with calibration-normalised tolerance checking.

Command line::

    python -m repro.bench --quick            # quick set + baseline diff
    python -m repro.bench --list             # show scenarios
    python -m repro.bench --update-baseline  # refresh BENCH_baseline.json

See the README "Performance" section for how to read and refresh the
reports.
"""

from repro.bench.harness import BenchResult, measure, peak_rss_kb
from repro.bench.report import (
    ComparisonReport,
    DEFAULT_BASELINE_NAME,
    DEFAULT_TOLERANCE,
    ScenarioComparison,
    build_report,
    compare_reports,
    format_comparison,
    format_results_table,
    load_report,
    write_report,
)
from repro.bench.scenarios import (
    Scenario,
    derive_speedups,
    get_scenario,
    run_scenario,
    run_scenarios,
    scenario_names,
)

__all__ = [
    "BenchResult",
    "ComparisonReport",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_TOLERANCE",
    "Scenario",
    "ScenarioComparison",
    "build_report",
    "compare_reports",
    "derive_speedups",
    "format_comparison",
    "format_results_table",
    "get_scenario",
    "load_report",
    "measure",
    "peak_rss_kb",
    "run_scenario",
    "run_scenarios",
    "scenario_names",
    "write_report",
]
