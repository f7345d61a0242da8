"""``python -m repro.bench`` — run benchmark scenarios and check regressions.

Examples::

    python -m repro.bench --list
    python -m repro.bench --quick
    python -m repro.bench --scenario sim.ltcords.mcf sim.ltcords.mcf.interpreted
    python -m repro.bench --quick --update-baseline

A quick/full run writes ``BENCH_<name>.json`` and, when a baseline file
exists (``BENCH_baseline.json`` by default), diffs the run against it
and exits non-zero if any scenario's calibration-normalised throughput
regressed more than the tolerance (25% by default).

The same subcommand is mounted under the unified CLI as
``python -m repro bench ...`` (see :mod:`repro.cli`);
:func:`configure_parser` / :func:`run_cli` are the shared pieces.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.report import (
    DEFAULT_BASELINE_NAME,
    DEFAULT_TOLERANCE,
    build_report,
    compare_reports,
    format_comparison,
    format_results_table,
    load_report,
    write_report,
)
from repro.bench.scenarios import derive_speedups, get_scenario, run_scenarios, scenario_names


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench flags to ``parser`` (shared with ``python -m repro bench``)."""
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument("--quick", action="store_true",
                        help="run only the quick scenario set (the CI smoke set)")
    parser.add_argument("--scenario", nargs="+", metavar="NAME",
                        help="run specific scenarios instead of a set")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor applied to scenario sizes (default 1.0)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exact per-scenario repeat count (default: each "
                             "scenario's own, short ones topped up)")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path (default BENCH_<quick|full|custom>.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline to diff against (default {DEFAULT_BASELINE_NAME} if present)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed normalised-throughput regression (default 0.25)")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"also write the results as {DEFAULT_BASELINE_NAME}")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the baseline diff")


def run_cli(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation (invalid values raise ``ValueError``)."""
    if args.repeats is not None and args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    if args.scale <= 0:
        raise ValueError("--scale must be positive")

    if args.list:
        for name in scenario_names():
            scenario = get_scenario(name)
            tag = " [quick]" if scenario.quick else ""
            print(f"{name:<28} {scenario.description}{tag}")
        return 0

    if args.scenario:
        names = list(args.scenario)
        run_name = "custom"
        for name in names:
            get_scenario(name)  # fail fast on typos
    elif args.quick:
        names = scenario_names(quick_only=True)
        run_name = "quick"
    else:
        names = scenario_names()
        run_name = "full"

    results = run_scenarios(
        names,
        scale=args.scale,
        repeats=args.repeats,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr),
    )
    speedups = derive_speedups(results)
    print(format_results_table(results, speedups))

    report = build_report(run_name, results, speedups, scale=args.scale)
    verify_split = report.get("verify_split")
    if verify_split is not None:
        print(
            "checksum verification overhead: "
            f"{verify_split['verify_overhead_fraction'] * 100.0:+.1f}% "
            "over the memoised store load (report-only)"
        )
    output = args.output or Path(f"BENCH_{run_name}.json")
    write_report(report, output)
    print(f"wrote {output}")
    if args.update_baseline:
        write_report(report, Path(DEFAULT_BASELINE_NAME))
        print(f"wrote {DEFAULT_BASELINE_NAME}")

    if args.no_compare or args.update_baseline:
        return 0
    baseline_path = args.baseline or Path(DEFAULT_BASELINE_NAME)
    if not baseline_path.exists():
        if args.baseline is not None:
            print(f"baseline {baseline_path} not found", file=sys.stderr)
            return 2
        print(f"no {DEFAULT_BASELINE_NAME} found; skipping regression check")
        return 0
    comparison = compare_reports(report, load_report(baseline_path), tolerance=args.tolerance)
    print(format_comparison(comparison))
    return 0 if comparison.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time repro micro/macro benchmarks and diff against a baseline.",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    try:
        return run_cli(args)
    except ValueError as error:
        parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())
