"""Tests for the repro.bench harness, scenarios, reports and CLI."""

import json

import pytest

from repro.bench.harness import BenchResult, measure
from repro.bench.report import (
    build_report,
    compare_reports,
    format_comparison,
    format_results_table,
    load_report,
    write_report,
)
from repro.bench.scenarios import (
    derive_speedups,
    get_scenario,
    run_scenario,
    run_scenarios,
    scenario_names,
)


class TestHarness:
    def test_measure_reports_minimum_of_repeats(self):
        calls = []

        def make_task():
            def task():
                calls.append(1)

            return task

        result = measure("demo", make_task, ops=10, repeats=3)
        assert len(calls) == 3
        assert result.repeats == 3
        assert len(result.all_wall_seconds) == 3
        assert result.wall_seconds == min(result.all_wall_seconds)
        assert result.ops == 10
        assert result.ops_per_sec > 0

    def test_measure_builds_fresh_task_per_repeat(self):
        built = []

        def make_task():
            built.append(1)
            return lambda: None

        measure("demo", make_task, ops=1, repeats=2)
        assert len(built) == 2

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure("demo", lambda: (lambda: None), ops=1, repeats=0)


class TestScenarios:
    def test_registry_contains_the_headline_pair(self):
        names = scenario_names()
        assert "sim.dbcp.mcf" in names
        assert "sim.dbcp.mcf.legacy" in names
        assert get_scenario("sim.dbcp.mcf.legacy").speedup_of == "sim.dbcp.mcf"
        # The kill-switch twin chains onto the kernel scenario: the derived
        # ratio for "sim.ltcords.mcf" is the kernel's speedup.
        assert "sim.ltcords.mcf.interpreted" in names
        assert get_scenario("sim.ltcords.mcf.interpreted").speedup_of == "sim.ltcords.mcf"
        assert get_scenario("sim.dbcp.mcf").speedup_of is None

    def test_quick_set_is_a_subset_and_has_calibration(self):
        quick = scenario_names(quick_only=True)
        assert set(quick) <= set(scenario_names())
        assert "calibrate" in quick
        assert "sim.dbcp.mcf" in quick and "sim.dbcp.mcf.legacy" in quick

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("sim.nonexistent")

    def test_micro_scenarios_run_at_tiny_scale(self):
        results = run_scenarios(
            ["calibrate", "cache.l1_hits", "cache.l1_thrash", "trace.generate"],
            scale=0.005,
            repeats=1,
        )
        for result in results.values():
            assert result.wall_seconds > 0
            assert result.ops >= 1000

    def test_simulation_pair_speedup_derivation(self):
        results = run_scenarios(
            ["sim.dbcp.mcf", "sim.dbcp.mcf.legacy"], scale=0.01, repeats=1
        )
        speedups = derive_speedups(results)
        assert "sim.dbcp.mcf" in speedups
        assert speedups["sim.dbcp.mcf"] > 0

    def test_vector_twin_speedup_derivation(self):
        # The vector kernel against the same run under the kill switch.
        results = run_scenarios(
            ["sim.ltcords.mcf", "sim.ltcords.mcf.interpreted"], scale=0.01, repeats=1
        )
        speedups = derive_speedups(results)
        assert "sim.ltcords.mcf" in speedups
        assert speedups["sim.ltcords.mcf"] > 0
        assert "its interpreted tier" in format_results_table(results, speedups)

    def test_multicore_scenarios_run_and_pair(self):
        results = run_scenarios(
            ["sim.multicore.2x", "sim.multicore.2x.legacy", "sim.multicore.4x"],
            scale=0.02, repeats=1,
        )
        for result in results.values():
            assert result.wall_seconds > 0
        assert "sim.multicore.2x" in derive_speedups(results)

    def test_scenario_scale_changes_ops(self):
        small = run_scenario("calibrate", scale=0.02, repeats=1)
        smaller = run_scenario("calibrate", scale=0.01, repeats=1)
        assert small.ops != smaller.ops


def _report(calibrate_ops, scenario_ops, scale=1.0):
    results = {
        "calibrate": BenchResult("calibrate", 1.0, int(calibrate_ops), 1, [1.0]),
        "sim.demo": BenchResult("sim.demo", 1.0, int(scenario_ops), 1, [1.0]),
    }
    return build_report("test", results, {}, scale=scale)


class TestReports:
    def test_write_and_load_round_trip(self, tmp_path):
        report = _report(1000, 500)
        path = write_report(report, tmp_path / "BENCH_test.json")
        assert load_report(path) == json.loads(json.dumps(report))

    def test_no_regression_when_machine_uniformly_slower(self):
        baseline = _report(1000, 500)
        # Current machine is 2x slower across the board: normalised
        # throughput is unchanged, so nothing regresses.
        current = _report(500, 250)
        comparison = compare_reports(current, baseline)
        assert comparison.ok
        assert comparison.comparisons[0].normalized_ratio == pytest.approx(1.0)

    def test_regression_detected_beyond_tolerance(self):
        baseline = _report(1000, 500)
        current = _report(1000, 300)  # 40% slower at equal machine speed
        comparison = compare_reports(current, baseline, tolerance=0.25)
        assert not comparison.ok
        assert [c.name for c in comparison.regressions] == ["sim.demo"]
        assert "REGRESSED" in format_comparison(comparison)

    def test_small_slowdown_within_tolerance_passes(self):
        baseline = _report(1000, 500)
        current = _report(1000, 400)  # 20% slower, tolerance 25%
        assert compare_reports(current, baseline, tolerance=0.25).ok

    def test_missing_baseline_scenario_fails_same_kind_runs(self):
        baseline = _report(1000, 500)
        current = _report(1000, 500)
        del current["results"]["sim.demo"]  # renamed/dropped scenario
        comparison = compare_reports(current, baseline)
        assert comparison.missing_scenarios == ["sim.demo"]
        assert not comparison.ok
        assert "not measured" in format_comparison(comparison)

    def test_missing_scenario_only_noted_for_partial_runs(self):
        baseline = _report(1000, 500)
        current = _report(1000, 500)
        current["name"] = "custom"  # deliberate --scenario subset
        del current["results"]["sim.demo"]
        comparison = compare_reports(current, baseline)
        assert comparison.missing_scenarios == []
        assert comparison.ok
        assert comparison.notes

    def test_scale_mismatch_refuses_to_compare_and_fails(self):
        comparison = compare_reports(_report(1000, 500, scale=0.5), _report(1000, 500))
        assert comparison.comparisons == []
        assert comparison.notes
        assert not comparison.ok  # incomparable must fail, not silently pass
        assert "FAIL" in format_comparison(comparison)

    def test_run_scenarios_snapshots_rss_per_scenario(self):
        results = run_scenarios(["calibrate", "cache.l1_hits"], scale=0.005, repeats=2)
        for result in results.values():
            assert result.peak_rss_kb > 0

    def test_short_scenarios_are_topped_up_to_the_sampled_time_floor(self):
        from repro.bench.scenarios import _MAX_SAMPLES, _MIN_SAMPLED_SECONDS

        labels = []
        result = run_scenarios(["cache.l1_hits"], scale=0.005, progress=labels.append)["cache.l1_hits"]
        assert result.repeats == len(result.all_wall_seconds) == len(labels)
        assert result.repeats > get_scenario("cache.l1_hits").repeats
        assert (sum(result.all_wall_seconds) >= _MIN_SAMPLED_SECONDS
                or result.repeats == _MAX_SAMPLES)
        assert result.wall_seconds == min(result.all_wall_seconds)
        # An explicit repeat count is exact.
        assert run_scenario("cache.l1_hits", scale=0.005, repeats=2).repeats == 2

    def test_format_results_table_mentions_speedups(self):
        results = {"sim.demo": BenchResult("sim.demo", 2.0, 100, 1, [2.0])}
        text = format_results_table(results, {"sim.demo": 3.4})
        assert "sim.demo" in text
        assert "3.40x" in text


class TestCli:
    def test_list_exits_cleanly(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "sim.dbcp.mcf" in out

    def test_run_writes_report_and_diffs_baseline(self, tmp_path, monkeypatch, capsys):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        args = ["--scenario", "calibrate", "cache.l1_hits",
                "--scale", "0.005", "--repeats", "1"]
        # First run: no baseline yet -> writes report, skips the diff.
        assert main(args + ["--output", "BENCH_custom.json", "--update-baseline"]) == 0
        assert (tmp_path / "BENCH_baseline.json").exists()
        # Second run diffs against the baseline it just wrote.
        rc = main(args)
        out = capsys.readouterr().out
        assert rc in (0, 1)  # tiny scales are noisy; both paths must print the diff
        assert "vs baseline" in out

    def test_missing_explicit_baseline_errors(self, tmp_path, monkeypatch):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        rc = main(["--scenario", "calibrate", "--scale", "0.005", "--repeats", "1",
                   "--baseline", "nope.json"])
        assert rc == 2
