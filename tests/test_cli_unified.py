"""Tests for the unified ``python -m repro`` CLI (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

ACCESSES = "4000"


class TestInfo:
    def test_info_lists_registries_and_stores(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        for fragment in ("Predictors:", "ltcords", "Benchmarks (", "mcf",
                         "fig8", "Result cache:", "Trace store"):
            assert fragment in output


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "gzip", "--predictor", "ghb", "--accesses", ACCESSES]) == 0
        output = capsys.readouterr().out
        assert "benchmark            : gzip" in output
        assert "predictor            : ghb" in output
        assert "opportunity breakdown" in output

    def test_run_json_round_trips(self, capsys):
        assert main(["run", "gzip", "--predictor", "ghb", "--accesses", ACCESSES,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "gzip"
        assert payload["predictor"] == "ghb"

    def test_run_is_cached_across_invocations(self, capsys):
        from repro.campaign.cache import ResultCache

        assert main(["run", "gzip", "--predictor", "ghb", "--accesses", ACCESSES]) == 0
        assert ResultCache().entry_count() == 1
        assert main(["run", "gzip", "--predictor", "ghb", "--accesses", ACCESSES]) == 0
        assert ResultCache().entry_count() == 1

    def test_run_timing_kind(self, capsys):
        assert main(["run", "gzip", "--sim", "timing", "--predictor", "none",
                     "--accesses", ACCESSES]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_multiprogram_kind(self, capsys):
        assert main(["run", "gzip", "--sim", "multiprogram", "--secondary", "swim",
                     "--accesses", ACCESSES, "--max-switches", "5"]) == 0
        assert "gzip + swim" in capsys.readouterr().out

    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        assert main(["run", "nosuch", "--accesses", ACCESSES]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err and "mcf" in err

    def test_unknown_predictor_is_a_clean_error(self, capsys):
        assert main(["run", "gzip", "--predictor", "markov", "--accesses", ACCESSES]) == 2
        err = capsys.readouterr().err
        assert "unknown predictor" in err and "ltcords" in err


class TestSweep:
    def test_adhoc_sweep_table_and_cache_reuse(self, capsys):
        argv = ["sweep", "--benchmarks", "gzip", "swim", "--predictors", "ghb",
                "--num-accesses", ACCESSES, "--jobs", "1", "--no-artifacts"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "gzip" in first and "swim" in first and "coverage" in first
        assert main(argv) == 0
        assert "2 cached, 0 computed" in capsys.readouterr().out

    def test_unknown_predictor_fails_fast(self, capsys):
        assert main(["sweep", "--benchmarks", "gzip", "--predictors", "markov",
                     "--num-accesses", ACCESSES]) == 2
        assert "unknown predictor" in capsys.readouterr().err

    def test_bad_benchmark_is_a_clean_error(self, capsys):
        assert main(["sweep", "--benchmarks", "nope", "--jobs", "1"]) == 2
        assert "unknown benchmarks: nope" in capsys.readouterr().err


class TestFigures:
    def test_fig8_quick(self, capsys):
        assert main(["figures", "fig8", "--quick", "--benchmarks", "gzip",
                     "--accesses", ACCESSES, "--jobs", "1"]) == 0
        output = capsys.readouterr().out
        assert "Running campaign 'fig8'" in output
        assert "ltcords" in output

    def test_named_campaign_honours_flags(self, capsys):
        from repro.campaign.cache import ResultCache

        argv = ["figures", "table2", "--benchmarks", "gzip", "--accesses", ACCESSES,
                "--jobs", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "mcf" not in out, "--benchmarks must reach the named campaign"
        assert ResultCache().entry_count() == 1
        assert main(argv + ["--no-cache"]) == 0
        assert ResultCache().entry_count() == 1, "--no-cache must not add entries"

    def test_fig11_rejects_benchmarks(self, capsys):
        assert main(["figures", "fig11", "--benchmarks", "gzip"]) == 2
        assert "fig11" in capsys.readouterr().err


class TestMountedSubcommands:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert "calibrate" in capsys.readouterr().out

    def test_trace_list_and_prewarm(self, capsys):
        assert main(["trace", "list"]) == 0
        assert "empty" in capsys.readouterr().out
        assert main(["trace", "prewarm", "--benchmark", "gzip",
                     "--accesses", ACCESSES]) == 0
        assert "prewarmed 1 trace(s)" in capsys.readouterr().out
        assert main(["trace", "list"]) == 0
        assert "gzip" in capsys.readouterr().out


class TestBackCompatCLIs:
    """The per-subsystem entry points keep working on the shared pieces."""

    def test_trace_main(self, capsys):
        from repro.trace.__main__ import main as trace_main

        assert trace_main(["list"]) == 0
        assert "trace store" in capsys.readouterr().out

    def test_bench_main_rejects_bad_repeats(self, capsys):
        from repro.bench.__main__ import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["--repeats", "0"])
