"""Self-tests of the benchmark at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import run
import tracing
from workloads import (
    WORKLOADS,
    check_pass,
    make_reference,
    result_digest,
    workload_seed,
)

sys.path.insert(0, str(run.SRC))

TINY = {
    "figures-quick": dict(num_accesses=400, benchmarks=("gzip",), pairings=(("gcc", "mcf"),)),
    "figures-pool": dict(num_accesses=400, benchmarks=("gzip",), pairings=(("gcc", "mcf"),)),
    "replay-grid": dict(num_accesses=1000, benchmarks=("gzip",)),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def hermetic(tmp_path, monkeypatch):
    saved = dict(os.environ)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    run.hermetic_environment(tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_PASSES_TRACED", 1)
    yield tmp_path
    os.environ.clear()
    os.environ.update(saved)


def _declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_driver():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name, trace", [("replay-grid", False), ("figures-quick", True)])
def test_every_named_metric_is_emitted_with_its_unit(hermetic, name, trace):
    declared = _declared()["per_layer" if trace else "end_to_end"]
    out = run.run_benchmark(tiny(name), 42, 0.0, trace, hermetic)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and isinstance(out["failed"], int)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_perturbed_result_fails_the_digest_check(hermetic):
    from repro.run import Session

    workload = dataclasses.replace(tiny("replay-grid"), predictors=("none", "dbcp"))
    clean = workload.run_pass(42, str(hermetic / "results"))
    reference = make_reference(clean)
    assert check_pass(clean, reference) == []
    assert len(check_pass(clean, None)) == len(clean.point_ids)

    result = Session(use_cache=False).run("gzip", predictor="dbcp", num_accesses=1000, seed=42)
    assert result_digest(result) == clean.point_digests[1]
    result.prefetches_issued += 1
    perturbed = dataclasses.replace(
        clean, point_digests=[clean.point_digests[0], result_digest(result)]
    )
    assert check_pass(perturbed, reference) == ["gzip/dbcp"]


def test_pool_reproduces_the_serial_digests(hermetic):
    serial = tiny("figures-quick").run_pass(42, str(hermetic / "serial"))
    pooled = tiny("figures-pool").run_pass(42, str(hermetic / "pooled"))
    assert not serial.not_ok and not serial.errors
    assert pooled.point_ids == serial.point_ids
    assert pooled.digest == serial.digest


def test_self_times_plus_unattributed_equal_the_traced_wall(hermetic):
    tracer = tracing.Tracer()
    started = time.perf_counter()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.01)
            with tracer.span("innermost"):
                time.sleep(0.005)
        with tracer.span("inner"):
            pass
    time.sleep(0.005)
    wall = time.perf_counter() - started
    own = tracing.self_times(tracer.spans)
    assert all(seconds >= 0 for seconds in own)
    assert sum(own) + tracing.unattributed(tracer.spans, wall) == pytest.approx(wall, abs=1e-9)
    assert tracing.unattributed(tracer.spans, wall) >= 0.005

    # The same identity over a real traced pass, whose wrappers come off after.
    from repro.sim.trace_driven import TraceDrivenSimulator

    original = TraceDrivenSimulator.replay
    traced = tracing.Tracer()
    tracing.install(traced)
    try:
        result = tiny("figures-quick").run_pass(42, str(hermetic / "results"), traced)
    finally:
        traced.restore()
    assert TraceDrivenSimulator.replay is original
    names = {span.name for span in traced.spans}
    assert {"sim.replay", "run.execute", "campaign.runner", "experiments.fig11"} <= names
    total = sum(tracing.self_time_by_name(traced.spans).values())
    assert total + tracing.unattributed(traced.spans, result.wall_s) == pytest.approx(result.wall_s, abs=1e-9)


def test_seed_folds_onto_the_reference_seeds():
    assert workload_seed(42) == 42
    assert workload_seed(50) == 42
    assert workload_seed(41) == 49
    assert workload_seed(7) in range(42, 50)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-grid", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
