"""Golden-figure regression harness.

Quick configurations of every paper artifact (the campaigns of Figures
4 and 8-12 and Tables 2 and 3, the trace studies of Figures 2, 6 and 7,
Section 5.9 and Table 1) are run end to end and compared against
committed JSON under ``tests/goldens/``:
integer counters must match **exactly** (the simulators are
deterministic), derived ratios within 1e-9.  Any unintentional change to
cache behaviour, predictor logic, trace generation, interleaving or
result serialisation shows up here as a field-level diff; after an
*intentional* change, refresh the files with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

Every campaign golden is checked twice: by default, which replays
through the compiled vector kernel where a C compiler exists, and with
the kernel switched off (the interpreted tier).  The analysis goldens
replay no predictor, so they are checked once.
"""

import dataclasses
import importlib
import json
import math
from pathlib import Path

import pytest
from conftest import kernel_disabled

from repro.run import RunSpec, Session

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Quick sweep shapes: small enough for CI, wide enough to touch every
#: predictor path the figures exercise.
FIG8_BENCHMARKS = ["mcf", "swim", "em3d", "gzip"]
FIG8_ACCESSES = 20_000
FIG11_PAIRINGS = [("gcc", "mcf"), ("mcf", "gcc"), ("swim", "gcc"), ("lucas", "applu")]
FIG11_ACCESSES = 12_000
#: Pairwise runs long enough for LT-cords to cover misses of both
#: applications, so the per-application attribution split is pinned
#: (every pairing above reports zero coverage at its length).
FIG11_PAIRWISE_PAIRINGS = [("equake", "lucas"), ("gcc", "equake")]
FIG11_PAIRWISE_ACCESSES = 60_000

#: Shape of the campaign goldens below: both footprint extremes of the
#: quick set, short enough to replay on the interpreted tier in seconds.
CAMPAIGN_BENCHMARKS = ["mcf", "gzip"]
CAMPAIGN_ACCESSES = 8_000
CAMPAIGN_GOLDENS = {
    "fig4_quick": "repro.experiments.fig4_dbcp_sensitivity",
    "fig9_quick": "repro.experiments.fig9_sigcache",
    "fig10_quick": "repro.experiments.fig10_storage",
    "fig12_quick": "repro.experiments.fig12_bandwidth",
    "table2_quick": "repro.experiments.table2_baseline",
    "table3_quick": "repro.experiments.table3_speedup",
}

#: Drivers outside the campaign layer, pinned at the campaign goldens'
#: shape (the trace studies) or at their defaults (the analytical ones).
ANALYSIS_GOLDENS = {
    "fig2_quick": "repro.experiments.fig2_deadtime",
    "fig6_quick": "repro.experiments.fig6_temporal",
    "fig6_correlated": "repro.experiments.fig6_temporal",
    "fig7_quick": "repro.experiments.fig7_order_disparity",
    "sec59": "repro.experiments.sec59_power",
    "table1": "repro.experiments.table1_config",
}
#: The analytical drivers take no trace.
_TRACELESS = {"sec59", "table1"}
#: Trace studies pinned at their own (benchmarks, accesses) shape.  At the
#: quick shape no Figure 6 miss label repeats, so every distance is
#: "uncorrelated"; here gcc's pairs spread over signed distances (-1 and
#: beyond 16 included) and mcf's form runs of a thousand misses and more.
_ANALYSIS_SHAPES = {"fig6_correlated": (["gcc", "mcf"], 60_000)}

#: Tolerance for ratio fields (coverage fractions etc.); counts compare exactly.
RATIO_TOLERANCE = 1e-9


def _compute_fig8():
    from repro.experiments import fig8_coverage as fig8

    rows = fig8.run(
        benchmarks=FIG8_BENCHMARKS, num_accesses=FIG8_ACCESSES, session=Session(jobs=1)
    )
    return {
        "config": {"benchmarks": FIG8_BENCHMARKS, "num_accesses": FIG8_ACCESSES, "seed": 42},
        "rows": {
            row.benchmark: {
                "ltcords": row.ltcords.to_dict(),
                "oracle_dbcp": row.oracle_dbcp.to_dict(),
            }
            for row in rows
        },
    }


def _compute_fig11():
    from repro.experiments import fig11_multiprogram as fig11

    rows = fig11.run(
        pairings=FIG11_PAIRINGS, num_accesses=FIG11_ACCESSES, session=Session(jobs=1)
    )
    return {
        "config": {
            "pairings": [list(pair) for pair in FIG11_PAIRINGS],
            "num_accesses": FIG11_ACCESSES,
            "seed": 42,
        },
        "rows": [
            {
                "pairing": row.label,
                "multiprogram": row.result.to_dict(),
                "shared_l2": row.shared.to_dict(),
            }
            for row in rows
        ],
    }


def _compute_fig11_pairwise():
    session = Session(jobs=1, use_cache=False)
    return {
        "config": {
            "pairings": [list(pair) for pair in FIG11_PAIRWISE_PAIRINGS],
            "num_accesses": FIG11_PAIRWISE_ACCESSES,
            "seed": 42,
        },
        "rows": [
            session.run(
                RunSpec(
                    benchmark=primary,
                    secondary=secondary,
                    sim="multiprogram",
                    num_accesses=FIG11_PAIRWISE_ACCESSES,
                )
            ).to_dict()
            for primary, secondary in FIG11_PAIRWISE_PAIRINGS
        ],
    }


class _RecordingSession(Session):
    """An uncached session that keeps every campaign result it computes."""

    def __init__(self):
        super().__init__(jobs=1, use_cache=False)
        self.campaigns = []

    def sweep(self, spec, name=None, resume=None):
        result = super().sweep(spec, name=name, resume=resume)
        self.campaigns.append(result)
        return result


def _compute_campaign(module_name):
    """A campaign's driver output plus the full payload of every point."""
    module = importlib.import_module(module_name)
    session = _RecordingSession()
    output = module.run(
        benchmarks=CAMPAIGN_BENCHMARKS, num_accesses=CAMPAIGN_ACCESSES, session=session
    )
    return {
        "config": {"benchmarks": CAMPAIGN_BENCHMARKS, "num_accesses": CAMPAIGN_ACCESSES, "seed": 42},
        "rows": _as_rows(output),
        "points": [
            result.to_dict() for campaign in session.campaigns for result in campaign.results
        ],
    }


def _compute_analysis(name):
    """A non-campaign driver's output, every row field included."""
    module = importlib.import_module(ANALYSIS_GOLDENS[name])
    if name in _TRACELESS:
        return {"rows": _as_rows(module.run())}
    benchmarks, num_accesses = _ANALYSIS_SHAPES.get(name, (CAMPAIGN_BENCHMARKS, CAMPAIGN_ACCESSES))
    output = module.run(benchmarks=benchmarks, num_accesses=num_accesses)
    return {
        "config": {"benchmarks": benchmarks, "num_accesses": num_accesses, "seed": 42},
        "rows": _as_rows(output),
    }


def _as_rows(output):
    if isinstance(output, list):
        return [dataclasses.asdict(row) if dataclasses.is_dataclass(row) else row for row in output]
    return dataclasses.asdict(output)


def assert_matches_golden(golden, actual, path="$"):
    """Recursive comparison: exact for counts/strings, 1e-9 for ratios."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected dict, got {type(actual).__name__}"
        assert sorted(golden) == sorted(actual), (
            f"{path}: keys differ: {sorted(golden)} != {sorted(actual)}"
        )
        for key in golden:
            assert_matches_golden(golden[key], actual[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(golden) == len(actual), (
            f"{path}: list length {len(golden)} != {len(actual)}"
        )
        for index, (a, b) in enumerate(zip(golden, actual)):
            assert_matches_golden(a, b, f"{path}[{index}]")
    elif isinstance(golden, bool) or not isinstance(golden, (int, float)):
        assert golden == actual, f"{path}: {golden!r} != {actual!r}"
    elif isinstance(golden, int) and isinstance(actual, int):
        # Counters (miss counts, byte totals, switches) drift for a reason:
        # compare exactly so the diff names the first divergent field.
        assert golden == actual, f"{path}: count {golden} != {actual}"
    else:
        assert math.isclose(golden, actual, rel_tol=RATIO_TOLERANCE, abs_tol=RATIO_TOLERANCE), (
            f"{path}: ratio {golden!r} != {actual!r}"
        )


def _golden_compute(name):
    if name in CAMPAIGN_GOLDENS:
        return lambda: _compute_campaign(CAMPAIGN_GOLDENS[name])
    return {
        "fig8_quick": _compute_fig8,
        "fig11_quick": _compute_fig11,
        "fig11_pairwise": _compute_fig11_pairwise,
    }[name]


def _check_golden(name, compute, request):
    path = GOLDEN_DIR / f"{name}.json"
    actual = json.loads(json.dumps(compute(), sort_keys=True))  # normalise types
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        pytest.skip(f"rewrote {path}")
    assert path.is_file(), (
        f"missing golden {path}; generate it with pytest tests/test_goldens.py --update-goldens"
    )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert_matches_golden(golden, actual)


@pytest.mark.parametrize(
    "name,compute",
    [
        ("fig8_quick", _compute_fig8),
        ("fig11_quick", _compute_fig11),
        ("fig11_pairwise", _compute_fig11_pairwise),
    ],
)
def test_figure_matches_golden(name, compute, request):
    _check_golden(name, compute, request)


@pytest.mark.parametrize("name", sorted(CAMPAIGN_GOLDENS))
def test_campaign_matches_golden(name, request):
    _check_golden(name, _golden_compute(name), request)


@pytest.mark.parametrize("name", sorted(ANALYSIS_GOLDENS))
def test_analysis_matches_golden(name, request):
    _check_golden(name, lambda: _compute_analysis(name), request)


@pytest.mark.parametrize(
    "name", ["fig8_quick", "fig11_quick", "fig11_pairwise", *sorted(CAMPAIGN_GOLDENS)]
)
def test_golden_reproduced_without_kernel(name):
    """The interpreted tier reproduces every committed golden too."""
    path = GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), f"missing golden {path}"
    with kernel_disabled():
        actual = json.loads(json.dumps(_golden_compute(name)(), sort_keys=True))
    assert_matches_golden(json.loads(path.read_text(encoding="utf-8")), actual)


# The parameter is named workload (not "benchmark") because the
# pytest-benchmark plugin reserves that funcarg name.
@pytest.mark.parametrize("workload", FIG8_BENCHMARKS)
def test_fig8_golden_reproduced_by_vector_engine(workload):
    """Direct simulation on the default engine reproduces the Figure 8 goldens.

    With a C compiler both predictors take the compiled vector kernel
    (``kernel-ltcords`` and ``kernel-dbcp``); the campaign path is
    covered by :func:`test_figure_matches_golden`.
    """
    from repro.api import build_predictor
    from repro.prefetchers.dbcp import DBCPConfig
    from repro.sim.trace_driven import simulate_benchmark

    path = GOLDEN_DIR / "fig8_quick.json"
    assert path.is_file(), f"missing golden {path}"
    golden = json.loads(path.read_text(encoding="utf-8"))["rows"][workload]
    ltcords = simulate_benchmark(
        workload, build_predictor("ltcords"), num_accesses=FIG8_ACCESSES
    )
    oracle = simulate_benchmark(
        workload, build_predictor("dbcp", DBCPConfig.unlimited()), num_accesses=FIG8_ACCESSES
    )
    assert_matches_golden(
        golden["ltcords"], json.loads(json.dumps(ltcords.to_dict(), sort_keys=True))
    )
    assert_matches_golden(
        golden["oracle_dbcp"], json.loads(json.dumps(oracle.to_dict(), sort_keys=True))
    )


class TestGoldenComparator:
    """The comparator itself must fail loudly on drift."""

    def test_count_drift_is_exact(self):
        with pytest.raises(AssertionError, match="count"):
            assert_matches_golden({"misses": 10}, {"misses": 11})

    def test_ratio_drift_beyond_tolerance_fails(self):
        with pytest.raises(AssertionError, match="ratio"):
            assert_matches_golden({"coverage": 0.5}, {"coverage": 0.5 + 1e-6})

    def test_ratio_within_tolerance_passes(self):
        assert_matches_golden({"coverage": 0.5}, {"coverage": 0.5 + 1e-12})

    def test_missing_key_fails(self):
        with pytest.raises(AssertionError, match="keys differ"):
            assert_matches_golden({"a": 1}, {"a": 1, "b": 2})
