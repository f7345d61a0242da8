"""The engine registry is single-sourced and uniformly honoured.

Engine names used to be defined in four places; a new engine could be
half-registered — accepted by the cache hierarchy but rejected by the
campaign spec layer.  These tests pin the fix: :mod:`repro.engines` is
the one source of truth (a source scan proves the tuple literal exists
nowhere else), every consumer accepts every registered engine, and
the fast engine's two replay tiers (the compiled vector kernel and the
interpreted loops) share one result-cache entry in both directions.
"""

import re
from contextlib import nullcontext
from pathlib import Path

import pytest
from conftest import kernel_disabled

import repro.engines as engines_mod
from repro.engines import DEFAULT_ENGINE, ENGINES, validate_engine

SRC_ROOT = Path(__file__).parent.parent / "src"


# ---------------------------------------------------------------------------
# Single-sourcing: one constant, re-exported everywhere, one literal.
# ---------------------------------------------------------------------------


def test_engine_constants_are_the_same_object_everywhere():
    import repro.cache.hierarchy as hierarchy
    import repro.registry as registry

    assert hierarchy.ENGINES is engines_mod.ENGINES
    assert registry.ENGINE_NAMES is engines_mod.ENGINES


def test_engine_tuple_literal_appears_only_in_engines_module():
    """Drift regression: the engine-name tuple exists in exactly one file.

    Any module that needs the engine list must import it; a second
    literal is how the pre-refactor half-registered-engine bug starts.
    """
    literal = re.compile(r"""['"]fast['"]\s*,\s*['"]legacy['"]""")
    offenders = [
        path.relative_to(SRC_ROOT)
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if literal.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [Path("repro/engines.py")], (
        f"engine-name tuple literal found outside repro/engines.py: {offenders}"
    )


def test_registry_contents():
    assert ENGINES == ("fast", "legacy")
    assert DEFAULT_ENGINE == "fast"


def test_validate_engine():
    for engine in ENGINES:
        assert validate_engine(engine) == engine
    with pytest.raises(ValueError, match="warp"):
        validate_engine("warp")


# ---------------------------------------------------------------------------
# Every consumer accepts every registered engine.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_is_accepted_by_every_consumer(engine):
    from repro.campaign.spec import PointSpec
    from repro.multicore import MulticoreSpec
    from repro.sim.trace_driven import TraceDrivenSimulator

    assert TraceDrivenSimulator(engine=engine).engine == engine
    assert PointSpec(benchmark="mcf", engine=engine).engine == engine
    assert MulticoreSpec(benchmarks=("mcf",), engine=engine).engine == engine


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_engine_is_rejected_by_every_consumer(engine):
    # The canonical error message names the registry tuple, whatever the
    # consumer: nobody carries a private copy of the choice list.
    from repro.campaign.spec import PointSpec
    from repro.multicore import MulticoreSpec
    from repro.sim.trace_driven import TraceDrivenSimulator

    for make in (
        lambda: TraceDrivenSimulator(engine="warp"),
        lambda: PointSpec(benchmark="mcf", engine="warp"),
        lambda: MulticoreSpec(benchmarks=("mcf",), engine="warp"),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(ENGINES))):
            make()


# ---------------------------------------------------------------------------
# build_predictor: one class per entry, whatever the engine.
# ---------------------------------------------------------------------------


def test_build_predictor_falls_back_to_fast_class():
    """A registered class is the one class every engine replays."""
    from repro.prefetchers.null import NullPrefetcher
    from repro.registry import build_predictor, register_predictor, unregister_predictor
    from repro.run import RunSpec, execute_spec

    class FastOnly(NullPrefetcher):
        pass

    entry = register_predictor("_test_fast_only", FastOnly)
    try:
        assert entry.cls is FastOnly
        assert type(build_predictor("_test_fast_only")) is FastOnly
        results = [
            execute_spec(RunSpec(benchmark="gzip", predictor="_test_fast_only",
                                 num_accesses=300, engine=engine)).to_dict()
            for engine in ENGINES
        ]
        assert all(result == results[0] for result in results)
    finally:
        unregister_predictor("_test_fast_only")


# ---------------------------------------------------------------------------
# Cache-key invariance: the replay tier is not part of any key.
# ---------------------------------------------------------------------------


def _spec(**overrides):
    from repro.run import RunSpec

    fields = dict(benchmark="mcf", predictor="dbcp", num_accesses=2000)
    fields.update(overrides)
    return RunSpec(**fields)


def _tier(name):
    """Replay on the ``"vector"`` kernel tier or the interpreted ``"fast"`` loops."""
    return kernel_disabled() if name == "fast" else nullcontext()


def test_fast_equivalent_engines_share_one_spec_key():
    """Asking for the default engine explicitly or implicitly is one key."""
    fast, legacy, default = _spec(engine="fast"), _spec(engine="legacy"), _spec()
    assert fast.key() == default.key()
    assert fast.to_dict() == default.to_dict()
    assert "engine" not in fast.to_dict()
    # Legacy stays separately keyed so cross-checking campaigns can pin it.
    assert legacy.key() != fast.key()
    assert legacy.to_dict()["engine"] == "legacy"


def test_multicore_spec_key_is_engine_invariant_for_fast_equivalents():
    from repro.multicore import MulticoreSpec

    def make(**engine):
        return MulticoreSpec(
            benchmarks=("mcf", "gcc"), predictors=("dbcp",), num_accesses=2000, **engine
        )

    assert make(engine="fast").key() == make().key()
    assert make(engine="fast").key() != make(engine="legacy").key()


@pytest.mark.parametrize(
    "first,second", [("fast", "vector"), ("vector", "fast")], ids=["fast_then_vector", "vector_then_fast"]
)
def test_result_cache_is_shared_across_fast_and_vector(first, second):
    """A result computed on one replay tier serves the other.

    ``"vector"`` is the compiled kernel tier and ``"fast"`` the
    interpreted loops (kernel switched off).  Both directions matter: the
    bug this guards against is tier state leaking into the content key,
    which would silently split the cache and recompute every point on a
    host without a compiler.
    """
    from repro.run import Session

    session = Session(jobs=1)
    spec = _spec()
    assert session.cache.get(spec) is None
    with _tier(first):
        computed = session.run(spec)
    with _tier(second):
        served = session.cache.get(spec)
        assert served is not None, f"{second} tier missed the cache after a {first} run"
        assert served.to_dict() == computed.to_dict()
        # And the facade path agrees end to end.
        assert session.run(spec).to_dict() == computed.to_dict()
