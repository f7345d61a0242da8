"""Public plugin registries: predictors, workloads, and config classes.

This module is the single source of truth for *what exists* in the
reproduction: which predictors can be built (one class each), which synthetic benchmarks can generate traces, and which
configuration dataclasses are allowed to travel through campaign
serialisation (process-pool transport and the on-disk result cache).

Third-party extensions register through the same entry points the
built-ins use::

    from repro.registry import register_config_class, register_predictor

    @register_config_class
    @dataclass(frozen=True)
    class MarkovConfig:
        order: int = 2

    @register_predictor("markov", config_class=MarkovConfig,
                        description="per-block Markov predictor")
    class MarkovPrefetcher(Prefetcher):
        ...

    @register_workload(WorkloadMetadata(name="graph500", ...))
    def _graph500(meta, cfg):
        return PointerChaseWorkload(meta, cfg, num_nodes=1 << 16)

Once registered, a predictor/workload participates everywhere a built-in
does: ``build_predictor``, ``RunSpec``/``PointSpec`` round-trips, cached
campaign sweeps, and the ``python -m repro`` CLI.  Names are rejected on
collision (registering the same name twice is almost always a bug); use
:func:`unregister_predictor` / :func:`unregister_workload` in tests that
need a throwaway entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Type

from repro.core.interface import Prefetcher
from repro.core.ltcords import LTCordsConfig, LTCordsPrefetcher
from repro.core.sequence_storage import SequenceStorageConfig
from repro.core.signature_cache import SignatureCacheConfig
from repro.core.signatures import SignatureConfig
from repro.prefetchers.dbcp import DBCPConfig, DBCPPrefetcher
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher

# ---------------------------------------------------------------------------
# Config classes (campaign serialisation).
# ---------------------------------------------------------------------------

#: Every configuration dataclass the campaign layer may transport, by class
#: name.  ``repro.campaign.configs`` encodes/decodes against this mapping;
#: predictor entries add their config class on registration and the cache
#: infrastructure classes are added by :mod:`repro.campaign.configs` itself.
CONFIG_CLASSES: Dict[str, Type[Any]] = {}


def register_config_class(cls: Type[Any]) -> Type[Any]:
    """Register a configuration dataclass for campaign serialisation.

    Usable as a class decorator.  The class name is the wire tag, so two
    different classes may not share a name; re-registering the same class
    is a no-op.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"config classes must be dataclasses, got {cls!r}")
    existing = CONFIG_CLASSES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"config class name {cls.__name__!r} is already registered by {existing!r}"
        )
    CONFIG_CLASSES[cls.__name__] = cls
    return cls


# ---------------------------------------------------------------------------
# Predictors.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictorEntry:
    """One registered predictor: its class, config, and metadata.

    The kernel and the interpreted tier both replay this one class.
    """

    name: str
    cls: Type[Prefetcher]
    config_class: Optional[Type[Any]] = None
    default_config: Optional[Callable[[], Any]] = None
    description: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def build(self, config: Optional[object] = None) -> Prefetcher:
        """Instantiate the predictor with ``config`` (or the default)."""
        if self.config_class is None:
            # Config-free predictors (e.g. "none") ignore a passed config,
            # matching the historical build_predictor behaviour.
            return self.cls()
        if config is None:
            config = self.default_config() if self.default_config is not None else None
        return self.cls(config) if config is not None else self.cls()


_PREDICTORS: Dict[str, PredictorEntry] = {}


def register_predictor(
    name: str,
    cls: Optional[Type[Prefetcher]] = None,
    *,
    config_class: Optional[Type[Any]] = None,
    default_config: Optional[Callable[[], Any]] = None,
    description: str = "",
    metadata: Optional[Mapping[str, Any]] = None,
):
    """Register a predictor under ``name``.

    Called with a class (``register_predictor("dbcp", DBCPPrefetcher)``)
    it registers immediately and returns the :class:`PredictorEntry`.
    Called with only keyword metadata it returns a class decorator::

        @register_predictor("markov", config_class=MarkovConfig)
        class MarkovPrefetcher(Prefetcher): ...

    ``config_class`` is also added to :data:`CONFIG_CLASSES` so specs
    carrying the predictor's configuration serialise through campaigns;
    ``default_config`` defaults to ``config_class`` itself (called with no
    arguments).
    """

    def _register(predictor_cls: Type[Prefetcher]) -> PredictorEntry:
        if name in _PREDICTORS:
            raise ValueError(f"predictor {name!r} is already registered")
        if config_class is not None:
            register_config_class(config_class)
        entry = PredictorEntry(
            name=name,
            cls=predictor_cls,
            config_class=config_class,
            default_config=default_config if default_config is not None else config_class,
            description=description,
            metadata=dict(metadata or {}),
        )
        _PREDICTORS[name] = entry
        return entry

    if cls is None:
        def decorator(predictor_cls: Type[Prefetcher]) -> Type[Prefetcher]:
            _register(predictor_cls)
            return predictor_cls

        return decorator
    return _register(cls)


def unregister_predictor(name: str) -> None:
    """Remove a registered predictor (primarily for tests).

    The entry's config class is also dropped from :data:`CONFIG_CLASSES`
    when no other predictor still uses it, so a throwaway registration
    leaves no global state behind.
    """
    entry = _PREDICTORS.pop(name, None)
    if entry is None or entry.config_class is None:
        return
    still_used = any(e.config_class is entry.config_class for e in _PREDICTORS.values())
    if not still_used and CONFIG_CLASSES.get(entry.config_class.__name__) is entry.config_class:
        del CONFIG_CLASSES[entry.config_class.__name__]


def predictor_names() -> List[str]:
    """Sorted names of every registered predictor."""
    return sorted(_PREDICTORS)


def predictor_entry(name: str) -> PredictorEntry:
    """The :class:`PredictorEntry` for ``name`` (unknown names list what exists)."""
    try:
        return _PREDICTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; available: {', '.join(predictor_names())}"
        ) from None


def build_predictor(name: str, config: Optional[object] = None) -> Prefetcher:
    """Construct a registered predictor by name."""
    return predictor_entry(name).build(config)


# ---------------------------------------------------------------------------
# Workloads (synthetic benchmarks).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadEntry:
    """One registered benchmark: its metadata and workload factory."""

    name: str
    metadata: Any  # WorkloadMetadata (kept untyped to avoid an import cycle)
    factory: Callable[[Any, Optional[Any]], Any]

    def build(self, config: Optional[Any] = None):
        """Instantiate the synthetic workload (a ``SyntheticWorkload``)."""
        return self.factory(self.metadata, config)


_WORKLOADS: Dict[str, WorkloadEntry] = {}


def register_workload(metadata: Any, factory: Optional[Callable] = None):
    """Register a workload factory under ``metadata.name``.

    Usable as a decorator over the factory function (which receives
    ``(metadata, workload_config)`` and returns a ``SyntheticWorkload``)::

        @register_workload(_meta("mcf", ...))
        def _mcf(meta, cfg):
            return PointerChaseWorkload(meta, cfg, ...)

    or called directly with the factory as the second argument.
    """

    def _register(fn: Callable) -> Callable:
        name = metadata.name
        if name in _WORKLOADS:
            raise ValueError(f"benchmark {name!r} is already registered")
        _WORKLOADS[name] = WorkloadEntry(name=name, metadata=metadata, factory=fn)
        return fn

    if factory is None:
        return _register
    return _register(factory)


def unregister_workload(name: str) -> None:
    """Remove a registered workload (primarily for tests)."""
    _WORKLOADS.pop(name, None)


def _ensure_builtin_workloads() -> None:
    # The 28 paper benchmarks register themselves when their module loads;
    # import it lazily here (rather than at module top) because it imports
    # this module for the decorator.
    import repro.workloads.registry  # noqa: F401


def workload_names() -> List[str]:
    """Sorted names of every registered benchmark."""
    _ensure_builtin_workloads()
    return sorted(_WORKLOADS)


def workload_entry(name: str) -> WorkloadEntry:
    """The :class:`WorkloadEntry` for ``name`` (unknown names list what exists)."""
    _ensure_builtin_workloads()
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(workload_names())}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in predictor entries.  (Built-in workloads register from
# repro.workloads.registry, next to the factories and Table 2/3 data.)
# ---------------------------------------------------------------------------

for _cls in (SignatureConfig, SignatureCacheConfig, SequenceStorageConfig):
    register_config_class(_cls)

register_predictor(
    "ltcords", LTCordsPrefetcher,
    config_class=LTCordsConfig,
    description="last-touch correlated data streaming (the paper's predictor)",
)
register_predictor(
    "dbcp", DBCPPrefetcher,
    config_class=DBCPConfig,
    description="dead-block correlating prefetcher (Lai et al.)",
)
register_predictor(
    "dbcp-unlimited", DBCPPrefetcher,
    config_class=DBCPConfig, default_config=DBCPConfig.unlimited,
    description="DBCP with unbounded correlation-table storage (oracle)",
)
register_predictor(
    "ghb", GHBPrefetcher,
    config_class=GHBConfig,
    description="global history buffer PC/DC delta-correlation prefetcher",
)
register_predictor(
    "stride", StridePrefetcher,
    config_class=StrideConfig,
    description="per-PC reference-prediction-table stride prefetcher",
)
register_predictor(
    "none", NullPrefetcher,
    description="no prefetching (baseline)",
)
