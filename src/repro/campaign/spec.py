"""Declarative sweep specifications.

A :class:`PointSpec` pins down everything one simulation needs — the
benchmark, the predictor and its configuration, the cache hierarchy, the
trace length and seed, and which simulator kind to run (functional
trace-driven, timing, or the multi-programmed pairing study).  Points are
plain data: they serialise to JSON-safe dicts (for process-pool transport
and the on-disk cache) and hash to a stable content key.

A :class:`SweepSpec` is the cross product of benchmark, predictor-variant,
hierarchy, trace-length and seed axes, plus optional free-form
``extra_points`` for sweep shapes that are not grids (e.g. Figure 11's
benchmark pairings).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.configs import decode_config, encode_config
from repro.cache.hierarchy import HierarchyConfig
from repro.trace.store import TRACE_FORMAT_VERSION
from repro.version import __version__

#: Simulator kinds a point may request.
SIM_KINDS = ("trace", "timing", "multiprogram")

#: Default per-point trace length (matches the experiment drivers).
DEFAULT_NUM_ACCESSES = 150_000


@dataclass
class PointSpec:
    """One fully-specified simulation point.

    ``label`` is free-form bookkeeping for drivers (e.g. ``"size:4096"``)
    and is deliberately excluded from the content key so that the same
    physical simulation shares one cache entry across campaigns.
    """

    benchmark: str
    predictor: str = "ltcords"
    predictor_config: Optional[object] = None
    hierarchy_config: Optional[HierarchyConfig] = None
    num_accesses: int = DEFAULT_NUM_ACCESSES
    seed: int = 42
    sim: str = "trace"
    # Timing-simulation only.
    perfect_l1: bool = False
    # Multi-programmed simulation only.
    secondary: Optional[str] = None
    quantum_instructions: int = 20_000
    max_switches: int = 60
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sim not in SIM_KINDS:
            raise ValueError(f"sim must be one of {SIM_KINDS}, got {self.sim!r}")
        if self.sim == "multiprogram" and not self.secondary:
            raise ValueError("multiprogram points need a secondary benchmark")
        if self.num_accesses <= 0:
            raise ValueError("num_accesses must be positive")

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (excludes ``label``; see class docstring)."""
        return {
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "predictor_config": encode_config(self.predictor_config),
            "hierarchy_config": encode_config(self.hierarchy_config),
            "num_accesses": self.num_accesses,
            "seed": self.seed,
            "sim": self.sim,
            "perfect_l1": self.perfect_l1,
            "secondary": self.secondary,
            "quantum_instructions": self.quantum_instructions,
            "max_switches": self.max_switches,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], label: Optional[str] = None) -> "PointSpec":
        """Reconstruct a point from :meth:`to_dict` output."""
        payload = dict(data)
        payload.pop("label", None)
        payload["predictor_config"] = decode_config(payload.get("predictor_config"))
        payload["hierarchy_config"] = decode_config(payload.get("hierarchy_config"))
        return cls(label=label, **payload)

    def key(self) -> str:
        """Stable content hash of this point plus the package version.

        The version is folded in so that cache entries from older code
        are never replayed against newer simulator behaviour, and the
        trace-store format version is folded in so that a format bump —
        which retires every stored trace — also invalidates any cached
        result that was computed from the retired format.
        """
        canonical = json.dumps(
            {
                "point": self.to_dict(),
                "version": __version__,
                "trace_format": TRACE_FORMAT_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_from_dict(data: Dict[str, Any], label: Optional[str] = None):
    """Decode any spec kind from its ``to_dict`` payload.

    The ``sim`` discriminator selects the class: ``"multicore"`` payloads
    rebuild a :class:`~repro.multicore.spec.MulticoreSpec` (imported
    lazily to keep this module dependency-light), everything else a
    :class:`PointSpec`.  Pool workers and any other spec-transport layer
    should decode through here rather than ``PointSpec.from_dict``.
    """
    if data.get("sim") == "multicore":
        from repro.multicore.spec import MulticoreSpec

        return MulticoreSpec.from_dict(data, label=label)
    return PointSpec.from_dict(data, label=label)


@dataclass(frozen=True)
class PredictorVariant:
    """One predictor axis value: a predictor name, its config, and a label."""

    predictor: str
    config: Optional[object] = None
    label: Optional[str] = None

    @property
    def effective_label(self) -> str:
        """Label used on generated points (defaults to the predictor name)."""
        return self.label if self.label is not None else self.predictor


@dataclass
class SweepSpec:
    """A named grid of simulation points.

    ``points()`` enumerates the cross product of the axes in a fixed,
    deterministic order (benchmarks outermost, seeds innermost), followed
    by any ``extra_points``.
    """

    name: str
    benchmarks: Sequence[str] = ()
    variants: Sequence[PredictorVariant] = (PredictorVariant("ltcords"),)
    hierarchy_configs: Sequence[Optional[HierarchyConfig]] = (None,)
    num_accesses: Sequence[int] = (DEFAULT_NUM_ACCESSES,)
    seeds: Sequence[int] = (42,)
    sim: str = "trace"
    extra_points: List[PointSpec] = field(default_factory=list)

    def points(self) -> List[PointSpec]:
        """Materialise every point of the sweep."""
        generated: List[PointSpec] = []
        for benchmark in self.benchmarks:
            for variant in self.variants:
                for hierarchy in self.hierarchy_configs:
                    for accesses in self.num_accesses:
                        for seed in self.seeds:
                            generated.append(
                                PointSpec(
                                    benchmark=benchmark,
                                    predictor=variant.predictor,
                                    predictor_config=variant.config,
                                    hierarchy_config=hierarchy,
                                    num_accesses=accesses,
                                    seed=seed,
                                    sim=self.sim,
                                    label=variant.effective_label,
                                )
                            )
        generated.extend(self.extra_points)
        return generated

    def __len__(self) -> int:
        return len(self.points())
