"""Declarative multicore co-run specifications.

A :class:`MulticoreSpec` pins down one shared-hierarchy co-run
completely: the per-core benchmarks, per-core predictors (heterogeneous
mixes allowed), the hierarchy, per-core trace length and seed, and the
interleaving policy.  It is the multicore sibling of
:class:`~repro.campaign.spec.PointSpec` and speaks the same protocol —
``sim`` kind, lossless ``to_dict``/``from_dict``, and a stable content
:meth:`key` folding the package and trace-format versions — so specs
flow unchanged through :class:`~repro.run.Session`, the campaign
runner's process pool, and the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.campaign.configs import decode_config, encode_config
from repro.campaign.spec import DEFAULT_NUM_ACCESSES
from repro.cache.hierarchy import HierarchyConfig
from repro.trace.store import TRACE_FORMAT_VERSION
from repro.version import __version__

#: Interleaving policies the scenario engine implements.
INTERLEAVE_POLICIES = ("rr", "icount")

#: Address shift separating consecutive cores' physical ranges (1GB),
#: mirroring the multi-programmed study's non-overlapping placement.
DEFAULT_ADDRESS_SHIFT = 1 << 30

#: Round-robin turn length, in memory references per core.
DEFAULT_QUANTUM_ACCESSES = 1_000


def validate_schedule(interleave: str, quantum_accesses: int) -> None:
    """Reject an unknown interleave policy or a quantum below one access."""
    if interleave not in INTERLEAVE_POLICIES:
        raise ValueError(f"interleave must be one of {INTERLEAVE_POLICIES}, got {interleave!r}")
    if quantum_accesses < 1:
        raise ValueError(f"quantum_accesses must be at least 1, got {quantum_accesses}")


@dataclass
class MulticoreSpec:
    """One fully-specified N-core co-run.

    ``predictors`` (and ``predictor_configs``) of length one broadcast
    to every core; otherwise they must name one entry per core.
    ``label`` is free-form driver bookkeeping, excluded from the content
    key like :class:`~repro.campaign.spec.PointSpec.label`.
    """

    benchmarks: Tuple[str, ...] = ()
    predictors: Tuple[str, ...] = ("ltcords",)
    predictor_configs: Optional[Tuple[Optional[object], ...]] = None
    hierarchy_config: Optional[HierarchyConfig] = None
    num_accesses: int = DEFAULT_NUM_ACCESSES
    seed: int = 42
    interleave: str = "rr"
    quantum_accesses: int = DEFAULT_QUANTUM_ACCESSES
    #: Core ``i``'s addresses are shifted by ``i * address_shift`` so
    #: co-scheduled working sets occupy disjoint physical ranges.
    address_shift: int = DEFAULT_ADDRESS_SHIFT
    label: Optional[str] = None

    #: Simulator kind, dispatched on by ``execute_spec`` and the caches.
    sim: str = field(default="multicore", init=False, repr=False)

    def __post_init__(self) -> None:
        self.benchmarks = tuple(self.benchmarks)
        self.predictors = tuple(self.predictors)
        if self.predictor_configs is not None:
            self.predictor_configs = tuple(self.predictor_configs)
        if not self.benchmarks:
            raise ValueError("multicore specs need at least one benchmark")
        if len(self.predictors) not in (1, len(self.benchmarks)):
            raise ValueError(
                f"predictors must name one entry or one per core "
                f"({len(self.benchmarks)}), got {len(self.predictors)}"
            )
        if self.predictor_configs is not None and len(self.predictor_configs) not in (
            1,
            len(self.benchmarks),
        ):
            raise ValueError("predictor_configs must align with predictors (1 or one per core)")
        if self.num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        validate_schedule(self.interleave, self.quantum_accesses)
        if self.address_shift < 0:
            raise ValueError("address_shift must be non-negative")

    # ------------------------------------------------------------------ views
    @property
    def num_cores(self) -> int:
        """Number of co-running cores."""
        return len(self.benchmarks)

    @property
    def core_predictors(self) -> Tuple[str, ...]:
        """Predictor name per core (broadcast applied)."""
        if len(self.predictors) == 1:
            return self.predictors * self.num_cores
        return self.predictors

    @property
    def core_predictor_configs(self) -> Tuple[Optional[object], ...]:
        """Predictor config per core (broadcast applied; ``None`` = defaults)."""
        if self.predictor_configs is None:
            return (None,) * self.num_cores
        if len(self.predictor_configs) == 1:
            return self.predictor_configs * self.num_cores
        return self.predictor_configs

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (excludes ``label``)."""
        return {
            "sim": "multicore",
            "benchmarks": list(self.benchmarks),
            "predictors": list(self.predictors),
            "predictor_configs": None
            if self.predictor_configs is None
            else [encode_config(config) for config in self.predictor_configs],
            "hierarchy_config": encode_config(self.hierarchy_config),
            "num_accesses": self.num_accesses,
            "seed": self.seed,
            "interleave": self.interleave,
            "quantum_accesses": self.quantum_accesses,
            "address_shift": self.address_shift,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], label: Optional[str] = None) -> "MulticoreSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        payload = dict(data)
        payload.pop("sim", None)
        payload.pop("label", None)
        configs = payload.get("predictor_configs")
        payload["predictor_configs"] = (
            None if configs is None else tuple(decode_config(config) for config in configs)
        )
        payload["hierarchy_config"] = decode_config(payload.get("hierarchy_config"))
        payload["benchmarks"] = tuple(payload.get("benchmarks", ()))
        payload["predictors"] = tuple(payload.get("predictors", ("ltcords",)))
        return cls(label=label, **payload)

    def key(self) -> str:
        """Stable content hash (same versioning scheme as ``PointSpec.key``)."""
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


def expand_core_benchmarks(names: Sequence[str], cores: int) -> Tuple[str, ...]:
    """Per-core benchmark tuple from a (possibly shorter) name list.

    Names cycle to fill ``cores`` slots: ``(["mcf"], 2)`` co-runs mcf
    with itself (rate-style), ``(["mcf", "art"], 4)`` alternates.
    """
    if not names:
        raise ValueError("need at least one benchmark name")
    if cores < 1:
        raise ValueError("cores must be at least 1")
    count = max(cores, len(names))
    return tuple(names[i % len(names)] for i in range(count))
