"""The single source of truth for simulation engine names.

Every engine validator, CLI choice list, and error message in the
package imports from here.  Before this module existed the engine names
were defined in four places (``cache/hierarchy.py``, ``registry.py``,
and hardcoded tuples in ``campaign/spec.py`` and ``registry.py``), so a
new engine could be half-registered — accepted by
:class:`~repro.cache.hierarchy.CacheHierarchy` but rejected by
:class:`~repro.campaign.spec.PointSpec`.  The regression suite asserts
that the literal tuple below is the only engine-name tuple left in the
source tree.

The module is deliberately dependency-free (stdlib ``typing`` only) so
that every layer — cache, registry, campaign, multicore, CLI — can
import it without cycles.
"""

from __future__ import annotations

from typing import Tuple

#: Every simulation engine, in documentation order.  Both drive the same
#: predictor object; an engine selects the cache model and replay loop:
#:
#: * ``"fast"``   — the compiled replay kernel where the run qualifies,
#:   else flat-array caches and a columnar loop (the default; see
#:   :mod:`repro.sim.vector_replay`);
#: * ``"legacy"`` — the original object-per-access cache model and loop,
#:   kept for equivalence testing and benchmarking.
ENGINES: Tuple[str, ...] = ("fast", "legacy")

#: The engine applied when a spec or simulator does not choose one.  Specs
#: leave it out of their content keys; "legacy" is keyed separately for
#: cross-checking campaigns.
DEFAULT_ENGINE = "fast"


def validate_engine(engine: str) -> str:
    """Return ``engine`` if known, else raise the canonical ``ValueError``."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine
