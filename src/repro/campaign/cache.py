"""Content-addressed, on-disk result cache.

Every completed simulation point is persisted as one JSON file under
``.repro_cache/results/<key[:2]>/<key>.json`` where ``key`` is the
point's content hash (:meth:`PointSpec.key`, which folds in the package
version).  Re-running any campaign therefore only simulates points whose
spec — or the simulator itself — changed; everything else is read back
near-instantly.

The cache root defaults to ``.repro_cache`` in the current working
directory and can be redirected with the ``REPRO_CACHE_DIR`` environment
variable.  Set ``REPRO_NO_CACHE=1`` to bypass the cache entirely.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.campaign.spec import PointSpec
from repro.integrity.checksum import crc32_json
from repro.integrity.locks import Lease, lease_path_for
from repro.integrity.quarantine import quarantine_file
from repro.multicore.result import MulticoreResult
from repro.obs.metrics import REGISTRY
from repro.obs.observer import emit_warning
from repro.sim.multiprogram import MultiProgramResult
from repro.sim.timing import TimingResult
from repro.sim.trace_driven import SimulationResult
from repro.version import __version__

_CACHE_HITS = REGISTRY.counter("cache.hits")
_CACHE_MISSES = REGISTRY.counter("cache.misses")
_CACHE_CORRUPT = REGISTRY.counter("cache.corrupt")
_CACHE_PUT_ERRORS = REGISTRY.counter("cache.put_errors")
_CACHE_QUARANTINED = REGISTRY.counter("cache.quarantined")

#: Lease TTL for single-flight point execution (points run for seconds
#: to low minutes; waiters re-check the entry every poll tick anyway).
POINT_LEASE_TTL_S = 300.0

#: On-disk envelope schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: Map from a point's ``sim`` kind to the result class it produces.
RESULT_CLASSES = {
    "trace": SimulationResult,
    "timing": TimingResult,
    "multiprogram": MultiProgramResult,
    "multicore": MulticoreResult,
}

ResultType = Union[SimulationResult, TimingResult, MultiProgramResult, MulticoreResult]


def default_cache_dir() -> Path:
    """Resolve the cache root (``REPRO_CACHE_DIR`` override, else ``.repro_cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or ".repro_cache")


def cache_disabled() -> bool:
    """``True`` when ``REPRO_NO_CACHE`` requests a cache bypass."""
    return os.environ.get("REPRO_NO_CACHE", "").strip() in {"1", "true", "yes"}


def result_to_dict(sim: str, result: ResultType) -> Dict[str, Any]:
    """Encode a result of kind ``sim`` to a JSON-safe dict."""
    expected = RESULT_CLASSES[sim]
    if not isinstance(result, expected):
        raise TypeError(f"{sim} points produce {expected.__name__}, got {type(result).__name__}")
    return result.to_dict()


def result_from_dict(sim: str, data: Dict[str, Any]) -> ResultType:
    """Decode a result of kind ``sim`` from :func:`result_to_dict` output."""
    return RESULT_CLASSES[sim].from_dict(data)


class ResultCache:
    """Content-addressed store of serialized simulation results."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Entries that existed on disk but failed to decode or validate
        #: (distinct from plain misses, which are simply absent files).
        self.corrupt = 0
        #: Writes that failed (disk full, read-only root, ...); each is a
        #: warning event + ``cache.put_errors`` bump, never an exception.
        self.put_errors = 0
        #: Corrupt entries moved into ``quarantine/`` (subset of corrupt).
        self.quarantined = 0
        #: Fault-injection hook (``diskfull@N``): when set, the next
        #: :meth:`put` fails inside its real write path with this errno.
        self._fail_next_put_errno: Optional[int] = None

    # ------------------------------------------------------------------ paths
    @property
    def results_dir(self) -> Path:
        """Directory holding the per-point JSON files."""
        return self.root / "results"

    def path_for(self, point: PointSpec, key: Optional[str] = None) -> Path:
        """On-disk location of ``point``'s cache entry.

        ``key`` is ``point.key()`` when the caller already holds it
        (:meth:`get`, :meth:`put` and :meth:`claim` take it too, so a
        campaign hashes each point once).
        """
        if key is None:
            key = point.key()
        return self.results_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------ read/write
    def get(self, point: PointSpec, key: Optional[str] = None) -> Optional[ResultType]:
        """Return the cached result for ``point`` or ``None``.

        An absent file is an ordinary miss.  A file that *exists* but
        fails to decode, validate, or checksum is still served as a miss
        (the point simply re-runs), but it is counted separately — the
        instance's ``corrupt`` counter and the ``cache.corrupt`` metric
        — reported once as a ``warning`` event, and the damaged file is
        moved to the ``quarantine/`` sibling so it never masks the
        regenerated entry and stays available for post-mortem.
        """
        path = self.path_for(point, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        try:
            envelope = json.loads(raw)
            if envelope.get("schema") != SCHEMA_VERSION or envelope.get("sim") != point.sim:
                raise ValueError("stale or mismatched envelope")
            stored_crc = envelope.get("crc32")
            if stored_crc is not None and stored_crc != crc32_json(envelope["result"]):
                raise ValueError("result checksum mismatch")
            result = result_from_dict(point.sim, envelope["result"])
        except (ValueError, KeyError, TypeError) as exc:
            self.corrupt += 1
            self.misses += 1
            _CACHE_CORRUPT.inc()
            _CACHE_MISSES.inc()
            emit_warning(
                f"corrupt or stale result-cache entry {path} "
                f"({exc}; treated as a miss)",
                path=str(path),
            )
            if quarantine_file(path, self.root, reason=str(exc)) is not None:
                self.quarantined += 1
                _CACHE_QUARANTINED.inc()
            return None
        self.hits += 1
        _CACHE_HITS.inc()
        return result

    def put(
        self, point: PointSpec, result: ResultType, key: Optional[str] = None
    ) -> Optional[Path]:
        """Persist ``result`` for ``point`` (atomic rename; last writer wins).

        A write that fails for environmental reasons — disk full, a
        read-only cache root, a permissions change mid-campaign — must
        not abort a campaign whose simulation *succeeded*: the failure
        is counted (``cache.put_errors``), reported as a ``warning``
        event, and swallowed; the point simply stays uncached and the
        method returns ``None`` instead of the entry path.  Encoding
        errors (an unregistered result type) still raise: those are
        caller bugs, not environment.
        """
        if key is None:
            key = point.key()
        encoded = result_to_dict(point.sim, result)
        envelope = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "key": key,
            "sim": point.sim,
            "point": point.to_dict(),
            "result": encoded,
            # CRC32 of the canonical JSON of ``result``: catches torn
            # writes and bit rot on read (see :meth:`get`); entries
            # written before the field existed still verify structurally.
            "crc32": crc32_json(encoded),
        }
        path = self.path_for(point, key)
        tmp_name = None
        try:
            if self._fail_next_put_errno is not None:
                code, self._fail_next_put_errno = self._fail_next_put_errno, None
                raise OSError(code, f"{os.strerror(code)} (injected)")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps (the C encoder), not dump: the same bytes, faster.
                handle.write(json.dumps(envelope, sort_keys=True))
            os.replace(tmp_name, path)
        except OSError as error:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            self.put_errors += 1
            _CACHE_PUT_ERRORS.inc()
            emit_warning(
                f"result-cache write failed for {path} "
                f"({type(error).__name__}: {error}); continuing uncached",
                kind="cache_put_error",
                path=str(path),
            )
            return None
        except BaseException:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            raise
        return path

    def fail_next_put(self, code: int = errno.ENOSPC) -> None:
        """Arm the ``diskfull@N`` fault hook: the next :meth:`put` raises
        ``OSError(code)`` inside its real write path (and is therefore
        swallowed into the normal put-error tolerance)."""
        self._fail_next_put_errno = code

    # ------------------------------------------------------------------ single flight
    def lease_path_for(self, point: PointSpec) -> Path:
        """The generation-lease file guarding ``point``'s cache entry."""
        return lease_path_for(self.path_for(point))

    def claim(
        self, point: PointSpec, ttl_s: float = POINT_LEASE_TTL_S, key: Optional[str] = None
    ) -> Optional[Lease]:
        """Try to claim single-flight execution of ``point``.

        Returns an owned :class:`Lease` (caller must ``release()`` after
        publishing the entry) or ``None`` when another live process
        already holds the claim — the caller should
        :meth:`wait_for` the entry instead of re-executing.  Stale
        leases from dead processes are reaped transparently.
        """
        lease = Lease(lease_path_for(self.path_for(point, key)), ttl_s=ttl_s)
        return lease if lease.acquire() else None

    def wait_for(
        self,
        point: PointSpec,
        timeout_s: float = POINT_LEASE_TTL_S,
        poll_s: float = 0.05,
    ) -> Optional[ResultType]:
        """Poll for ``point``'s entry while another process executes it.

        Returns the decoded result as soon as it lands, or ``None`` when
        the claim holder's lease disappeared (released/reaped) without a
        readable entry, or the timeout passed — in both cases the caller
        should execute the point itself.
        """
        lease = Lease(self.lease_path_for(point), ttl_s=timeout_s)
        deadline = time.monotonic() + timeout_s
        path = self.path_for(point)
        while time.monotonic() < deadline:
            if path.exists():
                result = self.get(point)
                if result is not None:
                    return result
            if not lease.path.exists() or lease.is_stale():
                return self.get(point) if path.exists() else None
            time.sleep(poll_s)
        return None

    # ------------------------------------------------------------------ maintenance
    def entry_count(self) -> int:
        """Number of cached results on disk."""
        if not self.results_dir.is_dir():
            return 0
        return sum(1 for _ in self.results_dir.glob("*/*.json"))

    def size_bytes(self) -> int:
        """Total on-disk size of the cached results."""
        if not self.results_dir.is_dir():
            return 0
        return sum(path.stat().st_size for path in self.results_dir.glob("*/*.json"))

    def clean(self) -> int:
        """Delete every cached result; return how many entries were removed."""
        removed = 0
        if not self.results_dir.is_dir():
            return removed
        for path in sorted(self.results_dir.glob("*/*.json")):
            path.unlink()
            removed += 1
        for shard in sorted(self.results_dir.glob("*")):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed
