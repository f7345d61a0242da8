"""Content-addressed on-disk trace store (``.repro_traces/``).

Every figure driver and every campaign sweep point replays a workload
trace that is fully determined by ``(benchmark, num_accesses, seed,
instructions_per_access)``.  Generating those traces is pure Python and
costs as much as replaying them, so regenerating
one per sweep point is redundant work.  The trace store persists each
generated trace once, in a versioned struct-packed binary format, and
serves every later request — including requests from other worker
processes of a :class:`~repro.campaign.runner.CampaignRunner` pool — by
``mmap``-ing the columns back with zero per-record Python objects.

File format (version :data:`TRACE_FORMAT_VERSION`)
---------------------------------------------------

::

    offset 0   magic            8 bytes  b"REPROTRC"
    offset 8   format version   u16 little-endian
    offset 10  flags            u16 little-endian (bit 0: big-endian data)
    offset 12  header length    u32 little-endian (JSON bytes that follow)
    offset 16  header JSON      benchmark/num_accesses/seed/ipa/name/metadata
    ...        pc column        num_accesses * int64
    ...        address column   num_accesses * int64
    ...        icount column    num_accesses * int64
    ...        is_write column  num_accesses * int8

Column data is always written little-endian; a loader on a big-endian
host falls back from the zero-copy ``mmap`` cast to a byte-swapped
``array`` copy.  The file size is fully determined by the header, so
truncation is detected before any column is touched.

Keys and prefixes
-----------------

Entries are content-addressed: the file name embeds a SHA-256 of the
generation spec (benchmark, trace length, seed, instruction spacing and
the format version), so distinct specs never collide and a format bump
retires every old file.  Because every synthetic workload materialises a
prefix of one deterministic reference stream, a stored trace also serves
any *shorter* request with the same benchmark/seed/spacing — the store
slices the mmapped columns instead of regenerating.

The store root defaults to ``.repro_traces`` in the current working
directory, can be redirected with ``REPRO_TRACE_DIR``, and is bypassed
entirely when ``REPRO_NO_TRACE_STORE=1``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.integrity.checksum import crc32_bytes
from repro.integrity.locks import Lease, lease_path_for, single_flight_disabled
from repro.integrity.quarantine import quarantine_file
from repro.obs.metrics import REGISTRY
from repro.obs.observer import emit_warning
from repro.trace.stream import TraceColumns, TraceStream
from repro.version import __version__

# Process-wide mirrors of the per-instance TraceStoreStats, so hit rates
# survive the short-lived TraceStore objects the simulators construct.
_STORE_HITS = REGISTRY.counter("trace_store.hits")
_STORE_PREFIX_HITS = REGISTRY.counter("trace_store.prefix_hits")
_STORE_MISSES = REGISTRY.counter("trace_store.misses")
_STORE_GENERATED = REGISTRY.counter("trace_store.generated")
_STORE_INVALID = REGISTRY.counter("trace_store.invalid")
_STORE_PUT_ERRORS = REGISTRY.counter("trace_store.put_errors")
_STORE_QUARANTINED = REGISTRY.counter("trace_store.quarantined")
_STORE_COALESCED = REGISTRY.counter("trace_store.coalesced")

#: Bump when the binary layout (or the meaning of a column) changes.
#: Folded into every file's content key *and* into campaign cache keys
#: (:meth:`repro.campaign.spec.PointSpec.key`), so a bump invalidates
#: both stale trace files and stale cached simulation results.
#: v2 added a CRC32 of the column payload to the JSON header; v1 files
#: remain readable (size-checked only — they carry no checksum).
TRACE_FORMAT_VERSION = 2

#: Format versions :func:`read_trace_file` still understands.
READABLE_FORMAT_VERSIONS = (1, 2)

_MAGIC = b"REPROTRC"
_HEADER_STRUCT = struct.Struct("<8sHHI")
_FLAG_BIG_ENDIAN = 1
_SUFFIX = ".rtrc"

#: ``REPRO_VERIFY`` checksum-verification modes: ``once`` (default)
#: verifies each distinct file version once per process and memoises;
#: ``always`` recomputes on every read; ``never`` skips verification.
VERIFY_MODES = ("once", "always", "never")

#: Lease TTL for single-flight trace generation (generous: generating
#: the largest standard traces takes seconds, not minutes).
GENERATION_LEASE_TTL_S = 120.0

#: Files whose payload checksum this process already verified, keyed by
#: ``(path, size, mtime_ns)`` so any rewrite re-verifies.
_VERIFIED: set = set()


def verify_mode() -> str:
    """Checksum-verification mode (``REPRO_VERIFY``, default ``once``)."""
    mode = os.environ.get("REPRO_VERIFY", "").strip().lower() or "once"
    if mode not in VERIFY_MODES:
        raise ValueError(f"REPRO_VERIFY must be one of {VERIFY_MODES}, got {mode!r}")
    return mode


class TraceStoreError(ValueError):
    """Raised when a trace file is unreadable, corrupt, or incompatible."""


def default_trace_dir() -> Path:
    """Resolve the store root (``REPRO_TRACE_DIR`` override, else ``.repro_traces``)."""
    return Path(os.environ.get("REPRO_TRACE_DIR") or ".repro_traces")


def store_disabled() -> bool:
    """``True`` when ``REPRO_NO_TRACE_STORE`` requests a store bypass."""
    return os.environ.get("REPRO_NO_TRACE_STORE", "").strip() in {"1", "true", "yes"}


def _spec_payload(benchmark: str, config) -> Dict[str, Any]:
    # The package version is part of the key: workload generators are
    # code, so a release that changes one must retire every stored trace
    # (regeneration is paid once per unique spec and then cached again).
    return {
        "benchmark": benchmark,
        "num_accesses": config.num_accesses,
        "seed": config.seed,
        "instructions_per_access": config.instructions_per_access,
        "format": TRACE_FORMAT_VERSION,
        "repro_version": __version__,
    }


def trace_key(benchmark: str, config) -> str:
    """Stable content hash of one generation spec (plus the format version)."""
    canonical = json.dumps(_spec_payload(benchmark, config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _column_bytes(column, typecode: str) -> bytes:
    """Little-endian raw bytes of one column (arrays are written zero-copy)."""
    if not (isinstance(column, array) and column.typecode == typecode):
        try:
            column = array(typecode, column)
        except OverflowError:
            raise TraceStoreError(
                "trace columns do not fit the int64 binary format"
            ) from None
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column = array(typecode, column)
        column.byteswap()
    return column.tobytes()


def write_trace_file(
    trace: TraceStream, path: Union[str, Path], spec: Optional[Dict[str, Any]] = None
) -> Path:
    """Serialise ``trace`` to ``path`` in the binary format (atomic replace).

    ``spec`` (the generation parameters) is carried in the header beside
    — never inside — the trace metadata, so a loaded stream's metadata is
    bit-identical to the freshly generated one's.
    """
    path = Path(path)
    columns = trace.as_arrays()
    count = len(columns)
    payload = (
        _column_bytes(columns.pc, "q"),
        _column_bytes(columns.address, "q"),
        _column_bytes(columns.icount, "q"),
        _column_bytes(columns.is_write, "b"),
    )
    header = {
        "name": trace.name,
        "num_accesses": count,
        "metadata": dict(trace.metadata),
        "spec": dict(spec or {}),
        # CRC32 of the concatenated column payload exactly as written
        # (always little-endian on disk); verified on read per
        # ``REPRO_VERIFY`` and by `python -m repro doctor`.
        "crc32": crc32_bytes(*payload),
    }
    header_json = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    preamble = _HEADER_STRUCT.pack(_MAGIC, TRACE_FORMAT_VERSION, 0, len(header_json))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(preamble)
            handle.write(header_json)
            for blob in payload:
                handle.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _read_preamble(handle) -> Dict[str, Any]:
    """Parse and validate the fixed preamble + JSON header of an open file."""
    raw = handle.read(_HEADER_STRUCT.size)
    if len(raw) != _HEADER_STRUCT.size:
        raise TraceStoreError("truncated trace file (incomplete preamble)")
    magic, version, flags, header_len = _HEADER_STRUCT.unpack(raw)
    if magic != _MAGIC:
        raise TraceStoreError("not a repro trace file (bad magic)")
    if version not in READABLE_FORMAT_VERSIONS:
        raise TraceStoreError(
            f"trace format v{version} is not supported (this build reads "
            f"v{READABLE_FORMAT_VERSIONS}); regenerate or `python -m repro.trace clean`"
        )
    header_json = handle.read(header_len)
    if len(header_json) != header_len:
        raise TraceStoreError("truncated trace file (incomplete header)")
    try:
        header = json.loads(header_json.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceStoreError(f"corrupt trace header: {exc}") from exc
    count = header.get("num_accesses")
    if not isinstance(count, int) or count < 0:
        raise TraceStoreError("corrupt trace header: bad num_accesses")
    header["_flags"] = flags
    header["_data_offset"] = _HEADER_STRUCT.size + header_len
    header["_format_version"] = version
    return header


def read_trace_header(path: Union[str, Path]) -> Dict[str, Any]:
    """The JSON header of a stored trace (name, count, metadata), validated."""
    with open(path, "rb") as handle:
        return _read_preamble(handle)


def _should_verify(path: Path, size: int, mtime_ns: int, verify: Optional[bool]) -> bool:
    """Whether this read must recompute the payload checksum.

    ``verify=None`` follows :func:`verify_mode`: under ``once`` (the
    default) each distinct file version — path, size, mtime — is
    verified the first time any read in this process touches it, then
    served straight off the ``mmap`` with no byte-touching overhead.
    That keeps integrity checking off the hot path (the warm-store
    bench) while still guaranteeing no *unverified* payload is ever
    replayed.  ``verify=True`` (the doctor) always recomputes.
    """
    if verify is not None:
        return verify
    mode = verify_mode()
    if mode == "never":
        return False
    if mode == "always":
        return True
    return (str(path), size, mtime_ns) not in _VERIFIED


def verify_payload_crc(header: Dict[str, Any], payload: "memoryview") -> None:
    """Raise :class:`TraceStoreError` when ``payload`` fails the header CRC.

    v1 headers carry no checksum; they pass (size checking in the
    caller is their only protection — exactly the pre-v2 behaviour).
    """
    expected = header.get("crc32")
    if expected is None:
        return
    actual = crc32_bytes(payload)
    if actual != expected:
        raise TraceStoreError(
            f"payload checksum mismatch (stored {expected:#010x}, "
            f"computed {actual:#010x}) — torn write or bit rot"
        )


def read_trace_file(path: Union[str, Path], verify: Optional[bool] = None) -> TraceStream:
    """Load a stored trace with zero per-record objects.

    The four columns are served straight out of an ``mmap`` of the file
    through ``memoryview.cast`` — no copies, no record objects; the views
    keep the mapping alive for the lifetime of the returned stream.

    ``verify`` controls payload-checksum verification: ``None`` follows
    ``REPRO_VERIFY`` (default: verify each file version once per
    process), ``True`` forces a recompute, ``False`` skips it.  Columns
    whose CRC this process verified skip the address-domain scan of
    :class:`~repro.trace.stream.TraceColumns`; v1 files and unverified
    reads keep it.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        header = _read_preamble(handle)
        count = header["num_accesses"]
        offset = header["_data_offset"]
        expected = offset + count * 25  # three int64 columns + one int8 column
        stat = os.fstat(handle.fileno())
        size = stat.st_size
        if size != expected:
            raise TraceStoreError(
                f"truncated or padded trace file ({size} bytes, expected {expected})"
            )
        check = _should_verify(path, size, stat.st_mtime_ns, verify)
        swapped = bool(header["_flags"] & _FLAG_BIG_ENDIAN) != (sys.byteorder == "big")
        if count == 0:
            if check:
                verify_payload_crc(header, memoryview(b""))
                _VERIFIED.add((str(path), size, stat.st_mtime_ns))
            columns = (array("q"), array("q"), array("b"), array("q"))
        elif not swapped:
            view = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
            if check:
                verify_payload_crc(header, view[offset:])
                _VERIFIED.add((str(path), size, stat.st_mtime_ns))
            span = 8 * count
            pc = view[offset:offset + span].cast("q")
            address = view[offset + span:offset + 2 * span].cast("q")
            icount = view[offset + 2 * span:offset + 3 * span].cast("q")
            is_write = view[offset + 3 * span:offset + 3 * span + count].cast("b")
            columns = (pc, address, is_write, icount)
        else:  # pragma: no cover - byte order differs from the writing host
            if check:
                handle.seek(offset)
                verify_payload_crc(header, memoryview(handle.read()))
                _VERIFIED.add((str(path), size, stat.st_mtime_ns))
            handle.seek(offset)
            pc = array("q")
            address = array("q")
            icount = array("q")
            is_write = array("b")
            pc.fromfile(handle, count)
            address.fromfile(handle, count)
            icount.fromfile(handle, count)
            is_write.fromfile(handle, count)
            for column in (pc, address, icount):
                column.byteswap()
            columns = (pc, address, is_write, icount)
        # A payload whose CRC this process verified is what a writer
        # serialised from checked columns.
        verified = header.get("crc32") is not None and (
            (str(path), size, stat.st_mtime_ns) in _VERIFIED
        )
    return TraceStream.from_columns(
        TraceColumns._trusted(*columns) if verified else TraceColumns(*columns),
        name=header.get("name", "trace"),
        metadata=header.get("metadata") or {},
    )


@dataclass
class TraceStoreStats:
    """Per-store-instance hit/miss accounting."""

    hits: int = 0
    prefix_hits: int = 0
    misses: int = 0
    generated: int = 0
    invalid: int = 0
    #: Failed persists (disk full, read-only root): the in-memory trace
    #: is still served; the store just stays cold for that spec.
    put_errors: int = 0
    #: Corrupt entries moved into ``quarantine/`` before regeneration.
    quarantined: int = 0
    #: Misses served by waiting out another process's generation lease
    #: (single-flight: the entry appeared instead of being regenerated).
    coalesced: int = 0


@dataclass
class TraceStoreEntry:
    """One stored trace, as reported by :meth:`TraceStore.entries`."""

    path: Path
    benchmark: str
    num_accesses: int
    seed: int
    instructions_per_access: float
    size_bytes: int
    metadata: Dict[str, Any] = field(default_factory=dict)


class TraceStore:
    """Content-addressed store of generated workload traces."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_trace_dir()
        self.stats = TraceStoreStats()

    # ------------------------------------------------------------------ paths
    def path_for(self, benchmark: str, config) -> Path:
        """On-disk location for the trace of ``(benchmark, config)``."""
        key = trace_key(benchmark, config)
        return (
            self.root
            / benchmark
            / f"{benchmark}-n{config.num_accesses}-s{config.seed}-{key[:16]}{_SUFFIX}"
        )

    # ------------------------------------------------------------------ lookup
    def _find_prefix(self, benchmark: str, config) -> Optional[TraceStream]:
        """Serve ``config`` by slicing a longer stored trace, if one exists.

        Every synthetic workload emits a prefix of one deterministic
        reference stream, so a stored trace with the same benchmark,
        seed and instruction spacing but a larger ``num_accesses`` is a
        bit-exact superset of the requested one.
        """
        bench_dir = self.root / benchmark
        if not bench_dir.is_dir():
            return None
        best_path: Optional[Path] = None
        best_count = -1
        for path in sorted(bench_dir.glob(f"*{_SUFFIX}")):
            try:
                header = read_trace_header(path)
            except (OSError, TraceStoreError):
                continue
            spec = header.get("spec") or {}
            if (
                spec.get("benchmark") == benchmark
                and header.get("num_accesses", -1) >= config.num_accesses
                and spec.get("seed") == config.seed
                and spec.get("instructions_per_access") == config.instructions_per_access
                and spec.get("repro_version") == __version__
            ):
                count = header["num_accesses"]
                if best_count < 0 or count < best_count:
                    best_path, best_count = path, count
        if best_path is None:
            return None
        try:
            trace = read_trace_file(best_path)
        except (OSError, TraceStoreError):
            return None
        return trace[: config.num_accesses]

    def _try_load(self, path: Path) -> Optional[TraceStream]:
        """Read a stored entry; quarantine + count it when damaged."""
        try:
            return read_trace_file(path)
        except (OSError, TraceStoreError) as exc:
            self.stats.invalid += 1
            _STORE_INVALID.inc()
            emit_warning(
                f"invalid trace-store entry {path} ({exc}); regenerating",
                path=str(path),
            )
            if path.exists():
                if quarantine_file(path, self.root, reason=str(exc)) is not None:
                    self.stats.quarantined += 1
                    _STORE_QUARANTINED.inc()
            return None

    def load_or_generate(self, benchmark: str, config=None) -> TraceStream:
        """The trace for ``(benchmark, config)`` — loaded if stored, else generated.

        Generation happens at most once per unique spec per store, even
        across concurrent processes: a miss takes a TTL'd generation
        lease (``<entry>.lease``), and every other process needing the
        same spec waits for the entry to appear instead of regenerating
        (single-flight; ``REPRO_NO_SINGLE_FLIGHT=1`` disables).  Stale
        leases left by dead processes are reaped by PID/heartbeat check.
        The persist itself is an atomic rename, so even the lease-less
        race stays benign.  A damaged stored entry (bad checksum,
        truncation) is moved to ``quarantine/`` and regenerated
        transparently.
        """
        from repro.workloads.base import WorkloadConfig

        config = config or WorkloadConfig()
        path = self.path_for(benchmark, config)
        if path.exists():
            trace = self._try_load(path)
            if trace is not None:
                self.stats.hits += 1
                _STORE_HITS.inc()
                return trace
        prefix = self._find_prefix(benchmark, config)
        if prefix is not None:
            self.stats.prefix_hits += 1
            _STORE_PREFIX_HITS.inc()
            return prefix
        self.stats.misses += 1
        _STORE_MISSES.inc()
        lease: Optional[Lease] = None
        if not single_flight_disabled():
            lease = Lease(lease_path_for(path), ttl_s=GENERATION_LEASE_TTL_S)
            outcome = lease.acquire_or_wait(produced=path.exists)
            if path.exists():
                # Another process published while we waited — or between
                # our miss and our claim (the double-check that makes
                # generation exactly-once, not just usually-once).
                trace = self._try_load(path)
                if trace is not None:
                    self.stats.coalesced += 1
                    _STORE_COALESCED.inc()
                    lease.release()
                    return trace
                # The producer's entry is damaged: regenerate ourselves.
            if outcome != "acquired":
                lease = None  # waited out or timed out: no claim to hold
        try:
            from repro.workloads.registry import get_workload

            trace = get_workload(benchmark, config).generate()
            self.stats.generated += 1
            _STORE_GENERATED.inc()
            try:
                self.save(trace, benchmark, config)
            except (OSError, TraceStoreError) as error:
                # Read-only/full disk, or columns that do not fit the
                # int64 format: serve the in-memory trace anyway.
                self.stats.put_errors += 1
                _STORE_PUT_ERRORS.inc()
                emit_warning(
                    f"trace-store write failed for {path} "
                    f"({type(error).__name__}: {error}); serving the in-memory trace",
                    kind="trace_put_error",
                    path=str(path),
                )
        finally:
            if lease is not None:
                lease.release()
        return trace

    def save(self, trace: TraceStream, benchmark: str, config) -> Path:
        """Persist ``trace`` under its content-addressed path; return the path."""
        return write_trace_file(
            trace, self.path_for(benchmark, config), spec=_spec_payload(benchmark, config)
        )

    # ------------------------------------------------------------------ maintenance
    def entries(self) -> List[TraceStoreEntry]:
        """Every readable stored trace (corrupt files are skipped)."""
        out: List[TraceStoreEntry] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob(f"*/*{_SUFFIX}")):
            try:
                header = read_trace_header(path)
            except (OSError, TraceStoreError):
                continue
            spec = header.get("spec") or {}
            out.append(
                TraceStoreEntry(
                    path=path,
                    benchmark=header.get("name", "?"),
                    num_accesses=header.get("num_accesses", 0),
                    seed=spec.get("seed", -1),
                    instructions_per_access=spec.get("instructions_per_access", 3.0),
                    size_bytes=path.stat().st_size,
                    metadata=header.get("metadata") or {},
                )
            )
        return out

    def size_bytes(self) -> int:
        """Total on-disk size of every stored trace."""
        if not self.root.is_dir():
            return 0
        return sum(path.stat().st_size for path in self.root.glob(f"*/*{_SUFFIX}"))

    def clean(self) -> int:
        """Delete every stored trace; return how many files were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.glob(f"*/*{_SUFFIX}")):
            path.unlink()
            removed += 1
        for bench_dir in sorted(self.root.glob("*")):
            if bench_dir.is_dir():
                try:
                    bench_dir.rmdir()
                except OSError:
                    pass
        return removed

    def prewarm(self, benchmarks, configs) -> int:
        """Ensure a trace is stored for every ``benchmark × config``; return count."""
        warmed = 0
        for benchmark in benchmarks:
            for config in configs:
                self.load_or_generate(benchmark, config)
                warmed += 1
        return warmed


def load_or_generate_trace(benchmark: str, config=None, store: Optional[TraceStore] = None) -> TraceStream:
    """Store-backed trace lookup used by the simulators.

    Honours ``REPRO_NO_TRACE_STORE`` (bypasses the store entirely) and
    ``REPRO_TRACE_DIR`` (store root) when no explicit ``store`` is given.
    """
    if store is None:
        if store_disabled():
            from repro.workloads.base import WorkloadConfig
            from repro.workloads.registry import get_workload

            return get_workload(benchmark, config or WorkloadConfig()).generate()
        store = TraceStore()
    return store.load_or_generate(benchmark, config)
