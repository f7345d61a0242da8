"""Advisory file locks and TTL'd lease files for cross-process safety.

Two complementary primitives:

:class:`FileLock`
    A thin wrapper over ``fcntl.flock`` on a sidecar ``*.lock`` file.
    Kernel-owned, so it vanishes with its holder — the right tool for
    *session-length* exclusion like "one writer per campaign journal".
    On platforms without ``fcntl`` it degrades to a no-op (advisory
    locking never gates correctness here, only duplicate work and
    interleaved appends).

:class:`Lease`
    A claim *file* (``<entry>.lease``) created with ``O_EXCL`` and
    carrying the holder's PID, host, and creation time.  Unlike a kernel
    lock, a lease is visible across hosts on a shared filesystem and
    survives inspection by other processes — the right tool for
    *work-length* claims like "I am generating this store entry".
    Because a crashed holder leaves its lease behind, every acquisition
    checks staleness: a lease is reaped when its holder's PID is dead
    (same host) or its file mtime is older than the TTL.

The single-flight pattern both stores use is
:meth:`Lease.acquire_or_wait`: one process acquires and generates while
the rest poll until the entry appears, the lease is released, or the
deadline passes — at which point they proceed to generate anyway
(atomic-rename publication makes the duplicate-work race benign; the
lease only exists to make it rare).
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-Unix platforms
    fcntl = None  # type: ignore[assignment]

from repro.obs.metrics import REGISTRY
from repro.obs.observer import emit_warning

_STALE_REAPED = REGISTRY.counter("integrity.stale_leases_reaped")
_SINGLEFLIGHT_WAITS = REGISTRY.counter("integrity.singleflight_waits")

#: Default lease time-to-live: a holder that neither finished nor
#: refreshed for this long is presumed wedged and its claim reapable.
DEFAULT_LEASE_TTL_S = 120.0

#: How often waiters re-check the entry/lease while parked.
DEFAULT_POLL_S = 0.05

#: Suffix lease files carry next to the entry they claim.
LEASE_SUFFIX = ".lease"

#: Suffix FileLock sidecar files carry.
LOCK_SUFFIX = ".lock"


def single_flight_disabled() -> bool:
    """``True`` when ``REPRO_NO_SINGLE_FLIGHT`` disables generation leases.

    One switch for both stores: trace generation *and* campaign point
    execution fall back to the uncoordinated (benign, atomic-rename)
    race.  Useful in tests that deliberately exercise that race.
    """
    return os.environ.get("REPRO_NO_SINGLE_FLIGHT", "").strip() in {"1", "true", "yes"}


def pid_alive(pid: int) -> bool:
    """Best-effort liveness check for a PID on *this* host.

    ``EPERM`` means the process exists but belongs to someone else —
    alive for staleness purposes.  Only ``ESRCH`` is a confirmed death.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as error:
        return error.errno != errno.ESRCH
    return True


def lease_path_for(path: Union[str, Path]) -> Path:
    """The lease file guarding generation of store entry ``path``."""
    path = Path(path)
    return path.with_name(path.name + LEASE_SUFFIX)


class LeaseHeld(RuntimeError):
    """Raised by :meth:`Lease.acquire` in ``blocking=False`` error mode."""


class FileLock:
    """Advisory exclusive ``flock`` on a sidecar file (context manager).

    Acquiring creates ``path`` (empty) if needed and takes an exclusive
    kernel lock on it; the lock dies with the holding process, so there
    is no staleness protocol.  ``acquire(blocking=False)`` returns
    ``False`` instead of waiting when another process holds the lock.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, blocking: bool = True) -> bool:
        if self._fd is not None:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is None:  # pragma: no cover - non-Unix platforms
            self._fd = fd
            return True
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Lease:
    """A TTL'd, PID-stamped claim file for single-flight generation."""

    def __init__(
        self,
        path: Union[str, Path],
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        #: The lease file itself (usually ``lease_path_for(entry)``).
        self.path = Path(path)
        self.ttl_s = ttl_s
        self._owned = False

    # ------------------------------------------------------------------ claim
    def acquire(self) -> bool:
        """Try to take the claim; reap a stale holder first if needed.

        Returns ``True`` when this process now owns the lease.  Never
        blocks: a fresh lease held by a live process simply yields
        ``False``.
        """
        if self._owned:
            return True
        for _ in range(2):  # initial attempt + one retry after a reap
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if not self._reap_if_stale():
                    return False
                continue
            except OSError:
                # Unwritable store root: single-flight degrades to the
                # benign generate-anyway race rather than failing loads.
                return True
            stamp = {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "created": time.time(),
            }
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(stamp, handle)
            self._owned = True
            return True
        return False

    def release(self) -> None:
        """Drop the claim (no-op unless this process owns it)."""
        if not self._owned:
            return
        self._owned = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # ------------------------------------------------------------------ inspection
    def holder(self) -> Optional[Dict[str, Any]]:
        """The recorded holder info, or ``None`` when absent/unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                info = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return info if isinstance(info, dict) else None

    def age_s(self) -> Optional[float]:
        """Seconds since the lease file was written (its mtime)."""
        try:
            return max(0.0, time.time() - self.path.stat().st_mtime)
        except OSError:
            return None

    def is_stale(self) -> bool:
        """``True`` when the current lease file's holder is presumed gone."""
        age = self.age_s()
        if age is None:
            return False  # vanished: not stale, just gone
        if age > self.ttl_s:
            return True
        info = self.holder()
        if info is None:
            # Unreadable (torn write?): only the TTL can retire it.
            return False
        if info.get("host") == socket.gethostname():
            pid = info.get("pid")
            if isinstance(pid, int) and not pid_alive(pid):
                return True
        return False

    def _reap_if_stale(self) -> bool:
        """Remove a stale lease file; ``True`` when a retry makes sense."""
        if not self.is_stale():
            return False
        age_before = self.age_s()
        try:
            # Re-check right before the unlink: if the file was replaced
            # by a fresh claimant since we judged it stale, leave it be.
            if age_before is not None and self.path.stat().st_mtime > time.time() - 1.0:
                return True  # just recreated; loop and re-evaluate
            os.unlink(self.path)
        except OSError:
            return True
        _STALE_REAPED.inc()
        emit_warning(
            f"reaped stale lease {self.path} (age {age_before and round(age_before, 1)}s)",
            kind="stale_lease",
            path=str(self.path),
        )
        return True

    # ------------------------------------------------------------------ single flight
    def acquire_or_wait(
        self,
        produced: Callable[[], bool],
        timeout_s: Optional[float] = None,
        poll_s: float = DEFAULT_POLL_S,
    ) -> str:
        """Single-flight entry point: claim the work or wait it out.

        Returns one of:

        ``"acquired"``
            This process owns the lease and must generate the entry,
            then :meth:`release`.
        ``"produced"``
            Another process finished the work; ``produced()`` is true.
        ``"timeout"``
            The wait budget (default: the lease TTL plus slack) ran out
            with the entry still absent — the caller should proceed to
            generate anyway (the publish rename keeps that benign).
        """
        if self.acquire():
            return "acquired"
        _SINGLEFLIGHT_WAITS.inc()
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None else self.ttl_s + 10.0
        )
        while time.monotonic() < deadline:
            if produced():
                return "produced"
            if self.acquire():
                return "acquired"
            time.sleep(poll_s)
        return "produced" if produced() else "timeout"
