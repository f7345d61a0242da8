"""Storage integrity and multi-process safety primitives.

The content-addressed stores (:mod:`repro.trace.store`,
:mod:`repro.campaign.cache`) and the campaign journal
(:mod:`repro.resilience.journal`) are shared mutable state: campaign
pools and concurrent campaign *processes* all read and write the same
directories.  This package supplies the pieces that make that safe:

* :mod:`~repro.integrity.checksum` — CRC32 helpers over raw payloads
  and canonical JSON, the entry-level integrity check both stores fold
  into their on-disk formats;
* :mod:`~repro.integrity.locks` — advisory ``fcntl`` file locks and
  TTL'd, PID-checked lease files giving cross-process mutual exclusion
  and single-flight semantics (one process generates a missing entry
  while the others wait-or-proceed; leases of dead processes are
  reaped);
* :mod:`~repro.integrity.quarantine` — corrupt entries are *moved
  aside* into a ``quarantine/`` sibling (never silently deleted), so a
  bit-rotted or torn file stays available for post-mortem while the
  store transparently regenerates it;
* :mod:`~repro.integrity.doctor` — the scan/verify/repair/gc engine
  behind ``python -m repro doctor``.
"""

from repro.integrity.checksum import crc32_bytes, crc32_json
from repro.integrity.locks import (
    FileLock,
    Lease,
    LeaseHeld,
    lease_path_for,
    pid_alive,
)
from repro.integrity.quarantine import quarantine_file
from repro.integrity.doctor import Finding, run_doctor

__all__ = [
    "crc32_bytes",
    "crc32_json",
    "FileLock",
    "Lease",
    "LeaseHeld",
    "lease_path_for",
    "pid_alive",
    "quarantine_file",
    "Finding",
    "run_doctor",
]
