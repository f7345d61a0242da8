"""``python -m repro doctor``: scan, verify, repair, and GC the stores.

The doctor walks the three durable artifact families — the binary trace
store, the JSON result cache, and the campaign journals — and verifies
each file the same way its normal reader would, plus the expensive
checks the hot path skips (payload checksums are always recomputed
here, never served from the process memo).  Every problem becomes a
:class:`Finding`; ``repair=True`` moves damaged entries into the
store's ``quarantine/`` sibling (regeneration is then automatic on the
next read — nothing is ever deleted), and ``gc=True`` reclaims the
detritus that accumulates around crashes: orphaned ``*.tmp`` files,
stale single-flight leases, and previously quarantined entries.

Findings carry a ``severity``:

``error``
    A store entry that would fail its reader — bad checksum, truncation,
    bad magic, undecodable JSON, schema drift, key/path mismatch.
    Repairable by quarantine.  Unresolved errors make the report
    ``ok=False`` (CLI exit 1).
``warning``
    Housekeeping debris the normal readers already tolerate — orphaned
    temp files, stale leases, a torn final journal line, corrupt
    interior journal lines.  Reclaimed by ``gc`` (or, for the torn
    tail, trimmed by ``repair``); never fails the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: ``*.tmp`` files younger than this are presumed to belong to a live
#: writer mid-publish and are never flagged (atomic-rename publication
#: makes a temp file's life normally milliseconds).
DEFAULT_TMP_AGE_S = 300.0


@dataclass
class Finding:
    """One problem the doctor found (and possibly resolved)."""

    store: str  #: ``trace`` | ``cache`` | ``journal``
    path: str
    problem: str  #: short slug, e.g. ``bad-checksum``, ``orphan-tmp``
    detail: str
    severity: str = "error"  #: ``error`` | ``warning``
    #: What a repair/gc pass did: ``quarantined``, ``removed``,
    #: ``trimmed``, or ``None`` when the finding was only reported.
    action: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "store": self.store,
            "path": self.path,
            "problem": self.problem,
            "detail": self.detail,
            "severity": self.severity,
            "action": self.action,
        }


def _classify_trace_error(message: str) -> str:
    lowered = message.lower()
    if "magic" in lowered:
        return "bad-magic"
    if "checksum" in lowered:
        return "bad-checksum"
    if "truncated" in lowered or "padded" in lowered:
        return "truncated"
    if "not supported" in lowered:
        return "stale-format"
    return "unreadable"


def _scan_tmp_and_leases(
    store_name: str,
    root: Path,
    patterns: List[str],
    findings: List[Finding],
    gc: bool,
    tmp_age_s: float,
) -> None:
    """Flag (and with ``gc`` remove) orphan temp files and stale leases."""
    from repro.integrity.locks import LEASE_SUFFIX, Lease

    now = time.time()
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            if path.name.endswith(LEASE_SUFFIX):
                lease = Lease(path)
                if not lease.is_stale():
                    continue
                finding = Finding(
                    store=store_name,
                    path=str(path),
                    problem="stale-lease",
                    detail=f"holder {lease.holder() or '?'} presumed dead",
                    severity="warning",
                )
            else:  # *.tmp
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < tmp_age_s:
                    continue
                finding = Finding(
                    store=store_name,
                    path=str(path),
                    problem="orphan-tmp",
                    detail=f"abandoned temp file ({age:.0f}s old)",
                    severity="warning",
                )
            if gc:
                try:
                    path.unlink()
                    finding.action = "removed"
                except OSError:
                    pass
            findings.append(finding)


def _quarantine(
    finding: Finding, path: Path, store_root: Path
) -> None:
    from repro.integrity.quarantine import quarantine_file

    if quarantine_file(path, store_root, reason=finding.problem) is not None:
        finding.action = "quarantined"


def _scan_trace_store(
    root: Path, findings: List[Finding], repair: bool, gc: bool, tmp_age_s: float
) -> int:
    from repro.trace.store import TraceStoreError, _SUFFIX, read_trace_file

    scanned = 0
    if root.is_dir():
        for path in sorted(root.glob(f"*/*{_SUFFIX}")):
            scanned += 1
            try:
                # verify=True recomputes the payload checksum even when
                # this process (or REPRO_VERIFY=never) would skip it.
                read_trace_file(path, verify=True)
            except (OSError, TraceStoreError) as exc:
                finding = Finding(
                    store="trace",
                    path=str(path),
                    problem=_classify_trace_error(str(exc)),
                    detail=str(exc),
                )
                if repair:
                    _quarantine(finding, path, root)
                findings.append(finding)
        _scan_tmp_and_leases(
            "trace", root, ["*/*.tmp", "*/*.lease"], findings, gc, tmp_age_s
        )
    return scanned


def _scan_result_cache(
    root: Path, findings: List[Finding], repair: bool, gc: bool, tmp_age_s: float
) -> int:
    from repro.campaign.cache import SCHEMA_VERSION
    from repro.integrity.checksum import crc32_json

    results_dir = root / "results"
    scanned = 0
    if results_dir.is_dir():
        for path in sorted(results_dir.glob("*/*.json")):
            scanned += 1
            problem = detail = None
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    envelope = json.load(handle)
                if not isinstance(envelope, dict) or "result" not in envelope:
                    problem, detail = "unreadable", "not a result envelope"
                elif envelope.get("schema") != SCHEMA_VERSION:
                    problem = "schema-drift"
                    detail = (
                        f"envelope schema {envelope.get('schema')!r} != {SCHEMA_VERSION}"
                    )
                elif envelope.get("key") != path.stem:
                    problem = "key-mismatch"
                    detail = f"envelope key {envelope.get('key')!r} != filename"
                else:
                    stored = envelope.get("crc32")
                    if stored is not None:
                        actual = crc32_json(envelope["result"])
                        if actual != stored:
                            problem = "bad-checksum"
                            detail = (
                                f"stored {stored:#010x}, computed {actual:#010x}"
                            )
            except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
                problem, detail = "unreadable", str(exc)
            if problem is None:
                continue
            finding = Finding(
                store="cache", path=str(path), problem=problem, detail=detail or ""
            )
            if repair:
                _quarantine(finding, path, root)
            findings.append(finding)
        _scan_tmp_and_leases(
            "cache", results_dir, ["*/*.tmp", "*/*.lease"], findings, gc, tmp_age_s
        )
    return scanned


def _scan_journals(
    cache_root: Path, findings: List[Finding], repair: bool
) -> int:
    from repro.obs.events import read_events_tolerant
    from repro.resilience.journal import (
        JOURNAL_SCHEMA_VERSION,
        _count_lines,
        _trim_torn_tail,
        default_journal_root,
    )

    root = default_journal_root(cache_root)
    scanned = 0
    if not root.is_dir():
        return scanned
    for path in sorted(root.glob("*.jsonl")):
        scanned += 1
        try:
            events, problems = read_events_tolerant(path)
            last_line = _count_lines(path)
        except OSError as exc:
            findings.append(
                Finding(store="journal", path=str(path), problem="unreadable", detail=str(exc))
            )
            continue
        for line_number, message in problems:
            if line_number == last_line:
                finding = Finding(
                    store="journal",
                    path=str(path),
                    problem="torn-tail",
                    detail=f"line {line_number}: {message}",
                    severity="warning",
                )
                if repair:
                    _trim_torn_tail(path)
                    finding.action = "trimmed"
            else:
                # Interior damage: resume already skips these lines with
                # a warning; nothing mechanical can reconstruct them.
                finding = Finding(
                    store="journal",
                    path=str(path),
                    problem="corrupt-line",
                    detail=f"line {line_number}: {message}",
                    severity="warning",
                )
            findings.append(finding)
        for event in events:
            if (
                event.get("type") == "run_start"
                and event.get("kind") == "journal"
                and event.get("journal_schema") != JOURNAL_SCHEMA_VERSION
            ):
                finding = Finding(
                    store="journal",
                    path=str(path),
                    problem="schema-drift",
                    detail=(
                        f"journal schema {event.get('journal_schema')!r} "
                        f"!= {JOURNAL_SCHEMA_VERSION}"
                    ),
                )
                if repair:
                    _quarantine(finding, path, cache_root)
                findings.append(finding)
                break
    return scanned


def _gc_quarantine(roots: List[Path], findings: List[Finding]) -> None:
    """Reclaim previously quarantined entries (the only deleting the doctor does)."""
    from repro.integrity.quarantine import quarantine_root

    for root in roots:
        qroot = quarantine_root(root)
        if not qroot.is_dir():
            continue
        for path in sorted(qroot.rglob("*")):
            if not path.is_file():
                continue
            finding = Finding(
                store="quarantine",
                path=str(path),
                problem="quarantined-entry",
                detail="reclaimed by gc",
                severity="warning",
            )
            try:
                path.unlink()
                finding.action = "removed"
            except OSError:
                pass
            findings.append(finding)
        for directory in sorted(qroot.rglob("*"), reverse=True):
            if directory.is_dir():
                try:
                    directory.rmdir()
                except OSError:
                    pass
        try:
            qroot.rmdir()
        except OSError:
            pass


def run_doctor(
    trace_root: Optional[Union[str, Path]] = None,
    cache_root: Optional[Union[str, Path]] = None,
    repair: bool = False,
    gc: bool = False,
    tmp_age_s: float = DEFAULT_TMP_AGE_S,
) -> Dict[str, Any]:
    """Scan both stores and the journals; optionally repair and GC.

    Returns a JSON-safe report.  ``ok`` is ``True`` when no *unresolved
    error-severity* finding remains: a clean scan, or a ``repair`` run
    that quarantined everything it found.  Warnings (orphan temp files,
    stale leases, tolerated journal damage) never fail the report.
    """
    from repro.campaign.cache import default_cache_dir
    from repro.trace.store import default_trace_dir

    trace_root = Path(trace_root) if trace_root is not None else default_trace_dir()
    cache_root = Path(cache_root) if cache_root is not None else default_cache_dir()
    findings: List[Finding] = []
    scanned = {
        "trace_entries": _scan_trace_store(trace_root, findings, repair, gc, tmp_age_s),
        "cache_entries": _scan_result_cache(cache_root, findings, repair, gc, tmp_age_s),
        "journals": _scan_journals(cache_root, findings, repair),
    }
    if gc:
        _gc_quarantine([trace_root, cache_root], findings)
    unresolved = [
        f for f in findings if f.severity == "error" and f.action is None
    ]
    return {
        "trace_root": str(trace_root),
        "cache_root": str(cache_root),
        "repair": repair,
        "gc": gc,
        "scanned": scanned,
        "findings": [f.to_dict() for f in findings],
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
        "repaired": sum(1 for f in findings if f.action == "quarantined"),
        "trimmed": sum(1 for f in findings if f.action == "trimmed"),
        "removed": sum(1 for f in findings if f.action == "removed"),
        "unresolved": len(unresolved),
        "ok": not unresolved,
    }
