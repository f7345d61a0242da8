"""Durable per-campaign checkpoint journal (obs JSONL event schema).

Every named campaign appends one line per completed point to
``<cache root>/journals/<campaign>.jsonl``.  Lines are ordinary obs
events (:mod:`repro.obs.events`): a ``run_start`` header (with
``kind="journal"`` and the journal schema version), one ``point_done``
per completed point carrying the point's content ``key`` and its
``status`` (``ok`` / ``retried`` / ``skipped`` / ``failed``), and a
closing ``run_end`` when the campaign finishes cleanly.  Each line is
flushed (optionally fsynced) as it is written, so a crash or Ctrl-C
leaves a complete record of everything that finished.

Resume reads the journal *tolerantly*: a truncated or garbled line —
exactly what a mid-write crash produces — is reported as a
line-numbered warning event and skipped, never fatal.  The set of
successfully journaled keys then gates ``--resume``: the runner skips a
point only when it is journaled **and** its result verifies out of the
content-addressed cache; anything else simply re-runs.  A stale journal
is therefore always safe — content keys fold in the spec and package
version, so changed points never match.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, TextIO, Union

from repro.integrity.locks import FileLock
from repro.obs.events import encode_event, make_event, read_events_tolerant
from repro.obs.observer import emit_warning

#: Version of the journal layout (header field ``journal_schema``);
#: bump on incompatible changes so old journals are ignored, not misread.
JOURNAL_SCHEMA_VERSION = 1

#: Point statuses that count as "completed" for resume purposes.
COMPLETED_STATUSES = ("ok", "retried")


class JournalLocked(OSError):
    """Another live campaign process holds this journal's writer lock.

    An ``OSError`` on purpose: the runner's journal-open tolerance
    (degrade to an un-journaled campaign with a warning) applies
    unchanged — two same-name campaigns can run concurrently, but only
    the first gets the journal; the second never interleaves lines.
    """


def safe_campaign_name(name: str) -> str:
    """Filesystem-safe form of a campaign name (shared with artifacts)."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name) or "campaign"


def default_journal_root(cache_root: Union[str, Path]) -> Path:
    """Where a cache rooted at ``cache_root`` keeps its journals."""
    return Path(cache_root) / "journals"


class CampaignJournal:
    """Append-only completion journal for one named campaign."""

    def __init__(
        self,
        root: Union[str, Path],
        campaign: str,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.campaign = campaign
        self.fsync = fsync
        self.path = self.root / f"{safe_campaign_name(campaign)}.jsonl"
        #: Per-name exclusive writer lock: two same-name campaigns can
        #: never interleave journal lines (the loser runs un-journaled).
        self.lock = FileLock(self.root / f"{safe_campaign_name(campaign)}.lock")
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------ reading
    def completed_keys(self) -> Set[str]:
        """Content keys of every point a previous run journaled as completed.

        Corrupt lines are tolerated with one line-numbered ``warning``
        event each; a missing journal is simply the empty set.  Headers
        with a different :data:`JOURNAL_SCHEMA_VERSION` invalidate the
        whole journal (warned once) rather than risking misreads.
        """
        if not self.path.is_file():
            return set()
        events, problems = read_events_tolerant(self.path)
        last_line = _count_lines(self.path)
        for line_number, message in problems:
            if line_number == last_line:
                # A torn *final* line is the normal signature of a crash
                # mid-append — treat the point as simply absent (it will
                # re-run) instead of warning on every resume.
                continue
            emit_warning(
                f"{self.path}:{line_number}: corrupt journal line skipped ({message})",
                path=str(self.path),
                line=line_number,
            )
        keys: Set[str] = set()
        for event in events:
            if event.get("type") == "run_start" and event.get("kind") == "journal":
                if event.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
                    emit_warning(
                        f"{self.path}: journal schema "
                        f"{event.get('journal_schema')!r} != {JOURNAL_SCHEMA_VERSION}; "
                        f"ignoring journal",
                        path=str(self.path),
                    )
                    return set()
            if (
                event.get("type") == "point_done"
                and event.get("status") in COMPLETED_STATUSES
                and event.get("key")
            ):
                keys.add(str(event["key"]))
        return keys

    # ------------------------------------------------------------------ writing
    def begin(self, num_points: int, resume: bool, jobs: int = 1) -> None:
        """Open the journal for a run: truncate on a fresh start, append on resume.

        Takes the per-name exclusive writer lock first; raises
        :class:`JournalLocked` when another live campaign process holds
        it.  On resume, a torn trailing line (crash mid-append) is
        trimmed before appending so the journal never concatenates a new
        event onto half of an old one.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if not self.lock.acquire(blocking=False):
            raise JournalLocked(
                f"journal {self.path} is locked by another campaign process"
            )
        if resume:
            _trim_torn_tail(self.path)
        self._handle = open(self.path, "a" if resume else "w", encoding="utf-8")
        self._write(
            make_event(
                "run_start",
                kind="journal",
                journal_schema=JOURNAL_SCHEMA_VERSION,
                campaign=self.campaign,
                num_points=num_points,
                resume=resume,
                jobs=jobs,
            )
        )

    def record_point(
        self,
        index: int,
        key: Optional[str],
        status: str,
        **fields: Any,
    ) -> None:
        """Journal one finished point (flushed immediately)."""
        self._write(
            make_event("point_done", index=index, key=key, status=status, **fields)
        )

    def finish(self, **fields: Any) -> None:
        """Journal a clean campaign completion."""
        self._write(make_event("run_end", kind="journal", campaign=self.campaign, **fields))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.lock.release()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _write(self, event: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("journal not opened; call begin() first")
        self._handle.write(encode_event(event) + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())


def _count_lines(path: Path) -> int:
    """Number of lines in ``path`` (a final unterminated line counts)."""
    count = 0
    with open(path, "rb") as handle:
        for _ in handle:
            count += 1
    return count


def _trim_torn_tail(path: Path) -> None:
    """Drop an unterminated trailing line (the residue of a mid-append crash).

    Appending after a partial line would weld the next event onto it,
    corrupting *two* records; truncating back to the last newline loses
    only the already-unreadable fragment.
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            # Walk back to the last newline (journals are small; read whole).
            handle.seek(0)
            data = handle.read()
            cut = data.rfind(b"\n") + 1  # 0 when no newline at all
            handle.truncate(cut)
    except OSError:
        pass
