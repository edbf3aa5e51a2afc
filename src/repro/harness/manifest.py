"""Sweep checkpoint manifests: append-only per-job outcome records.

A *manifest* makes a sweep resumable: as :func:`repro.harness.parallel
.run_jobs` settles each job it appends one JSON line — the job's
content-addressed cache key, its terminal status (``done`` / ``failed`` /
``timeout``), how many attempts it took, and a human-readable identity — to
an append-only file.  A later sweep over the same job list with the same
manifest (``repro sweep --resume MANIFEST``) skips every key the manifest
marks ``done`` (serving its result from the content-addressed cache) and
re-runs only the jobs that failed, timed out, or never ran.

Design mirrors the bench ledger (:mod:`repro.harness.ledger`): JSON lines,
corrupt lines skipped on read, writes flushed per line so an interrupted
sweep loses at most the line being written.  Because entries are keyed by
content-addressed cache keys, manifests from different machines or partial
runs merge by construction — union the lines; ``done`` wins over any other
status for the same key, otherwise the last line wins.

The manifest stores *statuses*, not results: results live in the result
cache under the same keys.  A key marked ``done`` whose cache entry has
been evicted (or whose sweep runs cache-less) is simply re-run — resuming
can never serve a result the cache cannot substantiate.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.harness.integrity import append_json_line, read_json_lines

#: Version stamp written on every manifest line.
MANIFEST_SCHEMA = 1

#: Terminal statuses a manifest line may carry.
MANIFEST_STATUSES = ("done", "failed", "timeout")


@dataclass
class ManifestEntry:
    """One job's terminal outcome within a sweep."""

    key: str
    status: str
    attempts: int = 1
    benchmark: str = ""
    scheduler: str = ""
    backend: str = ""
    error: str = ""
    ts: float = field(default_factory=lambda: round(time.time(), 3))

    def __post_init__(self) -> None:
        if self.status not in MANIFEST_STATUSES:
            raise ValueError(
                f"bad manifest status {self.status!r} "
                f"(choose from {MANIFEST_STATUSES})"
            )

    def to_payload(self) -> dict:
        return {"schema": MANIFEST_SCHEMA, **asdict(self)}

    @classmethod
    def from_payload(cls, payload: dict) -> Optional["ManifestEntry"]:
        """Rebuild an entry from a parsed line (``None`` when unusable)."""
        if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
            return None
        key = payload.get("key")
        status = payload.get("status")
        if not isinstance(key, str) or status not in MANIFEST_STATUSES:
            return None
        return cls(
            key=key,
            status=status,
            attempts=int(payload.get("attempts", 1) or 1),
            benchmark=str(payload.get("benchmark", "")),
            scheduler=str(payload.get("scheduler", "")),
            backend=str(payload.get("backend", "")),
            error=str(payload.get("error", "")),
            ts=float(payload.get("ts", 0.0) or 0.0),
        )


def append_outcome(
    path: Union[str, Path], entry: ManifestEntry, *, fsync: Optional[bool] = None
) -> None:
    """Append one outcome line to the manifest (flushed immediately).

    ``fsync`` additionally syncs the line to stable storage — surviving
    power loss, not just a process crash — at a per-line latency cost.
    ``None`` defers to the opt-in ``REPRO_FSYNC`` environment knob.
    """
    append_json_line(path, entry.to_payload(), fsync=fsync)


def scan_manifest(
    path: Union[str, Path],
) -> tuple[dict[str, ManifestEntry], int]:
    """Parse a manifest into ``({key: entry}, skipped_line_count)``.

    Merge rule per key: ``done`` wins over any other status (a completed
    result is durable in the cache; a stray failure line from a merged
    partial run must not force a re-run), otherwise the later line wins.
    Corrupt or unknown-schema lines contribute no entry but are *counted*
    — silent data loss is how torn writes stay invisible; callers surface
    the count (``SweepOutcome.manifest_skipped``, sweep summaries) and
    ``repro cache fsck --repair`` removes the damage.
    """
    payloads, skipped = read_json_lines(path)
    entries: dict[str, ManifestEntry] = {}
    for payload in payloads:
        entry = ManifestEntry.from_payload(payload)
        if entry is None:
            skipped += 1
            continue
        prior = entries.get(entry.key)
        if prior is not None and prior.status == "done" and entry.status != "done":
            continue
        entries[entry.key] = entry
    return entries, skipped


def load_manifest(path: Union[str, Path]) -> dict[str, ManifestEntry]:
    """Parse a manifest into ``{key: entry}`` (see :func:`scan_manifest`)."""
    return scan_manifest(path)[0]


def merge_manifests(paths: Iterable[Union[str, Path]]) -> dict[str, ManifestEntry]:
    """Union several manifests under the same per-key merge rule."""
    merged: dict[str, ManifestEntry] = {}
    for path in paths:
        for key, entry in load_manifest(path).items():
            prior = merged.get(key)
            if prior is not None and prior.status == "done" and entry.status != "done":
                continue
            merged[key] = entry
    return merged


def summarize_manifest(entries: dict[str, ManifestEntry]) -> dict:
    """Counts by status plus total attempts (CLI / test accounting)."""
    summary = {status: 0 for status in MANIFEST_STATUSES}
    attempts = 0
    for entry in entries.values():
        summary[entry.status] += 1
        attempts += entry.attempts
    summary["keys"] = len(entries)
    summary["attempts"] = attempts
    return summary
