"""Append-only bench ledger: sweep statistics across sessions.

Every sweep the engine runs (:func:`repro.harness.parallel.run_jobs`)
appends one JSON line — wall time, job/cache counters, worker count,
backend — to a small ledger file.  Because the result cache persists across
sessions, the ledger is what makes *warm-vs-cold* performance trends
visible over time: a perf PR can show that a figure regeneration went from
N cold seconds to M warm seconds rather than quoting a one-off timing.
``repro cache stats`` prints the summary.

Environment knobs:

``REPRO_LEDGER``
    Set to ``0`` / ``off`` / ``false`` to disable recording (the test suite
    does this to stay hermetic).
``REPRO_LEDGER_PATH``
    Ledger file path (default ``.repro/bench_ledger.jsonl`` under the
    current working directory).

Recording is strictly best-effort: a read-only filesystem or concurrent
writer can never fail a sweep.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.harness.integrity import append_json_line, env_flag, read_json_lines

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_PATH = Path(".repro") / "bench_ledger.jsonl"


def ledger_enabled() -> bool:
    """Whether the environment allows ledger recording."""
    return env_flag("REPRO_LEDGER", True)


def ledger_path() -> Path:
    """Ledger file honouring ``REPRO_LEDGER_PATH``."""
    env = os.environ.get("REPRO_LEDGER_PATH")
    if env:
        return Path(env).expanduser()
    return DEFAULT_LEDGER_PATH


def append_entry(
    entry: dict, *, path: Optional[Path] = None, fsync: Optional[bool] = None
) -> Optional[Path]:
    """Append one raw JSON entry to the ledger (best-effort).

    Returns the path written, or ``None`` when recording is disabled or the
    write failed.  An explicit ``path`` bypasses the enable/disable
    environment check.  Used by :func:`record_sweep` and by the writers of
    the other row kinds (see :func:`is_sweep`).  ``fsync`` syncs the line
    to stable storage;
    ``None`` defers to the opt-in ``REPRO_FSYNC`` knob
    (:func:`repro.harness.integrity.fsync_enabled`).
    """
    if path is None:
        if not ledger_enabled():
            return None
        path = ledger_path()
    try:
        append_json_line(path, entry, fsync=fsync)
    except OSError:
        return None
    return Path(path)


def is_sweep(entry: dict) -> bool:
    """Whether a ledger row describes a sweep.

    Sweep rows carry no ``kind`` (or ``"kind": "sweep"``).  Every other row
    names its writer: ``serve`` (a ``repro serve`` session at drain time),
    ``audit`` (a worker whose results failed verification), and ``bench``
    (throughput runs of an older release, still present in old ledgers).
    """
    return entry.get("kind", "sweep") == "sweep"


def keys_digest(keys: Iterable[str]) -> str:
    """Content digest of a sweep's cache-key *set* (order-insensitive).

    Stamped onto sweep ledger rows so rows describing the same work — a
    distributed shard's row returned by its worker *and* re-dispatched
    after a coordinator retry — can be recognised as duplicates when
    ledgers merge (:func:`merge_ledger_entries`).
    """
    blob = "\n".join(sorted(set(keys)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sweep_entry(stats, *, keys: Optional[Sequence[str]] = None) -> dict:
    """The ledger row describing one sweep's ``SweepStats``.

    ``keys`` (the sweep's content-addressed cache keys, when known) adds a
    ``keys_digest`` identity so merged ledgers can drop duplicate rows.
    """
    entry = {
        "ts": round(time.time(), 3),
        "jobs": stats.jobs,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
        "workers": stats.workers,
        "wall_seconds": round(stats.wall_seconds, 6),
        "cache_hit_rate": round(stats.cache_hit_rate, 6),
        "backend": getattr(stats, "backend", ""),
        "failed": getattr(stats, "failed", 0),
        "retried": getattr(stats, "retried", 0),
        "timed_out": getattr(stats, "timed_out", 0),
        # -- integrity counters (docs/RESILIENCE.md) ------------------------
        "audited": getattr(stats, "audited", 0),
        "audit_failures": getattr(stats, "audit_failures", 0),
        "corrupt": getattr(stats, "corrupt", 0),
    }
    if keys:
        entry["keys_digest"] = keys_digest(keys)
    return entry


def record_sweep(
    stats, *, path: Optional[Path] = None, keys: Optional[Sequence[str]] = None
) -> Optional[Path]:
    """Append one ledger entry for ``stats`` (a ``SweepStats``).

    Returns the path written, or ``None`` when recording is disabled or the
    write failed (best-effort by design).  An explicit ``path`` bypasses the
    enable/disable environment check.
    """
    return append_entry(sweep_entry(stats, keys=keys), path=path)


def read_ledger_report(path: Optional[Path] = None) -> tuple[list[dict], int]:
    """Parse the ledger into ``(entries, skipped_line_count)``.

    Corrupt lines contribute no entry but are counted — ``repro cache
    stats`` warns about them and ``repro cache fsck --repair`` removes the
    damage after preserving the original bytes in quarantine.
    """
    payloads, damaged = read_json_lines(path if path is not None else ledger_path())
    entries = [entry for entry in payloads if isinstance(entry, dict)]
    # A line that parses to something other than an object is skipped too.
    return entries, damaged + len(payloads) - len(entries)


def read_ledger(path: Optional[Path] = None) -> list[dict]:
    """Parse the ledger into a list of entries (corrupt lines are skipped)."""
    return read_ledger_report(path)[0]


def merge_ledger_entries(groups: Iterable[Iterable[dict]]) -> list[dict]:
    """Merge several ledgers' rows, dropping duplicate rows once.

    Distributed sweeps merge ledger rows from many machines, and a
    coordinator retry can deliver the *same* shard row twice — historically
    :func:`summarize_ledger` then double-counted that machine's sweep.
    Rows are deduplicated by their content identity, ``(kind,
    keys_digest)``, which sweep rows carry.  Rows with no identity (legacy
    sweep rows, serve drain rows) are kept verbatim — they describe
    sessions, not re-mergeable work units.
    """
    merged: list[dict] = []
    seen: set[tuple] = set()
    for entries in groups:
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            if entry.get("keys_digest"):
                ident = (entry.get("kind", "sweep"), entry["keys_digest"])
                if ident in seen:
                    continue
                seen.add(ident)
            merged.append(entry)
    return merged


def summarize_ledger(entries: list[dict]) -> dict:
    """Aggregate ledger entries into the warm-vs-cold trajectory summary.

    Only sweep rows (:func:`is_sweep`) are aggregated as sweeps.  A sweep
    counts as *cold* when it simulated every job (no cache hits) and *warm*
    when at least half its jobs were served from the cache.  Serve entries
    (``"kind": "serve"``, written by ``repro serve`` at drain time) are
    summarised separately as the service-traffic trajectory (requests,
    hit/coalesce/execute split), and audit rows (``"kind": "audit"``,
    written by the distributed coordinator when a worker's results fail
    verification) are counted.
    """
    serve = [e for e in entries if e.get("kind") == "serve"]
    audits = [e for e in entries if e.get("kind") == "audit"]
    entries = [e for e in entries if is_sweep(e)]
    total_jobs = sum(e.get("jobs", 0) for e in entries)
    total_hits = sum(e.get("cache_hits", 0) for e in entries)
    cold = [e for e in entries if e.get("jobs") and not e.get("cache_hits")]
    warm = [e for e in entries if e.get("jobs") and e.get("cache_hit_rate", 0.0) >= 0.5]

    def _mean_wall(subset: list[dict]) -> float:
        return (
            sum(e.get("wall_seconds", 0.0) for e in subset) / len(subset)
            if subset
            else 0.0
        )

    by_backend: dict[str, int] = {}
    for e in entries:
        for name in str(e.get("backend", "")).split(","):
            name = name.strip()
            if name:
                by_backend[name] = by_backend.get(name, 0) + 1
    return {
        "sweeps": len(entries),
        "jobs": total_jobs,
        "cache_hits": total_hits,
        "hit_rate": total_hits / total_jobs if total_jobs else 0.0,
        "wall_seconds": sum(e.get("wall_seconds", 0.0) for e in entries),
        "cold_sweeps": len(cold),
        "warm_sweeps": len(warm),
        # -- resilience counters (docs/RESILIENCE.md) -----------------------
        "failed": sum(e.get("failed", 0) for e in entries),
        "retried": sum(e.get("retried", 0) for e in entries),
        "timed_out": sum(e.get("timed_out", 0) for e in entries),
        # -- integrity counters (docs/RESILIENCE.md) ------------------------
        "audited": sum(e.get("audited", 0) for e in entries),
        "audit_failures": sum(e.get("audit_failures", 0) for e in entries),
        "corrupt": sum(e.get("corrupt", 0) for e in entries),
        "audit_rows": len(audits),
        "mean_cold_wall_seconds": _mean_wall(cold),
        "mean_warm_wall_seconds": _mean_wall(warm),
        "sweeps_by_backend": by_backend,
        # -- service-traffic trajectory (repro serve drain rows) -----------
        "serve_sessions": len(serve),
        "serve_requests": sum(e.get("requests", 0) for e in serve),
        "serve_hits": sum(e.get("hits", 0) for e in serve),
        "serve_coalesced": sum(e.get("coalesced", 0) for e in serve),
        "serve_executed": sum(e.get("executed", 0) for e in serve),
        "serve_failed": sum(e.get("failed", 0) for e in serve),
        "serve_retried": sum(e.get("retried", 0) for e in serve),
        "serve_timed_out": sum(e.get("timed_out", 0) for e in serve),
        "serve_shed": sum(e.get("shed", 0) for e in serve),
    }
