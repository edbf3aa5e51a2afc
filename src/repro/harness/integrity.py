"""End-to-end result integrity: content digests, quarantine, ``fsck``.

The reproduction's value rests on bit-exact results, but every persistent
artifact — cache entries, checkpoint manifests, the bench ledger — and
every byte a remote worker returns used to be trusted blindly.  This
module is the shared vocabulary the integrity layer (docs/RESILIENCE.md)
is built from:

* :func:`result_digest` — the blake2b content digest of a result's
  canonical JSON wire form.  Stamped into cache envelopes
  (:mod:`repro.harness.cache`), onto worker ``/batch`` outcome rows
  (:mod:`repro.harness.distributed`) and into the serve layer's
  ``X-Repro-Digest`` response header, so the same result hashes the same
  everywhere it travels.
* :func:`quarantine_file` / :func:`quarantine_bytes` — damaged artifacts
  are *moved aside with a reason*, never silently unlinked: corruption is
  evidence (bad disk, torn write, misbehaving worker) and destroying it
  hides the incident it should surface.  Quarantined files land in
  ``.repro/quarantine/`` (override: ``REPRO_QUARANTINE_DIR``) next to a
  ``*.reason.json`` sidecar saying what was wrong and where it came from.
* :func:`fsck` — the scanner behind ``repro cache fsck [--repair]``:
  verifies every cache envelope digest, counts damaged manifest/ledger
  lines, quarantines corrupt entries, and (with ``repair=True``) re-writes
  repairable legacy envelopes and strips damaged lines after preserving
  the original bytes in quarantine.
* :func:`audit_selected` — the seeded per-key audit sample of the
  distributed coordinator (``repro sweep --audit-rate``), a pure function
  of ``(seed, cache key)`` exactly like the :class:`~repro.harness.faults
  .FaultPlan` schedule, so two coordinators audit the same jobs.
* :func:`append_json_line` / :func:`read_json_lines` — the one JSON-lines
  file format of manifests and the ledger: flushed appends (fsync under
  the opt-in ``REPRO_FSYNC`` knob, :func:`fsync_enabled`) and a tolerant
  reader that counts damaged lines instead of failing on them, which
  ``fsck`` shares.  :func:`env_flag` reads the on/off environment knobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.harness.faults import _unit_draw

#: Bytes of blake2b output in a :func:`result_digest` (hex doubles it).
DIGEST_SIZE = 16

#: Suffix quarantined artifacts are renamed with (so a quarantined cache
#: entry can never be globbed back up as a live ``*.pkl`` entry).
QUARANTINE_SUFFIX = ".quarantined"

_FALSY = ("0", "off", "false", "no")
_TRUTHY = ("1", "on", "true", "yes")


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------
def result_digest(payload: Any) -> str:
    """Blake2b content digest of a result payload's canonical JSON form.

    ``payload`` is normally a ``SimulationResult.to_dict()`` wire form, but
    any JSON-ish value digests deterministically (sorted keys, compact
    separators, ``repr`` fallback for exotic leaves).  Floats use the JSON
    ``repr`` round-trip, so bit-identical results — the repository's
    exactness contract — produce identical digests and any bit flip
    produces a different one.
    """
    try:
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=repr
        )
    except (TypeError, ValueError):
        # Unsortable mixed-type keys and friends: repr() is still a
        # deterministic rendering of the same in-memory value.
        blob = repr(payload)
    return hashlib.blake2b(blob.encode(), digest_size=DIGEST_SIZE).hexdigest()


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------
def default_quarantine_dir() -> Path:
    """Quarantine directory honouring ``REPRO_QUARANTINE_DIR``.

    Defaults to ``.repro/quarantine`` under the working directory, beside
    the bench ledger's ``.repro/`` home.
    """
    env = os.environ.get("REPRO_QUARANTINE_DIR")
    if env:
        return Path(env).expanduser()
    return Path(".repro") / "quarantine"


def _quarantine_dest(qdir: Path, name: str) -> Path:
    dest = qdir / f"{name}{QUARANTINE_SUFFIX}"
    serial = 0
    while dest.exists():
        serial += 1
        dest = qdir / f"{name}.{serial}{QUARANTINE_SUFFIX}"
    return dest


def _write_reason(dest: Path, reason: str, source: str) -> None:
    sidecar = dest.with_name(dest.name + ".reason.json")
    sidecar.write_text(
        json.dumps(
            {
                "reason": reason,
                "source": source,
                "quarantined_as": dest.name,
                "ts": round(time.time(), 3),
            },
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


def quarantine_file(
    path: Union[str, Path],
    reason: str,
    *,
    quarantine: Union[str, Path, None] = None,
    source: str = "",
) -> Optional[Path]:
    """Move a damaged artifact into quarantine with a reason sidecar.

    Best-effort by design (a read-only cache directory must never fail a
    sweep): returns the quarantined path, or ``None`` when the move could
    not happen.  The file is renamed with :data:`QUARANTINE_SUFFIX` so it
    can never be re-discovered as a live artifact.
    """
    path = Path(path)
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = _quarantine_dest(qdir, path.name)
        os.replace(path, dest)
        _write_reason(dest, reason, source or str(path))
        return dest
    except OSError:
        return None


def quarantine_bytes(
    data: bytes,
    name: str,
    reason: str,
    *,
    quarantine: Union[str, Path, None] = None,
    source: str = "",
) -> Optional[Path]:
    """Preserve a *copy* of damaged bytes in quarantine (repair flows).

    Used when the original file must keep existing — e.g. ``fsck --repair``
    strips damaged lines from a manifest in place but first preserves the
    original bytes here.  Best-effort; returns the written path or ``None``.
    """
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = _quarantine_dest(qdir, name)
        dest.write_bytes(data)
        _write_reason(dest, reason, source or name)
        return dest
    except OSError:
        return None


def quarantined_artifacts(
    quarantine: Union[str, Path, None] = None,
) -> list[Path]:
    """The quarantined artifact files (reason sidecars excluded)."""
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    if not qdir.is_dir():
        return []
    return sorted(
        p for p in qdir.iterdir()
        if p.name.endswith(QUARANTINE_SUFFIX)
    )


# ---------------------------------------------------------------------------
# Environment knobs, crash durability and the JSON-lines format
# ---------------------------------------------------------------------------
def env_flag(name: str, default: bool) -> bool:
    """An on/off environment knob such as ``REPRO_RESULT_CACHE``.

    A knob that defaults on stays on unless set to ``0`` / ``off`` /
    ``false`` / ``no``; one that defaults off turns on only for ``1`` /
    ``on`` / ``true`` / ``yes`` (case-insensitive).
    """
    value = os.environ.get(name, "").lower()
    return value not in _FALSY if default else value in _TRUTHY


def fsync_enabled() -> bool:
    """Whether ``REPRO_FSYNC`` asks appends to fsync (opt-in, default off).

    Manifest and ledger appends always flush, which survives a process
    crash; an fsync additionally survives the *machine* losing power
    mid-sweep, at a per-line latency cost — hence opt-in.  Either way a
    torn tail is detected (and repaired) by ``repro cache fsck``.
    """
    return env_flag("REPRO_FSYNC", False)


def append_json_line(
    path: Union[str, Path], payload: Any, *, fsync: Optional[bool] = None
) -> None:
    """Append ``payload`` as one sorted-key JSON line, flushed at once.

    The directory is created on demand.  ``fsync`` additionally syncs the
    line to stable storage; ``None`` defers to :func:`fsync_enabled`.
    Errors propagate: callers choose their own policy (the ledger's
    appends are best-effort, a manifest's are not).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
        fh.flush()
        if fsync if fsync is not None else fsync_enabled():
            os.fsync(fh.fileno())


def _parse_json_lines(data: bytes) -> tuple[list[tuple[str, Any]], int]:
    """``([(line, payload), ...], damaged)`` of a JSON-lines byte string.

    Blank lines are ignored; a line that does not parse (a torn write,
    flipped bits, bytes that are not UTF-8) is counted as damaged.
    """
    rows: list[tuple[str, Any]] = []
    damaged = 0
    for line in data.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        try:
            rows.append((line, json.loads(line)))
        except ValueError:
            damaged += 1
    return rows, damaged


def read_json_lines(path: Union[str, Path]) -> tuple[list[Any], int]:
    """Parse a JSON-lines file into ``(payloads, damaged_line_count)``.

    Tolerant by design: damaged lines are counted, never raised, so
    callers can surface the count (``repro cache fsck --repair`` removes
    the damage); a missing or unreadable file reads as ``([], 0)``.  Each
    caller applies its own filter to the payloads.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return [], 0
    rows, damaged = _parse_json_lines(data)
    return [payload for _, payload in rows], damaged


# ---------------------------------------------------------------------------
# Seeded audit sampling
# ---------------------------------------------------------------------------
def audit_selected(seed: int, key: str, rate: float) -> bool:
    """Whether the coordinator audits the job with cache key ``key``.

    A pure function of ``(seed, key)`` — the same blake2b unit draw the
    :class:`~repro.harness.faults.FaultPlan` schedule uses — so the audit
    sample is reproducible across coordinators and resumes.  Each key's
    draw is independent: with rate *r* over *n* worker-returned jobs the
    expected audit count is ``r·n`` and the chance a consistently-lying
    worker's job set escapes entirely is ``(1-r)^n`` (the coordinator
    additionally force-audits every worker's first returned result).
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return _unit_draw(seed, "audit", key) < rate


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------
@dataclass
class Artifact:
    """One scanned artifact's verdict within an :func:`fsck` report."""

    kind: str  # "cache" | "manifest" | "ledger"
    path: str
    verdict: str  # "ok" | "legacy" | "corrupt" | "damaged" | "missing"
    detail: str = ""
    damaged_lines: int = 0
    quarantined: bool = False
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "verdict": self.verdict,
            "detail": self.detail,
            "damaged_lines": self.damaged_lines,
            "quarantined": self.quarantined,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Per-artifact verdicts of one integrity scan."""

    artifacts: list[Artifact] = field(default_factory=list)
    repair: bool = False

    def count(self, verdict: str) -> int:
        return sum(1 for a in self.artifacts if a.verdict == verdict)

    @property
    def corrupt(self) -> int:
        return self.count("corrupt")

    @property
    def legacy(self) -> int:
        return self.count("legacy")

    @property
    def damaged_lines(self) -> int:
        return sum(a.damaged_lines for a in self.artifacts)

    @property
    def unrepaired_damage(self) -> int:
        """Damaged lines still present on disk after this scan."""
        return sum(
            a.damaged_lines for a in self.artifacts if not a.repaired
        )

    @property
    def clean(self) -> bool:
        """Exit-0 condition: nothing corrupt found, no damage left on disk.

        A scan that quarantined corrupt entries still reports unclean —
        damage *happened* and the operator should see a nonzero exit; the
        follow-up scan (after ``--repair`` for line damage) reports clean.
        """
        return self.corrupt == 0 and self.unrepaired_damage == 0

    def to_dict(self) -> dict:
        return {
            "artifacts": [a.to_dict() for a in self.artifacts],
            "checked": len(self.artifacts),
            "corrupt": self.corrupt,
            "legacy": self.legacy,
            "damaged_lines": self.damaged_lines,
            "unrepaired_damage": self.unrepaired_damage,
            "repair": self.repair,
            "clean": self.clean,
        }


def _fsck_cache(cache, report: FsckReport, *, repair: bool) -> None:
    from repro.harness.cache import CACHE_SCHEMA

    for path in sorted(cache._entries()):
        key = path.stem
        artifact = Artifact(kind="cache", path=str(path), verdict="ok")
        report.artifacts.append(artifact)
        try:
            payload = cache._load(path)
        except Exception as exc:
            artifact.detail = f"unreadable: {type(exc).__name__}: {exc}"
        else:
            try:
                result = cache._validate(payload, key)
            except (KeyError, ValueError) as exc:
                artifact.detail = str(exc)
            else:
                if payload["schema"] == CACHE_SCHEMA:
                    artifact.verdict = "legacy"
                    artifact.detail = "digest-less legacy envelope (repairable)"
                    if repair:
                        cache.put(key, result)
                        artifact.repaired = True
                continue
        artifact.verdict = "corrupt"
        artifact.quarantined = (
            cache.quarantine_entry(key, artifact.detail) is not None
        )


def _fsck_lines(
    path: Path,
    kind: str,
    report: FsckReport,
    *,
    repair: bool,
    quarantine: Union[str, Path, None],
) -> None:
    artifact = Artifact(kind=kind, path=str(path), verdict="ok")
    report.artifacts.append(artifact)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        artifact.verdict = "missing"
        artifact.detail = "no such file"
        return
    except OSError as exc:
        artifact.verdict = "corrupt"
        artifact.detail = f"unreadable: {exc}"
        return
    rows, damaged = _parse_json_lines(data)
    if not damaged:
        return
    artifact.verdict = "damaged"
    artifact.damaged_lines = damaged
    artifact.detail = f"{damaged} damaged line(s) (torn write or corruption)"
    if repair:
        # Preserve the evidence first, then atomically rewrite only the
        # parseable lines (future-schema lines are intact JSON and kept).
        artifact.quarantined = (
            quarantine_bytes(
                data,
                path.name,
                artifact.detail,
                quarantine=quarantine,
                source=str(path),
            )
            is not None
        )
        tmp = path.with_name(path.name + ".fsck-tmp")
        tmp.write_text(
            "".join(line + "\n" for line, _ in rows), encoding="utf-8"
        )
        os.replace(tmp, path)
        artifact.repaired = True


def fsck(
    *,
    cache=None,
    manifests: Sequence[Union[str, Path]] = (),
    ledger: Union[str, Path, None] = None,
    repair: bool = False,
    quarantine: Union[str, Path, None] = None,
) -> FsckReport:
    """Scan cache + manifests + ledger and report per-artifact verdicts.

    Cache entries: a corrupt entry (unpicklable, key mismatch, digest
    mismatch, unknown schema) is quarantined *whether or not* ``repair``
    is set — it can never be served, and leaving it in place would just
    re-fail the next read; a ``legacy`` digest-less envelope is readable
    and only re-written (to the digested form) under ``repair``.

    Manifests and the ledger: lines that fail to parse are counted as
    damage; under ``repair`` the original bytes are preserved in
    quarantine and the file is atomically rewritten with only its intact
    lines.

    The caller maps :attr:`FsckReport.clean` onto the exit code (``repro
    cache fsck`` exits 1 when corruption was found or damage remains).
    """
    report = FsckReport(repair=repair)
    if cache is not None:
        _fsck_cache(cache, report, repair=repair)
    for manifest in manifests:
        _fsck_lines(
            Path(manifest), "manifest", report,
            repair=repair, quarantine=quarantine,
        )
    if ledger is not None:
        _fsck_lines(
            Path(ledger), "ledger", report,
            repair=repair, quarantine=quarantine,
        )
    return report
