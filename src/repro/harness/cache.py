"""Content-addressed on-disk cache for simulation results.

Every (benchmark, scheduler, configuration) job the sweep engine executes is
fully determined by its inputs: the workload models are seeded, the simulator
has no other sources of nondeterminism, and the scheduler state is rebuilt
from scratch per run.  That makes simulation results safe to memoise on disk,
keyed by the request's ``cache_key()`` (:func:`repro.api.content_key`), a
stable hash of

* the canonical request's wire form: the full
  :class:`~repro.workloads.spec.BenchmarkSpec` (Table II facts plus every
  synthetic-model parameter), the canonical scheduler name, the resolved
  backend and the complete :class:`~repro.harness.runner.RunConfig` (scale,
  seed, launch geometry, GPU configuration, DRAM scaling, CIAO parameters,
  cycle budget) — the scheduler's constructor kwargs (warp limits, token
  counts, CIAO parameters) derive from these — and
* a fingerprint of the ``repro`` package source (:func:`code_fingerprint`),
  so any code change invalidates the cache automatically — no manual
  version bumps needed.

Environment knobs (see docs/EXPERIMENTS.md):

``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-ciao``).
``REPRO_RESULT_CACHE``
    Set to ``0`` / ``off`` / ``false`` to disable caching entirely (CI does
    this to stay hermetic).
``REPRO_CACHE_VERSION``
    Overrides the source fingerprint, pinning cache validity manually.
``REPRO_QUARANTINE_DIR``
    Where corrupt entries are preserved (default ``.repro/quarantine``);
    see :mod:`repro.harness.integrity`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.harness.integrity import (
    default_quarantine_dir,
    env_flag,
    quarantine_file,
    result_digest,
)

#: Bumped when the cache payload layout changes (not when simulation
#: semantics change — the code fingerprint covers that).  Schema 2: the
#: sweep engine stores results in the versioned ``SimulationResult.to_dict``
#: form instead of pickled result objects.  It now names only the legacy
#: digest-less envelope that :meth:`ResultCache._validate` and ``fsck``
#: still read; cache keys carry no schema number (see
#: :func:`repro.api.content_key`).
CACHE_SCHEMA = 2

#: On-disk envelope schema.  Schema 3 adds a ``"digest"`` field — the
#: blake2b content digest of the stored result (see
#: :func:`repro.harness.integrity.result_digest`) — verified on every
#: read.  Schema-2 (digest-less) envelopes written by older versions
#: remain readable; ``repro cache fsck --repair`` re-writes them into the
#: digested form.
ENVELOPE_SCHEMA = 3

def cache_enabled_by_env() -> bool:
    """Whether the environment allows result caching at all."""
    return env_flag("REPRO_RESULT_CACHE", True)


def default_cache_dir() -> Path:
    """Cache root honouring ``REPRO_CACHE_DIR``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-ciao"


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the ``repro`` package.

    Any source change — a fixed bug, a retuned workload model — yields a new
    fingerprint and therefore fresh cache keys, so stale results can never be
    served after an edit.  ``REPRO_CACHE_VERSION`` overrides the computed
    value for users who want to pin validity across checkouts.
    """
    global _CODE_FINGERPRINT
    env = os.environ.get("REPRO_CACHE_VERSION")
    if env:
        return env
    if _CODE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()[:20]
    return _CODE_FINGERPRINT


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Pickle-backed content-addressed store of :class:`SimulationResult`.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` and are written atomically
    (temp file + ``os.replace``) so concurrent workers and interrupted runs
    can never leave a torn entry behind.  Each envelope carries a blake2b
    content digest of the stored result (:data:`ENVELOPE_SCHEMA`) that is
    verified on every read; a corrupt, torn or digest-mismatched entry is
    treated as a miss and *quarantined* — moved into the quarantine
    directory with a reason sidecar, never silently unlinked — so bit rot
    and tampering leave evidence (``repro cache fsck`` reports it).

    Concurrency: any number of writers may race on the *same* key — each
    writes its own ``mkstemp`` temp file and the final ``os.replace`` is
    atomic on POSIX, so a reader observes either no entry or one complete
    entry, never interleaved bytes (pinned by
    ``tests/test_result_cache.py::TestConcurrentAccess``).  Readers that
    must not perturb a live store (the serving layer's lookup-without-
    execute path) use :meth:`peek`, which mutates no counters and never
    deletes entries.
    """

    def __init__(
        self,
        root: Optional[Path | str] = None,
        *,
        quarantine: Union[Path, str, None] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.quarantine = (
            Path(quarantine) if quarantine is not None else default_quarantine_dir()
        )
        self.stats = CacheStats()

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when caching is disabled by env."""
        if not cache_enabled_by_env():
            return None
        return cls()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    @staticmethod
    def _load(path: Path) -> Any:
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def _validate(self, payload: Any, key: str) -> Any:
        """Return the result inside ``payload`` or raise on any corruption.

        The one definition of a valid entry: reads, ``clear`` and ``repro
        cache fsck`` all judge envelopes here, and a ``ValueError`` names
        what is wrong.
        """
        if not isinstance(payload, Mapping) or payload.get("key") != key:
            raise ValueError("key mismatch (entry stored under the wrong key)")
        schema = payload.get("schema")
        if schema == ENVELOPE_SCHEMA:
            if result_digest(payload.get("result")) != payload.get("digest"):
                raise ValueError("digest mismatch (bit rot or tampering)")
            return payload["result"]
        if schema == CACHE_SCHEMA:
            # Digest-less legacy envelope: still readable; fsck --repair
            # upgrades it to the digested form.
            return payload["result"]
        raise ValueError(f"unknown cache envelope schema {schema!r}")

    def _quarantine_path(self, path: Path, reason: str) -> Optional[Path]:
        """Move a damaged entry aside (best-effort; falls back to unlink)."""
        dest = quarantine_file(
            path, reason, quarantine=self.quarantine, source=f"cache:{self.root}"
        )
        if dest is not None:
            self.stats.quarantined += 1
            return dest
        try:
            # Quarantine dir unwritable: removing the entry is still better
            # than re-failing every future read on it.
            path.unlink(missing_ok=True)
        except OSError:
            pass  # read-only/shared cache dir: still just a miss
        return None

    def quarantine_entry(self, key: str, reason: str) -> Optional[Path]:
        """Quarantine the entry for ``key`` (audit rollback, fsck).

        Returns the quarantined path, or ``None`` when there was nothing
        to move (or the move failed and the entry was unlinked instead).
        """
        path = self._path(key)
        if not path.exists():
            return None
        return self._quarantine_path(path, reason)

    def get(self, key: str) -> Optional[Any]:
        """Return the stored result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            result = self._validate(self._load(path), key)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception as exc:
            # Torn write, unpicklable payload, digest mismatch, schema
            # drift: quarantine the evidence and re-run the job.
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine_path(path, f"{type(exc).__name__}: {exc}")
            return None
        self.stats.hits += 1
        return result

    def peek(self, key: str) -> Optional[Any]:
        """Look ``key`` up without executing anything and without side effects.

        The serving layer's lookup-without-execute path: unlike :meth:`get`
        a peek mutates no hit/miss counters (the service keeps its own
        authoritative counters) and never deletes or quarantines an entry
        it cannot read — a concurrent writer may be mid-``os.replace``, and
        what looks torn to a peek can be a complete entry a millisecond
        later.  Returns the stored result, or ``None`` when the key is
        absent, unreadable, or fails its digest check.
        """
        try:
            return self._validate(self._load(self._path(key)), key)
        except Exception:
            return None

    def stamp(self, key: str) -> Optional[tuple[int, int]]:
        """The entry file's ``(inode, mtime_ns)`` for ``key``, or ``None``
        when there is no entry.  One ``stat``, no read: a reader holding a
        result it verified earlier learns whether the entry was since
        rewritten, repaired or quarantined (each changes the stamp)."""
        try:
            st = os.stat(self._path(key))
        except OSError:
            return None
        return st.st_ino, st.st_mtime_ns

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` atomically, digest included."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": ENVELOPE_SCHEMA,
            "key": key,
            "result": result,
            "digest": result_digest(result),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            self.stats.errors += 1
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            return
        self.stats.puts += 1

    # ------------------------------------------------------------------
    def _entries(self):
        if not self.root.exists():
            return
        yield from self.root.glob("*/*.pkl")

    def entry_count(self) -> int:
        """Number of cached results on disk."""
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        """Total on-disk size of the cache."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Remove every entry; returns how many were removed.

        Healthy entries are deleted outright (clearing is explicit user
        intent), but an entry that fails validation is quarantined instead
        — corruption discovered during a clear is still evidence worth
        keeping (counted in :attr:`CacheStats.quarantined`).
        """
        removed = 0
        for path in list(self._entries()):
            try:
                self._validate(self._load(path), path.stem)
            except Exception as exc:
                self._quarantine_path(path, f"clear: {type(exc).__name__}: {exc}")
                removed += 1
                continue
            path.unlink(missing_ok=True)
            removed += 1
        return removed
