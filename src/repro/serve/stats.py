"""Live service counters for the ``repro.serve`` layer.

One :class:`ServiceStats` instance is shared by the HTTP handlers (which
count requests, cache hits, coalesces and rejects on the event loop) and
the batch dispatcher (whose worker threads report executed batches).  All
mutation goes through ``record_*`` methods guarded by one lock, so the
``/stats`` endpoint always reads a consistent snapshot.

The central service invariant is :meth:`ServiceStats.reconciles`: every
accepted request was answered exactly one way —

    ``hits + coalesced + executed + failed + shed == requests``

``shed`` counts requests turned away (503 + ``Retry-After``) by the
queue-depth load-shedding threshold; ``retried`` and ``timed_out`` are
*informational* — a retried job still resolves as executed or failed, and
a timed-out job is a kind of failure, so neither adds a new way for a
request to be answered.  The end-to-end suite and the
CI serve-smoke job both assert the invariant after mixed traffic.

At drain time :meth:`ledger_entry` renders the counters as one bench-ledger
row (``"kind": "serve"``, see :mod:`repro.harness.ledger`), so service
traffic lands in the same append-only trajectory as sweeps and shows up in
``repro cache stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class BackendThroughput:
    """Per-engine execution totals of one service session."""

    executed: int = 0
    cycles: int = 0
    wall_seconds: float = 0.0

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "executed": self.executed,
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "cycles_per_second": round(self.cycles_per_second, 2),
        }


#: The :class:`ServiceStats` counters, as ``/stats`` and the ledger row
#: report them.
COUNTERS = (
    "requests", "hits", "coalesced", "executed", "failed", "rejected",
    "batches", "shed", "timed_out", "retried", "drain_errors", "audited",
    "audit_failures",
)


@dataclass
class ServiceStats:
    """Hit/coalesce/execute counters plus per-backend throughput."""

    #: Requests whose payload parsed into a valid job descriptor.
    requests: int = 0
    #: Requests answered straight from the result cache.
    hits: int = 0
    #: Requests coalesced onto an identical in-flight job (single-flight).
    coalesced: int = 0
    #: Requests that ran a simulation (exactly one per distinct miss).
    executed: int = 0
    #: Requests whose simulation raised.
    failed: int = 0
    #: Payloads rejected before a job existed (bad JSON, schema drift,
    #: unknown benchmark/backend, draining server).
    rejected: int = 0
    #: Batches drained into ``repro.api.run_batch`` by the dispatcher.
    batches: int = 0
    #: Valid requests turned away under load (503 + ``Retry-After``).
    shed: int = 0
    #: Jobs whose batch exceeded its deadline (each also counts as failed).
    timed_out: int = 0
    #: Job retries after a failed attempt (informational).
    retried: int = 0
    #: Worker-thread exceptions surfaced during drain (would previously be
    #: silently discarded by ``asyncio.gather(..., return_exceptions=True)``).
    drain_errors: int = 0
    #: Results re-verified against their content digest after execution.
    audited: int = 0
    #: Audits whose recomputed digest did not match (integrity breach).
    audit_failures: int = 0
    started_at: float = field(default_factory=time.time)
    per_backend: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------
    def record_request(self) -> None:
        with self._lock:
            self.requests += 1

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_coalesced(self) -> None:
        with self._lock:
            self.coalesced += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_timed_out(self, jobs: int = 1) -> None:
        with self._lock:
            self.timed_out += jobs

    def record_retried(self) -> None:
        with self._lock:
            self.retried += 1

    def record_drain_error(self, count: int = 1) -> None:
        with self._lock:
            self.drain_errors += count

    def record_audit(self, *, ok: bool) -> None:
        with self._lock:
            self.audited += 1
            if not ok:
                self.audit_failures += 1

    def record_batch(self, outcomes, wall_seconds: float) -> None:
        """Account one drained batch.

        ``outcomes`` is an iterable of ``(backend_name, cycles)`` pairs,
        one per successfully executed request; the batch's wall time is
        split evenly across them (a batch is one ``run_batch`` call, so
        per-request walls are not individually observable).
        """
        outcomes = list(outcomes)
        share = wall_seconds / len(outcomes) if outcomes else 0.0
        with self._lock:
            self.batches += 1
            for backend, cycles in outcomes:
                self.executed += 1
                slot = self.per_backend.get(backend)
                if slot is None:
                    slot = self.per_backend[backend] = BackendThroughput()
                slot.executed += 1
                slot.cycles += cycles
                slot.wall_seconds += share

    # ------------------------------------------------------------------
    @property
    def served(self) -> int:
        """Requests answered with a result (failures excluded)."""
        return self.hits + self.coalesced + self.executed

    def reconciles(self) -> bool:
        """The books balance: every accepted request was answered one way.

        Shed requests are "answered" with a 503 + ``Retry-After``; they
        enter ``requests`` (the payload was valid) and must balance too.
        """
        with self._lock:
            return (
                self.hits + self.coalesced + self.executed + self.failed
                + self.shed
                == self.requests
            )

    def _counters(self) -> dict:
        """Every counter by name (call with the lock held)."""
        return {name: getattr(self, name) for name in COUNTERS}

    def snapshot(self, *, queue_depth: int = 0, inflight: int = 0) -> dict:
        """A consistent JSON-safe view for the ``/stats`` endpoint."""
        with self._lock:
            return {
                **self._counters(),
                "served": self.hits + self.coalesced + self.executed,
                "queue_depth": queue_depth,
                "inflight": inflight,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "per_backend": {
                    name: slot.as_dict()
                    for name, slot in sorted(self.per_backend.items())
                },
            }

    def ledger_entry(self) -> dict:
        """One ``"kind": "serve"`` row for the bench ledger (drain time)."""
        with self._lock:
            return {
                "kind": "serve",
                "ts": round(time.time(), 3),
                **self._counters(),
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "backend": ",".join(sorted(self.per_backend)),
            }
