"""Live service counters for the ``repro.serve`` layer.

One :class:`ServiceStats` instance counts what the service does: requests,
cache hits, coalesces and rejects as they arrive, and each dispatched miss
as it settles.  All mutation goes through ``record_*`` methods, and every
caller runs on the service's event-loop thread (worker threads only run
simulations), so the ``/stats`` endpoint always reads a consistent
snapshot without a lock.

The central service invariant is :meth:`ServiceStats.reconciles`: every
accepted request was answered exactly one way —

    ``hits + coalesced + executed + failed + shed == requests``

``shed`` counts requests turned away (503 + ``Retry-After``) by the
in-flight load-shedding threshold; ``retried`` and ``timed_out`` are
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
    #: Misses dispatched to ``repro.api.run_batch``, one batch of one each.
    batches: int = 0
    #: Valid requests turned away under load (503 + ``Retry-After``).
    shed: int = 0
    #: Misses that exceeded their deadline (each also counts as failed).
    timed_out: int = 0
    #: Job retries after a failed attempt (informational).
    retried: int = 0
    #: Exceptions of the service's miss tasks, surfaced at drain.
    drain_errors: int = 0
    #: Results re-verified against their content digest after execution.
    audited: int = 0
    #: Audits whose recomputed digest did not match (integrity breach).
    audit_failures: int = 0
    started_at: float = field(default_factory=time.time)
    per_backend: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record_request(self) -> None:
        self.requests += 1

    def record_hit(self) -> None:
        self.hits += 1

    def record_coalesced(self) -> None:
        self.coalesced += 1

    def record_rejected(self) -> None:
        self.rejected += 1

    def record_failed(self) -> None:
        self.failed += 1

    def record_shed(self) -> None:
        self.shed += 1

    def record_timed_out(self) -> None:
        self.timed_out += 1

    def record_retried(self, count: int) -> None:
        self.retried += count

    def record_drain_error(self, count: int) -> None:
        self.drain_errors += count

    def record_audit(self, *, ok: bool) -> None:
        self.audited += 1
        if not ok:
            self.audit_failures += 1

    def record_batch(self, executed, wall_seconds: float) -> None:
        """Account one dispatched miss and its wall time.

        ``executed`` is the run's ``(backend_name, cycles)``, or ``None``
        when it failed (a failed run adds no throughput).
        """
        self.batches += 1
        if executed is None:
            return
        backend, cycles = executed
        self.executed += 1
        slot = self.per_backend.setdefault(backend, BackendThroughput())
        slot.executed += 1
        slot.cycles += cycles
        slot.wall_seconds += wall_seconds

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
        return (
            self.hits + self.coalesced + self.executed + self.failed
            + self.shed
            == self.requests
        )

    def _counters(self) -> dict:
        """Every counter by name."""
        return {name: getattr(self, name) for name in COUNTERS}

    def snapshot(self, *, inflight: int = 0) -> dict:
        """A consistent JSON-safe view for the ``/stats`` endpoint."""
        return {
            **self._counters(),
            "served": self.served,
            "inflight": inflight,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "per_backend": {
                name: slot.as_dict()
                for name, slot in sorted(self.per_backend.items())
            },
        }

    def ledger_entry(self) -> dict:
        """One ``"kind": "serve"`` row for the bench ledger (drain time)."""
        return {
            "kind": "serve",
            "ts": round(time.time(), 3),
            **self._counters(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "backend": ",".join(sorted(self.per_backend)),
        }
