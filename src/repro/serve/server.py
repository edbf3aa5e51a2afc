"""The ``repro serve`` daemon: simulation-as-a-service over HTTP/JSON.

A stdlib-only front end (raw ``asyncio.start_server`` + a minimal HTTP/1.1
parser — no new dependencies) that turns the library into a long-lived
service.  One :class:`ReproService` wires the existing pieces together:

* requests arrive as the existing versioned wire forms
  (:meth:`repro.api.SimulationRequest.from_dict` /
  :meth:`repro.api.MultiTenantRequest.from_dict`) on ``POST /simulate``;
* cache hits are served instantly: from an in-memory tier of verified
  results (:data:`HOT_RESULTS` of them, least recently used evicted) while
  the entry each was verified against is still on disk unchanged, else
  from :class:`repro.harness.cache.ResultCache` via its side-effect-free
  :meth:`~repro.harness.cache.ResultCache.peek` path;
* identical in-flight requests coalesce into a single simulation
  (:class:`repro.serve.coalesce.Coalescer`, keyed on the same
  content-addressed cache key as the result cache);
* every other miss starts running the moment it is admitted: its leader
  hands it to :func:`repro.api.run_batch` on the service's thread pool;
* ``GET /healthz`` / ``GET /stats`` / ``GET /jobs[/<id>]`` expose liveness,
  live counters (misses in flight, hit/coalesce/miss split, per-backend
  throughput plus the bench-ledger summary) and job lifecycle records
  (:class:`repro.api.JobRecord`);
* ``POST /shutdown`` (or SIGTERM/SIGINT under :func:`run_service`) drains
  gracefully: intake stops, running misses finish, a ``"kind": "serve"``
  row lands in the bench ledger, then the listener closes.

Binding, routing and the stop sequence come from the daemon core
(:class:`repro.serve.http.Daemon`) that ``repro worker`` shares.

Response bodies for ``/simulate`` are the *canonical JSON rendering of the
result wire form* (sorted keys, compact separators) whichever path produced
them — cache hit, coalesced or executed — so identical requests always
receive byte-identical responses equal to a direct
``execute(request).to_dict()`` (asserted end to end by
``tests/test_serve.py`` and the CI serve-smoke job).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

from repro.api import (
    AnyRequest,
    JobRecord,
    JobState,
    SimulationRequest,
    _decode_cached_result,
    decode_request,
    result_digest,
    run_batch,
)
from repro.harness.ledger import append_entry, read_ledger, summarize_ledger
from repro.harness.parallel import JobFailure, RetryPolicy
from repro.serve.coalesce import Coalescer
from repro.serve.http import Daemon, HttpRequest, canonical_json, respond, run_daemon
from repro.serve.stats import ServiceStats
from repro.version import __version__

#: Default TCP port of ``repro serve`` (and ``repro submit``'s default URL).
DEFAULT_PORT = 8651
#: ``/jobs`` keeps the most recent this many job records.
MAX_JOB_RECORDS = 256
#: Verified results a service with a cache keeps in memory (a decoded
#: scale-1.0 result is about 34 KB, so at most about 9 MB).
HOT_RESULTS = 256


class BatchTimeoutError(RuntimeError):
    """A miss ran past the retry policy's ``timeout_seconds``."""


class RejectedRequest(ValueError):
    """A payload that never became a job (bad schema, unknown names, ...)."""


class ServiceDraining(RuntimeError):
    """New simulation requests are rejected while the service drains."""


class ServiceOverloaded(RuntimeError):
    """Too many distinct misses are in flight; the request was load-shed.

    Answered as 503 with a ``Retry-After`` header (``retry_after``
    seconds).  Followers of an in-flight job are never shed — they start
    no simulation — so shedding only applies to would-be leaders.
    """

    def __init__(self, inflight: int, limit: int, retry_after: int) -> None:
        super().__init__(
            f"{inflight} misses in flight is at its limit ({limit}); retry in "
            f"{retry_after}s"
        )
        self.retry_after = retry_after


class ReproService(Daemon):
    """The serving layer: cache -> coalesce -> run -> respond."""

    ROUTES = {
        "/healthz": ("GET", "_handle_healthz"),
        "/stats": ("GET", "_handle_stats"),
        "/jobs": ("GET", "_handle_jobs"),
        "/jobs/": ("GET", "_handle_job"),
        "/simulate": ("POST", "_handle_simulate"),
        "/shutdown": ("POST", "_handle_shutdown"),
    }
    NAME = "repro serve"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache=None,
        workers: int = 2,
        backend: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        super().__init__(host, port)
        self.cache = cache
        #: Fills in the engine for requests that left theirs ``None``
        #: (multi-tenant requests keep their ``lockstep`` default).
        self.backend = backend
        #: Per-request attempts and backoff, and each miss's deadline
        #: (``timeout_seconds``); ``None`` means one attempt, no deadline.
        self.retry = retry
        #: Load-shedding threshold: a would-be leader arriving while this
        #: many distinct misses are in flight gets 503 + Retry-After instead
        #: of a simulation (``None`` disables shedding).
        self.max_queue_depth = max_queue_depth
        self.stats = ServiceStats()
        self.coalescer = Coalescer()
        #: ``(result, entry stamp)`` of results verified against the cache,
        #: by cache key, least recently used first.  A result enters only
        #: after a digest-checked ``peek`` or a passed read-back audit, and
        #: is served only while its entry keeps that stamp; without a cache
        #: there is no tier, so every miss that is not coalesced simulates.
        self.hot: Optional["OrderedDict[str, tuple]"] = (
            OrderedDict() if cache is not None else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        #: Running leader tasks (held: the loop keeps only weak references).
        self._misses: set[asyncio.Task] = set()
        #: Exceptions of finished leader tasks, for the drain summary.
        self._errors: list[str] = []
        #: Misses abandoned past their deadline: their threads cannot be
        #: interrupted, so drain must not wait on the pool.
        self._abandoned = 0
        #: Drain summary (set once the service has drained) for the CLI.
        self.drain_summary: Optional[dict] = None
        self.jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._job_counter = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _drain(self) -> None:
        """Wait for every running miss, shut the pool down, write the ledger.

        ``drain_summary`` counts and lists the exceptions leader tasks
        raised instead of discarding them.  When a miss was abandoned past
        its deadline the pool is shut down without waiting on its thread.
        """
        while self._misses:
            await asyncio.wait(list(self._misses))
        self._pool.shutdown(wait=not self._abandoned, cancel_futures=True)
        self.drain_summary = {
            "drain_errors": len(self._errors),
            "abandoned_batches": self._abandoned,
            "errors": list(self._errors),
        }
        self.stats.record_drain_error(len(self._errors))
        try:
            append_entry(self.stats.ledger_entry())
        except Exception:
            pass  # the ledger is best-effort; never block a shutdown on it

    # ------------------------------------------------------------------
    # request core (also the in-process API the tests drive directly)
    # ------------------------------------------------------------------
    def _new_record(self, request: AnyRequest, cache_key: str) -> JobRecord:
        self._job_counter += 1
        record = JobRecord.for_request(
            request,
            job_id=f"{cache_key[:12]}-{self._job_counter}",
            cache_key=cache_key,
            submitted_at=time.time(),
        )
        self.jobs[record.job_id] = record
        while len(self.jobs) > MAX_JOB_RECORDS:
            self.jobs.popitem(last=False)
        return record

    async def submit(self, request: AnyRequest):
        """Serve one request; returns ``(result, source, record)``.

        ``source`` is ``"cache"``, ``"coalesced"`` or ``"executed"`` —
        exactly one counter increments per request, so the ``/stats``
        books always reconcile (load-shed requests count under ``shed``).
        ``result`` may be the very object other requests for the same key
        receive (coalesced followers, in-memory hits): callers must not
        mutate it.
        Raises :class:`RejectedRequest` for payloads that never became a
        job, :class:`ServiceDraining` during shutdown,
        :class:`ServiceOverloaded` when ``max_queue_depth`` distinct misses
        are already in flight, and the underlying simulation error for
        failed jobs.
        """
        if self._draining:
            self.stats.record_rejected()
            raise ServiceDraining("service is draining; not accepting requests")
        if self.backend is not None and (
            isinstance(request, SimulationRequest) and request.backend is None
        ):
            request = replace(request, backend=self.backend)
        try:
            cache_key = request.cache_key()
        except Exception as exc:
            self.stats.record_rejected()
            raise RejectedRequest(f"invalid request: {exc}") from exc
        self.stats.record_request()
        record = self._new_record(request, cache_key)

        # 1. Cache: serve hits instantly, from memory when the result was
        # verified before, else via the side-effect-free peek.
        if self.cache is not None:
            hit = self._recall(cache_key)
            if hit is None:
                stamp = self.cache.stamp(cache_key)  # before the read
                hit = _decode_cached_result(self.cache.peek(cache_key))
                if hit is not None:
                    self._remember(cache_key, hit, stamp)
            if hit is not None:
                self.stats.record_hit()
                record.advance(
                    JobState.DONE, source="cache", finished_at=time.time()
                )
                return hit, "cache", record

        # 2. Load shedding: a would-be *leader* arriving while the limit of
        # distinct misses is in flight (running, or waiting for a pool
        # thread) is turned away with 503 + Retry-After.  Followers
        # piggyback on work already in flight, so they pass.
        inflight = len(self.coalescer)
        if (
            self.max_queue_depth is not None
            and inflight >= self.max_queue_depth
            and not self.coalescer.inflight(cache_key)
        ):
            self.stats.record_shed()
            retry_after = max(1, round(inflight * 0.25))
            record.advance(
                JobState.FAILED,
                source="shed",
                error="load shed: in-flight misses at capacity",
                finished_at=time.time(),
            )
            raise ServiceOverloaded(inflight, self.max_queue_depth, retry_after)

        # 3. Single-flight: identical in-flight requests share one future;
        # the leader's miss starts running at once.
        future, leader = self.coalescer.lease(cache_key)
        if leader:
            task = asyncio.create_task(self._run_miss(request, record))
            self._misses.add(task)
            task.add_done_callback(self._miss_done)
        try:
            result = await asyncio.shield(future)
        except Exception:
            self.stats.record_failed()
            if record.state not in (JobState.DONE, JobState.FAILED):
                record.advance(
                    JobState.FAILED,
                    source="coalesced",
                    error="coalesced onto a failed job",
                    finished_at=time.time(),
                )
            raise
        if leader:
            return result, "executed", record
        self.stats.record_coalesced()
        record.advance(JobState.DONE, source="coalesced", finished_at=time.time())
        return result, "coalesced", record

    async def _run_miss(self, request: AnyRequest, record: JobRecord) -> None:
        """Run one leader's miss as a batch of one and settle its waiters.

        ``run_batch`` retries the request on its own under :attr:`retry`.
        A miss past the policy's ``timeout_seconds`` fails with
        :class:`BatchTimeoutError` and its worker thread is abandoned, not
        interrupted (Python threads cannot be killed).  Waiters are settled
        before anything is counted, so an error in the stats cannot strand
        them; it surfaces in the drain summary instead.
        """
        record.advance(JobState.RUNNING)
        key = record.cache_key
        started = time.perf_counter()
        future = asyncio.get_running_loop().run_in_executor(
            self._pool,
            lambda: run_batch([request], cache=self.cache, retry=self.retry),
        )
        timeout = self.retry.timeout_seconds if self.retry is not None else None
        outcome = None
        try:
            # shield(): past the deadline the thread keeps running; only the
            # waiting stops.
            outcome = await asyncio.wait_for(asyncio.shield(future), timeout)
        except Exception:
            # run_batch itself raised (a request's own failure is a
            # JobFailure slot, never an exception), or the deadline passed.
            error = future.exception() if future.done() else None
            if error is None:
                self._abandoned += 1
                # A late result (or error) from the abandoned thread must
                # never surface as an unretrieved-exception warning.
                future.add_done_callback(lambda f: f.exception())
                error = BatchTimeoutError(f"miss exceeded its {timeout}s deadline")
        else:
            result, error = outcome.results[0], None
            if isinstance(result, JobFailure):
                error = RuntimeError(
                    f"request failed: benchmark={record.benchmark!r} "
                    f"scheduler={record.scheduler!r} backend={record.backend!r} "
                    f"cache_key={key} ({result.error_type}: {result.error})"
                )
        wall = time.perf_counter() - started
        if error is None:
            record.advance(JobState.DONE, source="executed", finished_at=time.time())
            self.coalescer.resolve(key, result)
            stamp = self.cache.stamp(key) if self.cache is not None else None
            if self._audit_cached(key, result):
                self._remember(key, result, stamp)
            cycles = max((s.cycles for s in result.per_sm), default=0)
            self.stats.record_batch((result.backend, cycles), wall)
        else:
            record.advance(
                JobState.FAILED, source="executed", error=str(error),
                finished_at=time.time(),
            )
            self.coalescer.fail(key, error)
            if isinstance(error, BatchTimeoutError):
                self.stats.record_timed_out()
            self.stats.record_batch(None, wall)
        if outcome is not None:
            self.stats.record_retried(outcome.stats.retried)

    def _miss_done(self, task: asyncio.Task) -> None:
        self._misses.discard(task)
        error = None if task.cancelled() else task.exception()
        if error is not None:
            self._errors.append(f"{type(error).__name__}: {error}")

    def _audit_cached(self, cache_key: str, result) -> bool:
        """Read-back audit: the envelope just persisted for an executed job
        must digest-match the result we are about to serve.  A divergence
        means the entry was torn or corrupted between ``put`` and here —
        quarantine it so no later request is served the damaged bytes.
        Returns whether the audit passed, which gates the in-memory tier.
        """
        if self.cache is None:
            return False
        stored = self.cache.peek(cache_key)
        if stored is None:
            return False  # failed write or concurrent eviction: no envelope
        ok = result_digest(stored) == result_digest(result.to_dict())
        self.stats.record_audit(ok=ok)
        if not ok:
            self.cache.quarantine_entry(
                cache_key,
                "serve read-back audit: stored envelope diverged from the "
                "executed result",
            )
        return ok

    def _remember(self, cache_key: str, result, stamp) -> None:
        """Put a result verified against the entry stamped ``stamp`` (taken
        before the verifying read) in the in-memory tier, evicting the least
        recently used one past :data:`HOT_RESULTS`."""
        if stamp is None:
            return  # the entry appeared mid-read: nothing to check it by
        self.hot[cache_key] = (result, stamp)
        if len(self.hot) > HOT_RESULTS:
            self.hot.popitem(last=False)

    def _recall(self, cache_key: str):
        """The tier's result for ``cache_key``, or ``None``.  A result whose
        entry was since rewritten, repaired or quarantined (a distributed
        audit quarantines a lying worker's entries in the shared cache) is
        dropped, so the next read goes back to disk."""
        held = self.hot.get(cache_key)
        if held is None:
            return None
        result, stamp = held
        if self.cache.stamp(cache_key) != stamp:
            del self.hot[cache_key]
            return None
        self.hot.move_to_end(cache_key)
        return result

    def stats_payload(self) -> dict:
        """The ``/stats`` document: live counters + bench-ledger summary."""
        payload = self.stats.snapshot(inflight=len(self.coalescer))
        payload["draining"] = self._draining
        payload["jobs_tracked"] = len(self.jobs)
        payload["reconciles"] = self.stats.reconciles()
        payload["version"] = __version__
        payload["quarantined"] = (
            self.cache.stats.quarantined if self.cache is not None else 0
        )
        # Sweep and service history across sessions comes from the
        # append-only ledger that the sweep engine and drained services feed.
        payload["ledger"] = summarize_ledger(read_ledger())
        return payload

    # ------------------------------------------------------------------
    # HTTP handlers (routed by the daemon core)
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: HttpRequest, writer) -> None:
        await respond(writer, 200, {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
        })

    async def _handle_stats(self, request: HttpRequest, writer) -> None:
        await respond(writer, 200, self.stats_payload())

    async def _handle_jobs(self, request: HttpRequest, writer) -> None:
        records = list(self.jobs.values())[-50:]
        await respond(
            writer, 200, {"jobs": [r.to_dict() for r in reversed(records)]}
        )

    async def _handle_job(self, request: HttpRequest, writer) -> None:
        record = self.jobs.get(request.path.rstrip("/")[len("/jobs/"):])
        if record is None:
            await respond(writer, 404, {"error": "unknown job"})
            return
        await respond(writer, 200, record.to_dict())

    async def _handle_simulate(self, http: HttpRequest, writer) -> None:
        try:
            payload = json.loads(http.body.decode("utf-8"))
            request = decode_request(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            self.stats.record_rejected()
            await respond(writer, 400, {"error": f"bad payload: {exc}"})
            return
        try:
            result, source, record = await self.submit(request)
        except ServiceDraining as exc:
            await respond(writer, 503, {"error": str(exc)})
            return
        except ServiceOverloaded as exc:
            await respond(
                writer,
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After", str(exc.retry_after)),),
            )
            return
        except RejectedRequest as exc:
            await respond(writer, 400, {"error": str(exc)})
            return
        except Exception as exc:
            await respond(writer, 500, {"error": str(exc)})
            return
        # The body is the canonical rendering of the result wire form —
        # byte-identical across the cache / coalesced / executed paths and
        # to a direct execute(request).to_dict().  Job metadata rides in
        # headers so it can never perturb response bytes.
        wire = result.to_dict()
        body = canonical_json(wire)
        await respond(
            writer,
            200,
            body,
            extra_headers=(
                ("X-Repro-Source", source),
                ("X-Repro-Job", record.job_id),
                ("X-Repro-Cache-Key", record.cache_key),
                # Content digest of the wire form: clients can verify the
                # body survived the transport (same blake2b the cache and
                # the distributed workers use).
                ("X-Repro-Digest", result_digest(wire)),
            ),
        )


#: Start a service, announce its address, serve until drained
#: (:func:`repro.serve.http.run_daemon`).
run_service = run_daemon
