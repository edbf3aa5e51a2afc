"""Batching dispatcher: queued misses drain into ``repro.api.run_batch``.

Requests that were neither cache hits nor coalesced land here.  The
dispatcher collects them into batches — up to ``batch_max`` requests, or
whatever arrived within the ``linger`` window after the first one — and
hands each batch to :func:`repro.api.run_batch` on a worker-thread pool.
Engines that intern per-kernel state (the ``vector`` backend's extracted
traces) keep it process-wide, so a batch pays setup once per kernel, exactly
as the sweep engine's in-process path does.

Failure attribution: ``run_batch`` raises :class:`repro.api
.BatchExecutionError` naming one offending request (message now carries its
cache key and backend).  The dispatcher fails *only that job's* future and
re-runs the remainder of the batch, so one poisoned request never takes
innocent co-batched requests down with it.

Resilience (docs/RESILIENCE.md): the queue accepts the same
:class:`repro.harness.parallel.RetryPolicy` the sweep engine uses.  A
failing batch is retried up to ``max_attempts`` times with the policy's
deterministic backoff before the per-offender attribution above kicks in,
and ``timeout_seconds`` bounds each batch's wall time — a batch past its
deadline fails all its jobs with :class:`BatchTimeoutError` while the
worker thread is *abandoned*, not interrupted (Python threads cannot be
killed), so :meth:`drain` shuts the pool down without waiting on it.

Lifecycle: :meth:`BatchQueue.put` is loop-confined; simulation happens on
``ThreadPoolExecutor`` workers; results return to the loop through the
executor future, where job records advance (``QUEUED`` → ``RUNNING`` →
``DONE`` / ``FAILED``) and coalescer futures resolve.  :meth:`drain` stops
intake, waits for the queue and every in-flight batch to finish, shuts the
pool down, and returns a summary dict — worker-thread exceptions during
shutdown are *counted and surfaced* there (they were previously discarded
by ``asyncio.gather(..., return_exceptions=True)``).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.api import AnyRequest, BatchExecutionError, JobRecord, JobState, run_batch
from repro.harness.breaker import CircuitBreaker, CircuitOpenError
from repro.harness.faults import set_current_attempt
from repro.harness.parallel import RetryPolicy

#: Unattributed batch failures before a backend's circuit opens.  Higher
#: than the coordinator's per-worker threshold of 1: a backend is shared
#: state (one open circuit refuses every request targeting it), so it gets
#: more benefit of the doubt.
DEFAULT_BREAKER_THRESHOLD = 3


class BatchTimeoutError(RuntimeError):
    """A dispatched batch exceeded the queue's per-batch deadline."""


@dataclass
class QueuedJob:
    """One pending miss: the request, its identity and its lifecycle record."""

    request: AnyRequest
    cache_key: str
    record: JobRecord


class BatchQueue:
    """Collects :class:`QueuedJob` values and drains them in batches."""

    def __init__(
        self,
        *,
        cache=None,
        workers: int = 2,
        batch_max: int = 16,
        linger: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        on_batch_done: Optional[Callable[[list, float], None]] = None,
        on_job_done: Optional[Callable[[QueuedJob, object, Optional[BaseException]], None]] = None,
        on_retry: Optional[Callable[[], None]] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if linger < 0:
            raise ValueError("linger must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self._cache = cache
        self._batch_max = batch_max
        self._linger = linger
        #: Shared policy object (same type the sweep engine takes): retry
        #: attempts + backoff apply per batch, ``timeout_seconds`` bounds
        #: each batch's wall time.  ``None`` keeps the historic behavior
        #: (one attempt, no deadline).
        self._retry = retry
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._pending: List[QueuedJob] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._active: set[asyncio.Task] = set()
        self._closing = False
        #: Batches whose worker thread outlived its deadline; their threads
        #: cannot be interrupted, so drain must not wait on the pool.
        self._abandoned = 0
        #: ``(outcomes, wall_seconds)`` hook — the service's stats feed.
        self._on_batch_done = on_batch_done
        #: per-job completion hook — resolves coalescer futures / records.
        self._on_job_done = on_job_done
        #: called (from the worker thread) on each batch retry.
        self._on_retry = on_retry
        #: Per-resolved-backend circuit breakers (docs/RESILIENCE.md): a
        #: backend whose batches keep failing *without attribution* (crash
        #: in the engine itself, not one poisoned request) is opened and
        #: probed with one request at a time instead of burning whole
        #: batches against it.  Attributed failures and timeouts don't
        #: count — they already have narrower handling.
        self._breaker_threshold = breaker_threshold
        self._breakers: dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs queued but not yet dispatched."""
        return len(self._pending)

    @property
    def inflight_batches(self) -> int:
        return len(self._active)

    @property
    def abandoned_batches(self) -> int:
        """Batches abandoned past their deadline (threads left to finish)."""
        return self._abandoned

    def start(self) -> None:
        """Start the dispatcher task (call from the event loop)."""
        if self._dispatcher is None:
            self._wakeup = asyncio.Event()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    def put(self, job: QueuedJob) -> None:
        """Enqueue one miss (loop-confined; raises once draining began)."""
        if self._closing:
            raise RuntimeError("queue is draining; not accepting new jobs")
        self._pending.append(job)
        assert self._wakeup is not None, "BatchQueue.start() was not called"
        self._wakeup.set()

    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # Linger: give identical-arrival-time traffic a window to pile
            # into one batch before draining (0 = dispatch immediately).
            if self._linger and len(self._pending) < self._batch_max:
                await asyncio.sleep(self._linger)
            batch = self._pending[: self._batch_max]
            del self._pending[: len(batch)]
            for job in batch:
                job.record.advance(JobState.RUNNING)
            task = asyncio.get_running_loop().create_task(self._run_batch(batch))
            self._active.add(task)
            task.add_done_callback(self._active.discard)

    async def _run_batch(self, batch: List[QueuedJob]) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        future = loop.run_in_executor(
            self._pool, self._execute_batch, [job.request for job in batch]
        )
        timeout = self._retry.timeout_seconds if self._retry is not None else None
        if timeout is not None:
            try:
                # shield(): on timeout the executor future keeps running in
                # its worker thread (threads cannot be interrupted); we stop
                # *waiting*, fail the batch's jobs, and mark the thread
                # abandoned so drain skips it.
                outcomes = await asyncio.wait_for(asyncio.shield(future), timeout)
            except asyncio.TimeoutError:
                self._abandoned += 1
                # A late result (or error) from the abandoned thread must
                # never surface as an unretrieved-exception warning.
                future.add_done_callback(lambda f: f.exception())
                error = BatchTimeoutError(
                    f"batch of {len(batch)} job(s) exceeded its "
                    f"{timeout}s deadline"
                )
                wall = time.perf_counter() - started
                if self._on_job_done is not None:
                    for job in batch:
                        self._on_job_done(job, None, error)
                if self._on_batch_done is not None:
                    self._on_batch_done([], wall)
                return
        else:
            outcomes = await future
        wall = time.perf_counter() - started
        executed = []
        for job, (result, error) in zip(batch, outcomes):
            if error is None and result is not None:
                cycles = max((s.cycles for s in result.per_sm), default=0)
                executed.append((result.backend, cycles))
            if self._on_job_done is not None:
                self._on_job_done(job, result, error)
        if self._on_batch_done is not None:
            self._on_batch_done(executed, wall)

    # -- circuit breakers ----------------------------------------------
    def _backend_name(self, request) -> Optional[str]:
        """The resolved engine name a request will execute on, or ``None``."""
        try:
            from repro.api import MultiTenantRequest
            from repro.backends import resolve_backend_name

            backend = getattr(request, "backend", None)
            if backend is None and isinstance(request, MultiTenantRequest):
                return "lockstep"
            return resolve_backend_name(backend)
        except Exception:
            return None

    def _breaker_for(self, backend: str) -> CircuitBreaker:
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = CircuitBreaker(
                key=f"backend:{backend}",
                seed=self._retry.seed if self._retry is not None else 0,
                failure_threshold=self._breaker_threshold,
                probe_base=(
                    self._retry.backoff_base if self._retry is not None else 0.05
                ),
            )
            self._breakers[backend] = breaker
        return breaker

    def breaker_states(self) -> dict[str, str]:
        """``{backend: state}`` for every breaker created so far."""
        return {name: b.state for name, b in sorted(self._breakers.items())}

    def _execute_batch(self, requests: List[AnyRequest]):
        """Worker-thread body: one ``run_batch`` call, retried under the
        policy's backoff, then retried around individually-failing requests
        so attribution stays per job."""
        outcomes: list = [None] * len(requests)
        remaining = []
        for index, request in enumerate(requests):
            name = self._backend_name(request)
            if name is not None and not self._breaker_for(name).allow():
                # Open circuit: refuse instantly instead of burning a batch
                # attempt on a backend that just failed repeatedly.  (In
                # half-open state exactly one request per backend gets
                # through as the probe.)
                outcomes[index] = (None, CircuitOpenError(
                    f"backend {name!r} circuit is open after repeated "
                    "failures; retry shortly"
                ))
                continue
            remaining.append((index, request))
        max_attempts = self._retry.max_attempts if self._retry is not None else 1
        attempt = 1
        set_current_attempt(attempt)
        while remaining:
            try:
                results = run_batch(
                    [request for _, request in remaining], cache=self._cache
                )
            except BatchExecutionError as exc:
                if attempt < max_attempts:
                    if self._on_retry is not None:
                        self._on_retry()
                    time.sleep(
                        self._retry.backoff_seconds("serve-batch", attempt)
                    )
                    attempt += 1
                    set_current_attempt(attempt)
                    continue
                position = next(
                    (
                        i
                        for i, (_, request) in enumerate(remaining)
                        if request is exc.request or request == exc.request
                    ),
                    None,
                )
                if position is None:
                    # Cannot map the failure onto a batch member: fail all.
                    for index, _ in remaining:
                        outcomes[index] = (None, exc)
                    break
                index, _ = remaining.pop(position)
                outcomes[index] = (None, exc)
                continue
            except Exception as exc:  # batch-level failure, no attribution
                if attempt < max_attempts:
                    if self._on_retry is not None:
                        self._on_retry()
                    time.sleep(
                        self._retry.backoff_seconds("serve-batch", attempt)
                    )
                    attempt += 1
                    set_current_attempt(attempt)
                    continue
                for name in {
                    self._backend_name(request) for _, request in remaining
                }:
                    if name is not None:
                        self._breaker_for(name).record_failure()
                for index, _ in remaining:
                    outcomes[index] = (None, exc)
                break
            for name in {
                self._backend_name(request) for _, request in remaining
            }:
                if name is not None:
                    self._breaker_for(name).record_success()
            for (index, _), result in zip(remaining, results):
                outcomes[index] = (result, None)
            break
        return outcomes

    # ------------------------------------------------------------------
    async def drain(self) -> dict:
        """Stop intake, run everything queued, wait, and summarize.

        Returns ``{"drain_errors": int, "abandoned_batches": int,
        "errors": [str, ...]}``.  Worker-task exceptions are counted and
        returned instead of being silently discarded; the pool is shut down
        without waiting when any batch thread was abandoned past its
        deadline (it cannot be joined).
        """
        self._closing = True
        if self._wakeup is not None:
            self._wakeup.set()  # let an idle dispatcher observe _closing
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        errors: list[str] = []
        while self._active:
            settled = await asyncio.gather(
                *list(self._active), return_exceptions=True
            )
            for outcome in settled:
                if isinstance(outcome, BaseException):
                    errors.append(f"{type(outcome).__name__}: {outcome}")
        if self._abandoned:
            self._pool.shutdown(wait=False, cancel_futures=True)
        else:
            self._pool.shutdown(wait=True)
        return {
            "drain_errors": len(errors),
            "abandoned_batches": self._abandoned,
            "errors": errors,
        }
