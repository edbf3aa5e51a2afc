"""Batching dispatcher: queued misses drain into ``repro.api.run_batch``.

Requests that were neither cache hits nor coalesced land here.  The
dispatcher collects them into batches — up to ``batch_max`` requests, or
whatever arrived within the ``linger`` window after the first one — and
hands each batch to :func:`repro.api.run_batch` on a worker-thread pool.
Engines that intern per-kernel state (the ``vector`` backend's extracted
traces) keep it process-wide, so a batch pays setup once per kernel, exactly
as the sweep engine's in-process path does.

Failures are per job: ``run_batch`` runs the batch through the sweep core's
in-process attempt loop, which retries each request on its own under the
queue's :class:`repro.harness.parallel.RetryPolicy` (one attempt when there
is none, with the policy's seeded backoff between attempts).  A request
that exhausts its attempts fails only its own future, with an error naming
its benchmark, scheduler, backend and cache key; its neighbours run once.

``timeout_seconds`` bounds each batch's wall time — a batch past its
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

from repro.api import AnyRequest, JobRecord, JobState, run_batch
from repro.harness.parallel import JobFailure, RetryPolicy


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
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if linger < 0:
            raise ValueError("linger must be >= 0")
        self._cache = cache
        self._batch_max = batch_max
        self._linger = linger
        #: Shared policy object (same type the sweep engine takes): retry
        #: attempts + backoff apply per job, ``timeout_seconds`` bounds
        #: each batch's wall time.  ``None`` means one attempt, no deadline.
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
        #: called (on the loop) once per job retry of a settled batch.
        self._on_retry = on_retry

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs queued but not yet dispatched."""
        return len(self._pending)

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
        requests = [job.request for job in batch]
        future = loop.run_in_executor(
            self._pool,
            lambda: run_batch(requests, cache=self._cache, retry=self._retry),
        )
        timeout = self._retry.timeout_seconds if self._retry is not None else None
        try:
            if timeout is None:
                outcome = await future
            else:
                # shield(): on timeout the executor future keeps running in
                # its worker thread (threads cannot be interrupted); we stop
                # *waiting*, fail the batch's jobs, and mark the thread
                # abandoned so drain skips it.
                outcome = await asyncio.wait_for(asyncio.shield(future), timeout)
        except Exception:
            # Either the sweep core itself raised (a job's own failure is a
            # JobFailure slot, never an exception) or the deadline passed.
            error = future.exception() if future.done() else None
            if error is None:
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
        wall = time.perf_counter() - started
        if self._on_retry is not None:
            for _ in range(outcome.stats.retried):
                self._on_retry()
        executed = []
        for job, result in zip(batch, outcome.results):
            error = None
            if isinstance(result, JobFailure):
                record = job.record
                result, error = None, RuntimeError(
                    f"batch request failed: benchmark={record.benchmark!r} "
                    f"scheduler={record.scheduler!r} backend={record.backend!r} "
                    f"cache_key={job.cache_key} "
                    f"({result.error_type}: {result.error})"
                )
            else:
                cycles = max((s.cycles for s in result.per_sm), default=0)
                executed.append((result.backend, cycles))
            if self._on_job_done is not None:
                self._on_job_done(job, result, error)
        if self._on_batch_done is not None:
            self._on_batch_done(executed, wall)

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
