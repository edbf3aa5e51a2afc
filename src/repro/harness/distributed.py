"""Cross-machine sharded sweeps: ``repro worker`` + the sweep coordinator.

This is the third sweep executor, beside the in-process loop and the
process pool of :mod:`repro.harness.parallel`: planning (cache hits, keys)
and settling (result slots, cache writes, manifest rows, raise-or-skip) go
through the same sweep books, so a remote sweep fails and checkpoints
exactly like a local one.  The module wires two pieces together:

* **Workers** (:class:`WorkerServer`, the ``repro worker`` entry point) are
  long-lived processes built on the daemon core ``repro serve`` uses
  (:mod:`repro.serve.http`).  ``POST /batch`` accepts a
  :func:`repro.api.encode_request_batch` payload — the same versioned
  request wire forms ``repro serve`` speaks — executes it through
  :func:`repro.harness.parallel.run_jobs` with the full retry / timeout /
  chaos stack, and answers one outcome row per job plus the shard's sweep
  statistics and ledger row.
* **The coordinator** (:func:`run_distributed`, behind ``repro sweep
  --workers-at``) partitions the job list by content-addressed cache key
  (:class:`repro.harness.parallel.ShardPlan`), dispatches shard chunks to
  the workers, settles per-job outcomes into the append-only manifest as
  they arrive (so ``repro sweep --resume`` works across machines
  unchanged), merges results and ledger rows with dedup by cache key, and
  re-dispatches chunks lost to dead or unreachable workers onto healthy
  ones under the :class:`~repro.harness.parallel.RetryPolicy`.

Exactness: a job's seed lives in its ``RunConfig`` and results are
bit-identical wherever they execute, so a sharded sweep returns — by
construction — exactly what the single-machine sweep returns, whatever the
roster, chunking or failure history (asserted over the golden matrix by
``tests/test_distributed.py`` and the CI ``distributed-smoke`` job).  See
docs/DISTRIBUTED.md.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.api import (
    BATCH_SCHEMA,
    AnyRequest,
    decode_request_batch,
    encode_request_batch,
    result_digest,
)
from repro.gpu.gpu import SimulationResult
from repro.harness.breaker import CircuitBreaker
from repro.harness.cache import ResultCache
from repro.harness.integrity import audit_selected
from repro.harness.ledger import sweep_entry
from repro.harness.parallel import (
    AUTO_CACHE,
    JobFailure,
    RetryPolicy,
    ShardPlan,
    SweepError,
    SweepOutcome,
    _execute,
    _Sweep,
    parse_positive_int,
    run_jobs,
)
from repro.serve.http import Daemon, canonical_json, respond, run_daemon
from repro.version import __version__

#: Default TCP port of ``repro worker`` (``repro serve`` owns 8651).
DEFAULT_WORKER_PORT = 8652

#: Version of the worker's ``POST /batch`` response envelope.
OUTCOME_SCHEMA = 1

#: Jobs per dispatch chunk: the unit one HTTP round trip carries and the
#: most a lost worker forfeits.  Small enough that re-dispatch is cheap,
#: large enough to amortise the wire overhead.
DEFAULT_CHUNK_SIZE = 4

#: Fallback HTTP read timeout (seconds) when no policy deadline is set.  A
#: *dead* worker surfaces as an immediate connection error; this bound only
#: catches a worker that accepted a chunk and then hung.
DEFAULT_REQUEST_TIMEOUT = 600.0

#: Ceiling on a worker circuit breaker's probe backoff: an open worker is
#: re-probed at least this often, so a restarted worker rejoins quickly
#: however long it was down.
PROBE_MAX_SECONDS = 2.0


# ---------------------------------------------------------------------------
# Worker rosters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerRef:
    """One worker endpoint of a distributed sweep roster."""

    host: str
    port: int

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"


def parse_workers_at(text: str, *, what: str = "--workers-at") -> tuple[WorkerRef, ...]:
    """Parse a ``host:port,host:port`` roster with one-line errors.

    Accepts bare ``HOST:PORT`` entries or full ``http://HOST:PORT`` URLs;
    every malformed entry dies with a message naming the offending value
    (the same contract as the ``REPRO_WORKERS`` validation).
    """
    refs: list[WorkerRef] = []
    for raw in str(text).split(","):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("http://"):
            entry = entry[len("http://"):].rstrip("/")
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"{what} entry {raw.strip()!r} must look like HOST:PORT"
            )
        port = parse_positive_int(port_text, what=f"{what} port in {raw.strip()!r}")
        if port > 65535:
            raise ValueError(f"{what} port {port} in {raw.strip()!r} is out of range")
        refs.append(WorkerRef(host=host, port=port))
    if not refs:
        raise ValueError(f"{what} names no workers")
    return tuple(refs)


def load_worker_roster(path: Union[str, Path]) -> tuple[WorkerRef, ...]:
    """Read a ``shards.json`` roster: ``{"workers": ["host:port", ...]}``.

    A bare JSON list of ``host:port`` strings is accepted too.  Errors name
    the file and the offending entry.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read worker roster {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"worker roster {path} is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("workers")
    if not isinstance(payload, list) or not all(isinstance(e, str) for e in payload):
        raise ValueError(
            f'worker roster {path} must be {{"workers": ["host:port", ...]}} '
            "or a JSON list of host:port strings"
        )
    return parse_workers_at(",".join(payload), what=f"worker roster {path}")


# ---------------------------------------------------------------------------
# The worker process (``repro worker``)
# ---------------------------------------------------------------------------
class WorkerServer(Daemon):
    """A long-lived sweep worker: ``POST /batch`` in, outcome rows out.

    Built on the serve layer's daemon core; execution goes through
    :func:`run_jobs`, so the PR 8 resilience stack (per-job retry with
    seeded backoff, timeouts and straggler duplication on the pool path,
    seeded chaos via ``REPRO_CHAOS``) applies on the worker exactly as it
    does locally.  Batches execute one at a time — the worker's own
    ``--workers`` pool is the intra-batch parallelism.
    """

    ROUTES = {
        "/healthz": ("GET", "_handle_healthz"),
        "/batch": ("POST", "_handle_batch"),
        "/shutdown": ("POST", "_handle_shutdown"),
    }
    NAME = "repro worker"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_WORKER_PORT,
        workers: int = 1,
        backend: Optional[str] = None,
        cache: Union[ResultCache, str, None] = AUTO_CACHE,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(host, port)
        self.workers = workers
        self.backend = backend
        self.cache = cache
        self.batches = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self._busy = False
        self._batch_lock: Optional[asyncio.Lock] = None

    async def start(self) -> None:
        self._batch_lock = asyncio.Lock()
        await super().start()

    async def _drain(self) -> None:
        # Let an in-flight batch finish: the lock serialises against it.
        assert self._batch_lock is not None
        async with self._batch_lock:
            pass

    async def _handle_healthz(self, request, writer) -> None:
        await respond(writer, 200, {
            "status": "draining" if self._draining else "ok",
            "kind": "worker",
            "busy": self._busy,
            "workers": self.workers,
            "version": __version__,
            # Schema advertisement: the coordinator refuses to dispatch
            # to a worker speaking a different batch schema (a clear
            # error instead of a decode traceback mid-sweep).
            "batch_schema": BATCH_SCHEMA,
            "outcome_schema": OUTCOME_SCHEMA,
        })

    async def _handle_batch(self, http_request, writer) -> None:
        if self._draining:
            await respond(writer, 503, {"error": "worker is draining"})
            return
        try:
            payload = json.loads(http_request.body.decode("utf-8"))
            jobs = decode_request_batch(payload)
            options = payload.get("options") or {}
            on_error = options.get("on_error", "skip")
            if on_error not in ("skip", "retry"):
                raise ValueError(
                    f"worker on_error must be 'skip' or 'retry', got {on_error!r}"
                )
            retry_payload = options.get("retry")
            retry = (
                RetryPolicy.from_dict(retry_payload)
                if retry_payload is not None
                else None
            )
        except (ValueError, UnicodeDecodeError) as exc:
            await respond(writer, 400, {"error": f"bad batch payload: {exc}"})
            return
        assert self._batch_lock is not None
        async with self._batch_lock:
            self._busy = True
            try:
                loop = asyncio.get_running_loop()
                outcome = await loop.run_in_executor(
                    None,
                    lambda: run_jobs(
                        jobs,
                        workers=self.workers,
                        cache=self.cache,
                        backend=self.backend,
                        on_error=on_error,
                        retry=retry,
                    ),
                )
            except Exception as exc:
                await respond(writer, 500, {
                    "error": f"{type(exc).__name__}: {exc}",
                })
                return
            finally:
                self._busy = False
        rows = []
        keys: list[str] = []
        for job, result, attempts in zip(
            outcome.jobs, outcome.results, outcome.attempts
        ):
            if isinstance(result, JobFailure):
                self.jobs_failed += 1
                rows.append({
                    "status": "timeout" if result.timed_out else "failed",
                    "result": None,
                    "error": result.error,
                    "error_type": result.error_type,
                    "attempts": attempts,
                    "timed_out": result.timed_out,
                })
            else:
                self.jobs_done += 1
                wire = result.to_dict()
                rows.append({
                    "status": "done",
                    "result": wire,
                    # Content digest of the result payload: the coordinator
                    # verifies it on receipt, so corruption in transit (or a
                    # worker serialisation bug) is detected, not merged.
                    "digest": result_digest(wire),
                    "error": None,
                    "error_type": None,
                    "attempts": attempts,
                    "timed_out": False,
                })
            try:
                keys.append(job.cache_key())
            except Exception:
                pass
        self.batches += 1
        stats = outcome.stats
        await respond(writer, 200, canonical_json({
            "schema": OUTCOME_SCHEMA,
            "kind": "BatchOutcome",
            "outcomes": rows,
            "stats": {
                "jobs": stats.jobs,
                "cache_hits": stats.cache_hits,
                "executed": stats.executed,
                "workers": stats.workers,
                "backend": stats.backend,
                "failed": stats.failed,
                "retried": stats.retried,
                "timed_out": stats.timed_out,
                "wall_seconds": stats.wall_seconds,
            },
            "ledger_row": sweep_entry(stats, keys=keys or None),
        }))


#: Start a worker, announce its address, serve until stopped
#: (:func:`repro.serve.http.run_daemon`; an in-flight batch finishes first).
run_worker = run_daemon


# ---------------------------------------------------------------------------
# The coordinator side
# ---------------------------------------------------------------------------
class WorkerClient:
    """Blocking HTTP client for one worker endpoint (stdlib only)."""

    def __init__(self, ref: WorkerRef, *, timeout: float = DEFAULT_REQUEST_TIMEOUT) -> None:
        self.ref = ref
        self.timeout = timeout

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> dict:
        conn = http.client.HTTPConnection(
            self.ref.host, self.ref.port, timeout=self.timeout
        )
        try:
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                raise WorkerError(
                    f"worker {self.ref.address} answered {response.status}: "
                    f"{data[:200].decode(errors='replace')}"
                )
            return json.loads(data)
        finally:
            conn.close()

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def run_batch(
        self,
        requests: Sequence[AnyRequest],
        *,
        on_error: str = "skip",
        retry: Optional[RetryPolicy] = None,
    ) -> dict:
        payload = encode_request_batch(requests)
        payload["options"] = {
            "on_error": on_error,
            "retry": retry.to_dict() if retry is not None else None,
        }
        answer = self._request("POST", "/batch", canonical_json(payload))
        if (
            answer.get("kind") != "BatchOutcome"
            or answer.get("schema") != OUTCOME_SCHEMA
            or not isinstance(answer.get("outcomes"), list)
            or len(answer["outcomes"]) != len(requests)
        ):
            raise WorkerError(
                f"worker {self.ref.address} returned a malformed batch outcome"
            )
        return answer

    def shutdown(self) -> None:
        self._request("POST", "/shutdown", b"")


class WorkerError(RuntimeError):
    """A worker answered, but not with a usable batch outcome."""


class WorkerSchemaError(ValueError):
    """A roster worker speaks a different wire schema than this coordinator.

    A ``ValueError`` so the CLI surfaces it as a one-line error (mixing
    repro versions across a roster is an operator mistake, not a crash).
    """


def _worker_schema_drift(health: dict) -> Optional[str]:
    """Why this ``/healthz`` payload disqualifies the worker, or ``None``."""
    kind = health.get("kind")
    if kind != "worker":
        return f"is not a repro worker (healthz kind={kind!r})"
    remote = health.get("batch_schema")
    if remote != BATCH_SCHEMA:
        return (
            f"speaks batch schema {remote!r} but this coordinator speaks "
            f"{BATCH_SCHEMA} (worker version {health.get('version', '?')}, "
            f"coordinator {__version__}) — upgrade one side so they match"
        )
    return None


class _ReportedFailure(RuntimeError):
    """A job failure as a worker reported it: message plus remote type name.

    Settling it through the sweep books yields the same ``JobFailure`` and
    manifest row an in-process failure of the same job would.
    """

    def __init__(self, message: str, error_type: str) -> None:
        super().__init__(message)
        self.error_type = error_type


@dataclass
class _Chunk:
    """One dispatch unit: a few (index, job, key) items of one shard."""

    shard: int
    items: list  # [(index, job, key), ...]
    dispatches: int = 0
    last_error: Optional[BaseException] = None

    def backoff_key(self) -> str:
        return f"shard:{self.shard}:{self.items[0][0]}"


@dataclass
class _Fleet:
    """Shared coordinator state across per-worker dispatch threads."""

    queues: dict  # worker position -> deque[_Chunk]
    #: Per-worker circuit breakers (closed → open → half-open) replacing
    #: the old permanent ``dead`` set: a worker that faltered is probed
    #: with seeded backoff and rejoins when its ``/healthz`` answers again.
    breakers: dict = field(default_factory=dict)
    orphans: deque = field(default_factory=deque)
    unsettled: int = 0
    #: Consecutive failed worker contacts (probe or dispatch) fleet-wide,
    #: reset by any success.  Together with "every breaker is open" this
    #: bounds termination when the whole roster is gone.
    probe_failures: int = 0
    #: Workers that failed an audit: everything they return from now on is
    #: audited (100% sampling) until the sweep ends.
    distrusted: set = field(default_factory=set)
    #: Workers whose first returned result has been force-audited.
    handshaken: set = field(default_factory=set)
    #: Chunks already merged per worker (kept only while auditing) so an
    #: audit failure can roll back everything that worker contributed.
    merged: dict = field(default_factory=dict)
    error: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    wake: threading.Condition = field(init=False)

    def __post_init__(self) -> None:
        self.wake = threading.Condition(self.lock)


def run_distributed(
    jobs: Sequence[AnyRequest],
    workers: Sequence[WorkerRef],
    *,
    cache: Union[ResultCache, str, None] = AUTO_CACHE,
    backend: Optional[str] = None,
    on_error: str = "raise",
    retry: Optional[RetryPolicy] = None,
    manifest: Union[str, Path, None] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    request_timeout: Optional[float] = None,
    audit_rate: float = 0.0,
) -> SweepOutcome:
    """Execute ``jobs`` across ``workers`` and return a local-identical outcome.

    The distributed counterpart of :func:`repro.harness.parallel.run_jobs`
    with the same signature shape and the same return type: results in
    submission order, cache hits served locally before anything is
    dispatched, per-job outcomes streamed into ``manifest`` as they settle.
    Shard membership is a pure function of the jobs' cache keys
    (:class:`ShardPlan`), so a resume re-plans identically.

    Failure semantics mirror ``run_jobs``: ``on_error="raise"`` aborts with
    :class:`SweepError` on the first failed job, ``"skip"`` / ``"retry"``
    leave typed :class:`JobFailure` slots (retries happen *on the worker*,
    under the shipped :class:`RetryPolicy`).  Additionally the coordinator
    re-dispatches chunks lost to unreachable workers onto healthy ones —
    bounded by ``retry.max_attempts`` dispatches per chunk with the
    policy's seeded backoff — and counts each extra dispatch in
    ``stats.retried``.

    Integrity (docs/RESILIENCE.md): every worker is health-checked (and
    schema-checked — see :class:`WorkerSchemaError`) before its first
    dispatch and after any failure, behind a per-worker
    :class:`~repro.harness.breaker.CircuitBreaker`, so a restarted worker
    rejoins instead of staying blacklisted.  Worker results are verified
    against their shipped content digests, and ``audit_rate`` > 0
    additionally re-executes a seeded sample of worker-returned jobs
    locally: a digest mismatch discards *everything* that worker
    contributed (results un-merged, wrongly cached entries quarantined),
    re-dispatches it elsewhere, marks the worker distrusted (100% audits
    from then on), and records an audit row in the manifest and ledger.
    """
    audit_rate = float(audit_rate)
    if not 0.0 <= audit_rate <= 1.0:
        raise ValueError(f"audit_rate must be in [0, 1], got {audit_rate!r}")
    workers = tuple(workers)
    if not workers:
        raise ValueError("run_distributed needs at least one worker")
    policy = retry if retry is not None else RetryPolicy()
    worker_on_error = "retry" if on_error == "retry" else "skip"
    timeout = request_timeout
    if timeout is None:
        timeout = policy.straggler_seconds or DEFAULT_REQUEST_TIMEOUT

    # Keys are mandatory here: they define the shard plan and the result
    # merge, so a job that cannot produce one fails at planning time.
    books = _Sweep(
        jobs, cache=cache, backend=backend, on_error=on_error,
        manifest=manifest, keyed=True,
    )
    stats, results, cache = books.stats, books.results, books.cache
    stats.workers = len(workers)
    pending = books.pending

    ledger_rows: list[dict] = []
    if pending:
        plan = ShardPlan.build([key for _, _, key in pending], len(workers))
        fleet = _Fleet(
            queues={},
            breakers={
                position: CircuitBreaker(
                    key=f"worker:{position}",
                    seed=policy.seed,
                    failure_threshold=1,
                    probe_base=policy.backoff_base,
                    probe_factor=policy.backoff_factor,
                    probe_max=PROBE_MAX_SECONDS,
                    jitter=policy.jitter,
                )
                for position in range(len(workers))
            },
        )
        chunks: list[_Chunk] = []
        for shard_index, positions in plan.chunks(chunk_size):
            chunk = _Chunk(shard=shard_index, items=[pending[p] for p in positions])
            chunks.append(chunk)
            fleet.queues.setdefault(shard_index, deque()).append(chunk)
        fleet.unsettled = len(chunks)

        def settle_failed(index, job, key, cause, **details) -> None:
            """Settle one failed job through the books (under the lock); in
            raise mode the first failure stops the fleet."""
            try:
                books.fail(index, job, key, cause, **details)
            except SweepError as exc:
                if fleet.error is None:
                    fleet.error = exc

        def record_outcome(chunk: _Chunk, answer: dict) -> None:
            """Settle one chunk's outcome rows (called under the lock)."""
            worker_stats = answer.get("stats") or {}
            stats.retried += int(worker_stats.get("retried", 0) or 0)
            stats.timed_out += int(worker_stats.get("timed_out", 0) or 0)
            row = answer.get("ledger_row")
            if isinstance(row, dict):
                ledger_rows.append(row)
            for (index, job, key), outcome in zip(chunk.items, answer["outcomes"]):
                attempts = int(outcome.get("attempts", 1) or 1) + chunk.dispatches - 1
                result = None
                if outcome.get("status") == "done" and outcome.get("result") is not None:
                    digest = outcome.get("digest")
                    if isinstance(digest, str) and result_digest(
                        outcome["result"]
                    ) != digest:
                        # The payload does not match its own content digest:
                        # it was corrupted in transit (or the worker
                        # serialised garbage).  Reject, never merge.
                        stats.corrupt += 1
                        outcome = {
                            **outcome,
                            "error": "result digest mismatch in transit "
                                     "(corrupt batch envelope)",
                            "error_type": "IntegrityError",
                        }
                    else:
                        try:
                            result = SimulationResult.from_dict(outcome["result"])
                        except Exception:
                            result = None  # wire drift: count the job as failed
                if result is not None:
                    books.succeed(index, job, key, result, attempts)
                    continue
                settle_failed(
                    index, job, key,
                    _ReportedFailure(
                        str(outcome.get("error") or "worker reported no result"),
                        str(outcome.get("error_type") or "RuntimeError"),
                    ),
                    attempts=attempts,
                    timed_out=bool(outcome.get("timed_out")),
                )

        def settle_lost_chunk(chunk: _Chunk) -> None:
            """Give up on a chunk no worker could run (under the lock)."""
            cause = chunk.last_error or RuntimeError("no healthy workers")
            for index, job, key in chunk.items:
                settle_failed(
                    index, job, key, cause, attempts=max(1, chunk.dispatches)
                )

        def settle_chunk_or_orphan(chunk: _Chunk) -> None:
            """Re-queue a failed chunk, or settle it if out of attempts
            (called under the lock)."""
            if chunk.dispatches >= policy.max_attempts:
                settle_lost_chunk(chunk)
                fleet.unsettled -= 1
            else:
                fleet.orphans.append(chunk)

        def fleet_hopeless() -> bool:
            """Whether nobody will ever run the orphans (under the lock).

            Every breaker open *and* the collective probe budget spent:
            with no permanent dead set, this is what bounds termination
            when the whole roster is unreachable — any single success
            resets the budget.
            """
            return fleet.probe_failures >= policy.max_attempts * len(
                workers
            ) and all(b.state != "closed" for b in fleet.breakers.values())

        def audit_answer(
            chunk: _Chunk, answer: dict, *, distrusted: bool, handshaken: bool
        ) -> tuple[Optional[tuple], int]:
            """Re-execute a seeded sample of ``answer``'s done rows locally.

            Runs *off* the lock (re-execution is real simulation work).
            Returns ``(mismatch, audited)`` where ``mismatch`` is
            ``(index, job, key, detail)`` for the first digest divergence.
            Chaos-wrapped jobs are audited against the chaos *delegate*:
            the reference result is the ground truth the retry stack
            converges to, and re-drawing faults locally would audit the
            schedule, not the worker.
            """
            audited = 0
            first_done = True
            for (index, job, key), outcome in zip(chunk.items, answer["outcomes"]):
                if outcome.get("status") != "done":
                    continue
                if not isinstance(outcome.get("result"), dict):
                    continue
                selected = distrusted or audit_selected(policy.seed, key, audit_rate)
                if first_done and not handshaken:
                    # Handshake audit: a worker's first returned result is
                    # always verified, so a worker that lies about
                    # everything is caught before any outcome merges.
                    selected = True
                first_done = False
                if not selected:
                    continue
                audited += 1
                audit_job = job
                if getattr(job, "backend", None) == "chaos":
                    from repro.harness.faults import active_plan

                    plan_now = active_plan()
                    audit_job = replace(
                        job,
                        backend=plan_now.delegate if plan_now is not None else None,
                    )
                local = _execute(audit_job)
                local_digest = result_digest(local.to_dict())
                remote_digest = result_digest(outcome["result"])
                if local_digest != remote_digest:
                    return (
                        index,
                        job,
                        key,
                        f"local {local_digest[:12]} != worker {remote_digest[:12]}",
                    ), audited
            return None, audited

        def discard_worker_outcomes(
            position: int, chunk: _Chunk, mismatch: tuple
        ) -> None:
            """Audit failed: roll back everything ``position`` contributed
            (called under the lock)."""
            _, job, key, detail = mismatch
            stats.audit_failures += 1
            fleet.distrusted.add(position)
            error = (
                f"audit mismatch: worker {workers[position].address} returned "
                f"a result diverging from local re-execution ({detail})"
            )
            books.record(job, key, "failed", chunk.dispatches, error=error)
            ledger_rows.append({
                "kind": "audit",
                "ts": round(time.time(), 3),
                "worker": workers[position].address,
                "key": key,
                "verdict": "mismatch",
                "detail": detail,
            })
            # The in-flight chunk goes back up for grabs (its dispatch was
            # spent on a worker whose answers cannot be trusted) ...
            chunk.last_error = RuntimeError(error)
            settle_chunk_or_orphan(chunk)
            # ... and every chunk previously merged from this worker is
            # un-merged: result slots reset, wrongly cached entries
            # quarantined (a manifest "done" row whose cache entry is gone
            # simply re-runs on resume), chunks re-queued elsewhere.
            for merged in fleet.merged.pop(position, []):
                for m_index, _m_job, m_key in merged.items:
                    if isinstance(results[m_index], JobFailure):
                        stats.failed -= 1
                    results[m_index] = None
                    if cache is not None:
                        cache.quarantine_entry(
                            m_key,
                            f"audit: outcomes from "
                            f"{workers[position].address} discarded",
                        )
                fleet.orphans.append(merged)
                fleet.unsettled += 1

        def worker_loop(position: int, ref: WorkerRef) -> None:
            client = WorkerClient(ref, timeout=timeout)
            breaker = fleet.breakers[position]
            own = fleet.queues.get(position) or deque()
            validated = False  # healthz + schema verified since last failure

            def contact_failed(exc: BaseException, chunk: Optional[_Chunk]) -> None:
                """A probe or dispatch round trip failed (takes the lock)."""
                with fleet.wake:
                    breaker.record_failure()
                    fleet.probe_failures += 1
                    if chunk is not None:
                        chunk.last_error = exc
                        settle_chunk_or_orphan(chunk)
                    # Chunks still queued on an unreachable worker count one
                    # failed dispatch each — the same accounting as a failed
                    # round trip — and go up for grabs by the rest of the
                    # fleet.
                    while own:
                        lost = own.popleft()
                        lost.dispatches += 1
                        lost.last_error = exc
                        settle_chunk_or_orphan(lost)
                    if fleet_hopeless():
                        while fleet.orphans:
                            settle_lost_chunk(fleet.orphans.popleft())
                            fleet.unsettled -= 1
                    fleet.wake.notify_all()

            while True:
                chunk: Optional[_Chunk] = None
                with fleet.wake:
                    while True:
                        if fleet.unsettled == 0 or fleet.error is not None:
                            return
                        if validated and breaker.state == "closed":
                            if own:
                                chunk = own.popleft()
                                break
                            if fleet.orphans:
                                chunk = fleet.orphans.popleft()
                                break
                        elif breaker.allow():
                            break  # probe /healthz off-lock
                        fleet.wake.wait(timeout=0.05)
                    if chunk is not None:
                        chunk.dispatches += 1
                        redispatch = chunk.dispatches > 1

                if chunk is None:
                    # Probe: health + schema check before (re)admitting the
                    # worker.  Cheap, and the only path out of an open
                    # breaker — so a restarted worker rejoins here.
                    try:
                        health = client.healthz()
                    except (
                        OSError, http.client.HTTPException, WorkerError, ValueError,
                    ) as exc:
                        contact_failed(exc, None)
                        continue
                    problem = _worker_schema_drift(health)
                    if problem is not None:
                        with fleet.wake:
                            if fleet.error is None:
                                fleet.error = WorkerSchemaError(
                                    f"worker {ref.address} {problem}"
                                )
                            fleet.wake.notify_all()
                        return
                    validated = True
                    with fleet.wake:
                        breaker.record_success()
                        fleet.probe_failures = 0
                        fleet.wake.notify_all()
                    continue

                if redispatch:
                    with fleet.lock:
                        stats.retried += 1
                    time.sleep(
                        policy.backoff_seconds(chunk.backoff_key(), chunk.dispatches - 1)
                    )
                try:
                    answer = client.run_batch(
                        [job for _, job, _ in chunk.items],
                        on_error=worker_on_error,
                        retry=retry,
                    )
                except (
                    OSError, http.client.HTTPException, WorkerError, ValueError,
                ) as exc:
                    validated = False  # must re-pass healthz before rejoining
                    contact_failed(exc, chunk)
                    continue

                mismatch = None
                audit_count = 0
                if audit_rate > 0.0:
                    with fleet.lock:
                        is_distrusted = position in fleet.distrusted
                        is_handshaken = position in fleet.handshaken
                    try:
                        mismatch, audit_count = audit_answer(
                            chunk, answer,
                            distrusted=is_distrusted,
                            handshaken=is_handshaken,
                        )
                    except Exception as exc:
                        # The coordinator itself cannot re-execute (missing
                        # backend, bad config): auditing is impossible, and
                        # silently skipping it would be a false "verified".
                        with fleet.wake:
                            if fleet.error is None:
                                fleet.error = SweepError(
                                    chunk.items[0][1],
                                    RuntimeError(
                                        f"audit re-execution failed: {exc}"
                                    ),
                                )
                            fleet.wake.notify_all()
                        return

                with fleet.wake:
                    stats.audited += audit_count
                    if audit_count:
                        fleet.handshaken.add(position)
                    if mismatch is not None:
                        validated = False
                        breaker.record_failure()
                        discard_worker_outcomes(position, chunk, mismatch)
                        fleet.wake.notify_all()
                        continue
                    record_outcome(chunk, answer)
                    if audit_rate > 0.0:
                        fleet.merged.setdefault(position, []).append(chunk)
                    fleet.unsettled -= 1
                    breaker.record_success()
                    fleet.probe_failures = 0
                    fleet.wake.notify_all()

        threads = [
            threading.Thread(
                target=worker_loop, args=(position, ref),
                name=f"repro-dispatch-{position}", daemon=True,
            )
            for position, ref in enumerate(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if fleet.error is not None:
            raise fleet.error

    return books.finish(ledger_rows)
