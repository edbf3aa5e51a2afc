"""Parallel sweep engine: fan (benchmark, scheduler, config) jobs out.

This module is the single execution substrate behind :func:`run_many`, every
``figN_*`` / ``tableN_*`` experiment and the ``repro`` CLI.  A sweep is a
list of :class:`repro.api.SimulationRequest` values — the canonical job
descriptor shared with ``run_benchmark``, the result cache and the CLI — and
:func:`run_jobs` executes them:

1. *plan*: every job's cache key is computed up front (see
   :mod:`repro.harness.cache`), hits are served without simulating, and a
   job repeating an earlier one shares its simulation;
2. *execute*: the remaining jobs run in-process (no pool, no pickling) when
   ``workers == 1``, or on a ``ProcessPoolExecutor`` when ``workers > 1``
   (:func:`repro.harness.distributed.run_distributed` is the third,
   remote executor);
3. *settle*: each outcome fills its result slot, fresh results are written
   back to the cache (in the versioned ``SimulationResult.to_dict`` schema)
   with one manifest row per job, and the outcome is returned in submission
   order together with :class:`SweepStats`, which is also appended to the
   bench ledger (:mod:`repro.harness.ledger`).  Planning and settling live
   in one place, the ``_Sweep`` books, for all three executors.

Determinism: a job's seed is part of its ``RunConfig`` and is fixed at
submission time, never derived from worker identity or execution order, so a
sweep returns bit-identical :class:`SimulationResult` objects whatever the
worker count.  :func:`derive_seed` builds stable per-job seeds for callers
who want decorrelated seeds across a sweep (e.g. ``repro sweep
--seed-per-job``).

Fault tolerance (see docs/RESILIENCE.md): ``on_error`` selects what a
failing job does to the sweep — ``"raise"`` (the default, and the historic
behavior) aborts with :class:`SweepError`, ``"skip"`` records a typed
:class:`JobFailure` in the failed job's result slot and keeps going, and
``"retry"`` re-dispatches failed jobs under a :class:`RetryPolicy`
(bounded attempts, exponential backoff with deterministic seeded jitter).
The policy also carries per-job ``timeout_seconds`` and a
``straggler_seconds`` deadline past which a slow job is re-dispatched to an
idle worker with first-result-wins — safe by construction because results
are bit-identical whichever dispatch finishes.  A crashed worker
(``BrokenProcessPool``) respawns the pool and re-dispatches only the lost
jobs; ``manifest=`` appends per-job outcomes to an append-only checkpoint
file (:mod:`repro.harness.manifest`) so an interrupted sweep resumes by
re-running only what is not already ``done``-and-cached.

Backends: each request carries its own ``backend`` selection; ``run_jobs``'s
``backend`` argument fills it in for requests that left it ``None``, and the
environment default (``REPRO_BACKEND``) applies last, inside the worker.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from repro.api import (
    AnyRequest,
    MultiTenantRequest,
    SimulationRequest,
    _decode_cached_result,
)
from repro.gpu.gpu import SimulationResult
from repro.harness.cache import ResultCache
from repro.harness.faults import _unit_draw, set_current_attempt
from repro.harness.ledger import append_entry, merge_ledger_entries, record_sweep
from repro.harness.manifest import ManifestEntry, append_outcome, scan_manifest

#: ``cache`` argument sentinel: use the environment-default cache.
AUTO_CACHE = "auto"

#: Legal ``on_error`` modes of :func:`run_jobs`.
ON_ERROR_MODES = ("raise", "skip", "retry")

#: Version of the :meth:`RetryPolicy.to_dict` wire form.
RETRY_SCHEMA = 1


class SweepError(RuntimeError):
    """A job of a sweep failed; carries the offending job for context.

    On the pool path the error also carries how much of the sweep survived:
    ``completed`` results already landed (and were written to the cache)
    before the failure, and ``outstanding`` jobs were left unsettled, their
    dispatches cancelled or abandoned so the pool shuts down without
    orphaned workers.
    """

    def __init__(
        self,
        job: AnyRequest,
        cause: BaseException,
        *,
        completed: Optional[int] = None,
        outstanding: Optional[int] = None,
    ) -> None:
        message = (
            f"sweep job failed: benchmark={job.benchmark_name!r} "
            f"scheduler={job.scheduler!r} ({_error_type(cause)}: {cause})"
        )
        if completed is not None:
            message += (
                f"; {completed} job(s) had already completed (results "
                f"cached), {outstanding or 0} outstanding job(s) cancelled"
            )
        super().__init__(message)
        self.job = job
        self.cause = cause
        self.completed = completed
        self.outstanding = outstanding


@dataclass(frozen=True)
class RetryPolicy:
    """Retry / timeout / straggler policy of one sweep (or ``repro serve``).

    Backoff before retry ``n`` (1-based) is ``backoff_base *
    backoff_factor**(n-1)`` scaled by a deterministic seeded jitter in
    ``[1-jitter, 1+jitter]`` — the jitter is a pure function of
    ``(seed, job key, n)``, so two runs of the same sweep back off
    identically (no wall-clock or RNG state leaks into scheduling).
    """

    #: Most executions any one job may consume in ``on_error="retry"`` mode
    #: (the first attempt included); also bounds worker-crash re-dispatch.
    max_attempts: int = 3
    #: First backoff delay, in seconds.
    backoff_base: float = 0.05
    #: Multiplier applied per further retry (exponential backoff).
    backoff_factor: float = 2.0
    #: Fractional jitter amplitude (0 disables jitter).
    jitter: float = 0.5
    #: Jitter stream seed.
    seed: int = 0
    #: Per-job execution deadline; a dispatch running longer counts as
    #: timed out and is abandoned (pool path only — an in-process job
    #: cannot be interrupted).
    timeout_seconds: Optional[float] = None
    #: Straggler deadline: a dispatch still running after this long is
    #: duplicated onto an idle worker, first result wins (pool path only).
    straggler_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base must be >= 0 and backoff_factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.straggler_seconds is not None and self.straggler_seconds <= 0:
            raise ValueError("straggler_seconds must be positive")

    def backoff_seconds(self, key: str, retry: int) -> float:
        """Deterministic backoff before retry ``retry`` (1-based) of ``key``."""
        base = self.backoff_base * self.backoff_factor ** max(0, retry - 1)
        if not self.jitter or not base:
            return base
        draw = _unit_draw(self.seed, "backoff", key, retry)
        return base * (1.0 + self.jitter * (2.0 * draw - 1.0))

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-safe form (shipped to ``repro worker`` processes)."""
        from dataclasses import asdict

        return {
            "schema": RETRY_SCHEMA,
            "kind": "RetryPolicy",
            "data": asdict(self),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RetryPolicy":
        """Inverse of :meth:`to_dict` (raises ``ValueError`` on drift)."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"RetryPolicy payload must be a mapping, got {type(payload).__name__}"
            )
        if payload.get("kind") != "RetryPolicy" or payload.get("schema") != RETRY_SCHEMA:
            raise ValueError(
                f"unsupported RetryPolicy payload (kind={payload.get('kind')!r}, "
                f"schema={payload.get('schema')!r})"
            )
        data = payload.get("data")
        if not isinstance(data, Mapping):
            raise ValueError("RetryPolicy payload carries no data mapping")
        from dataclasses import fields as dc_fields

        known = {f.name for f in dc_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RetryPolicy fields {unknown}")
        return cls(**data)


@dataclass
class JobFailure:
    """Typed terminal failure of one sweep job (``on_error != "raise"``).

    Occupies the failed job's slot in :attr:`SweepOutcome.results`, in
    submission order, so callers can tell exactly which jobs failed and
    why without losing the successes around them.
    """

    job: AnyRequest
    error: str
    error_type: str
    attempts: int = 1
    timed_out: bool = False

    @property
    def benchmark_name(self) -> str:
        return self.job.benchmark_name

    @property
    def scheduler(self) -> str:
        return self.job.scheduler


@dataclass
class SweepStats:
    """Execution statistics of one sweep (surfaced by the CLI / reporting)."""

    jobs: int = 0
    cache_hits: int = 0
    #: Simulations planned to run: a job repeating an earlier one in the
    #: sweep shares that job's simulation and is not counted again.
    executed: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    #: Resolved backend name(s) the sweep's jobs ran on (comma-joined when
    #: a sweep mixes engines).
    backend: str = ""
    #: Jobs that ended in a terminal :class:`JobFailure`.
    failed: int = 0
    #: Extra dispatches beyond each job's first (retries after failures,
    #: straggler duplicates, crash re-dispatches).
    retried: int = 0
    #: Dispatches abandoned past ``RetryPolicy.timeout_seconds``.
    timed_out: int = 0
    #: Worker-returned jobs re-executed locally for verification
    #: (``run_distributed(..., audit_rate=...)``; docs/RESILIENCE.md).
    audited: int = 0
    #: Audits whose local re-execution digest diverged from the worker's —
    #: each one discarded that worker's outcomes and re-dispatched them.
    audit_failures: int = 0
    #: Worker outcome rows rejected because their payload did not match
    #: their own content digest (corruption in transit).
    corrupt: int = 0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0


@dataclass
class SweepOutcome:
    """Results of a sweep, aligned with the submitted job list.

    With ``on_error="skip"`` / ``"retry"`` a slot holds a
    :class:`JobFailure` instead of a :class:`SimulationResult` when that
    job exhausted its attempts; :meth:`failures` collects them.
    """

    jobs: list[SimulationRequest]
    results: list[SimulationResult]
    stats: SweepStats
    #: Executions each slot's job consumed, retries included (0 for a
    #: cache hit).
    attempts: list[int]
    #: Corrupt manifest lines skipped while (re)loading this sweep's
    #: checkpoint manifest — nonzero means the manifest has damage that
    #: ``repro cache fsck --repair`` can remove.
    manifest_skipped: int = 0

    def __iter__(self):
        return iter(zip(self.jobs, self.results))

    @property
    def ok(self) -> bool:
        """Whether every job produced a result (no failure slots)."""
        return not any(isinstance(r, JobFailure) for r in self.results)

    def failures(self) -> list[JobFailure]:
        """The :class:`JobFailure` slots, in submission order."""
        return [r for r in self.results if isinstance(r, JobFailure)]

    def nested(self) -> dict[str, dict[str, SimulationResult]]:
        """``{benchmark: {scheduler: result}}`` view (``run_many`` shape).

        The grid holds results only: a failed job leaves no cell.
        """
        table: dict[str, dict[str, SimulationResult]] = {}
        for job, result in self:
            if not isinstance(result, JobFailure):
                table.setdefault(job.benchmark_name, {})[job.scheduler] = result
        return table


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministic per-job seed from a base seed and identifying parts.

    Stable across processes and Python versions (unlike ``hash``), so a
    sweep that decorrelates seeds per (benchmark, scheduler) still produces
    reproducible results.

    Each part is length-prefixed before hashing, so the part *boundaries*
    are part of the identity: ``derive_seed(s, "a:b", "c")`` and
    ``derive_seed(s, "a", "b:c")`` draw independent seeds.  (The historic
    ``":".join`` framing collapsed them — and the ``--tenants`` grammar
    puts ``:`` inside part strings — silently correlating seed streams.)
    """
    hasher = hashlib.blake2b(digest_size=8)
    for part in (base_seed, *parts):
        blob = str(part).encode()
        hasher.update(len(blob).to_bytes(4, "big"))
        hasher.update(blob)
    return int.from_bytes(hasher.digest(), "big") % (2**31 - 1) + 1


def parse_positive_int(text: object, *, what: str) -> int:
    """Parse ``text`` as a positive integer or fail with a one-line error.

    Shared by every knob that accepts a count from the environment or a
    worker roster (``REPRO_WORKERS``, ``--workers-at`` ports, ...) so a
    typo'd value dies with a message naming the knob instead of a bare
    ``ValueError`` traceback.
    """
    try:
        value = int(str(text).strip())
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} must be a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{what} must be a positive integer, got {text!r}")
    return value


def resolve_workers(workers: Optional[int], n_jobs: int) -> int:
    """Turn a ``workers`` argument into a concrete worker count.

    ``None`` means "auto": honour ``REPRO_WORKERS`` when set, else use the
    machine's CPU count.  The result is clamped to the job count (no idle
    processes) and floored at one.  A non-numeric or non-positive
    ``REPRO_WORKERS`` is rejected with an error naming the variable.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        workers = (
            parse_positive_int(env, what="REPRO_WORKERS")
            if env
            else (os.cpu_count() or 1)
        )
    return max(1, min(int(workers), max(1, n_jobs)))


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic partition of a job list by content-addressed cache key.

    The remote runner (:mod:`repro.harness.distributed`) shards a sweep
    across worker processes; the assignment must be a pure function of the
    jobs themselves — never of roster order arrival times or wall clocks —
    so re-planning the same sweep (a resume, a re-dispatch after a lost
    worker) always reproduces the same shard membership.  Each job goes to
    shard ``int(key[:16], 16) % n_shards``; keyless jobs (no cache, no
    manifest) fall back to their submission index.

    ``shards`` holds, per shard, the tuple of *positions into the planned
    job list* (not the jobs themselves), preserving submission order inside
    every shard.
    """

    n_shards: int
    shards: tuple[tuple[int, ...], ...]

    @classmethod
    def build(
        cls, keys: Sequence[Optional[str]], n_shards: int
    ) -> "ShardPlan":
        n_shards = max(1, int(n_shards))
        members: list[list[int]] = [[] for _ in range(n_shards)]
        for position, key in enumerate(keys):
            if key:
                shard = int(key[:16], 16) % n_shards
            else:
                shard = position % n_shards
            members[shard].append(position)
        return cls(
            n_shards=n_shards,
            shards=tuple(tuple(m) for m in members),
        )

    def chunks(self, chunk_size: int) -> list[tuple[int, tuple[int, ...]]]:
        """Split every shard into ``(shard_index, positions)`` dispatch units.

        Chunking bounds how much work one HTTP round trip carries (and how
        much a lost worker forfeits); order is shard-major then submission
        order, so the chunk list is as deterministic as the plan itself.
        """
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        out: list[tuple[int, tuple[int, ...]]] = []
        for shard_index, positions in enumerate(self.shards):
            for start in range(0, len(positions), chunk_size):
                out.append((shard_index, positions[start:start + chunk_size]))
        return out


def _execute(job: AnyRequest, attempt: int = 1) -> SimulationResult:
    """Worker entry point: run one job (module-level so it pickles).

    ``attempt`` is the dispatch number of this execution, advertised to the
    fault-injection layer (:mod:`repro.harness.faults`) so a seeded chaos
    schedule advances with retries instead of replaying the same fault.
    """
    from repro.api import execute

    set_current_attempt(attempt)
    return execute(job)


def _error_type(exc: BaseException) -> str:
    """Type name a failure is reported under.

    A failure relayed from a remote worker carries the worker-side type
    name as ``error_type``; everything else reports its own class name.
    """
    return getattr(exc, "error_type", None) or type(exc).__name__


def _resolved_backends(jobs: Sequence[AnyRequest]) -> str:
    """Comma-joined resolved backend names of ``jobs`` ("" when unknown)."""
    try:
        return ",".join(sorted({job.resolved_backend() for job in jobs}))
    except KeyError:
        return ""


class _Sweep:
    """The books of one sweep, shared by every executor.

    Construction plans the sweep (backend fill, cache and manifest loading,
    keys, cache hits) and leaves :attr:`pending` to run.  A job repeating an
    earlier one (the same cache key, or an equal request in a keyless
    sweep) is planned once: it shares that job's simulation, result and
    manifest row (:attr:`repeats`), so ``stats.executed`` counts
    simulations.  Executors hand each outcome to :meth:`succeed` or
    :meth:`fail`, which settle it: result slots, cache write, one manifest
    row with the real attempt count and resolved backend, and for a failure
    :class:`SweepError` ("raise") or :class:`JobFailure` slots.
    :meth:`outcome` returns the settled sweep; :meth:`finish` also writes
    its ledger row.
    """

    def __init__(
        self, jobs: Sequence[AnyRequest], *, cache, backend: Optional[str],
        on_error: str, manifest: Union[str, Path, None], keyed: bool = False,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error mode {on_error!r} (choose from {ON_ERROR_MODES})"
            )
        self.on_error = on_error
        jobs = list(jobs)
        if backend is not None:
            jobs = [
                job
                if job.backend is not None or isinstance(job, MultiTenantRequest)
                else replace(job, backend=backend)
                for job in jobs
            ]
        self.jobs = jobs
        if isinstance(cache, str):
            if cache != AUTO_CACHE:
                raise ValueError(f"unknown cache mode {cache!r}")
            cache = ResultCache.from_env()
        self.cache: Optional[ResultCache] = cache
        self.manifest_path = Path(manifest) if manifest is not None else None
        self.manifest_skipped = 0
        if self.manifest_path is not None:
            # Touch-load for the resume contract: malformed files surface
            # here, and "done" keys whose results the cache still holds are
            # served as plain cache hits below (the manifest stores
            # statuses, the cache stores results — see
            # repro.harness.manifest).  Damaged lines are counted onto the
            # outcome so sweep summaries can warn about them.
            self.manifest_skipped = scan_manifest(self.manifest_path)[1]

        self.start = time.perf_counter()
        self.results: list = [None] * len(jobs)
        self.attempts: list[int] = [0] * len(jobs)
        self.stats = SweepStats(jobs=len(jobs), backend=_resolved_backends(jobs))
        #: Cache keys of every keyed job (the ledger row's identity).
        self.keys: list[str] = []
        #: ``(index, job, key)`` of every job left to execute, in order.
        self.pending: list[tuple[int, AnyRequest, Optional[str]]] = []
        #: Indices of the later jobs repeating each planned job's index.
        self.repeats: dict[int, list[int]] = {}
        #: Planned job indices by identity: the cache key, or for a keyless
        #: job its names (equal requests are then found by comparison).
        planned: dict[object, list[int]] = {}
        keyed = keyed or cache is not None or self.manifest_path is not None
        for index, job in enumerate(jobs):
            key = None
            if keyed:
                try:
                    key = job.cache_key()
                except Exception as exc:
                    # Same contract as execution failures: an unknown
                    # benchmark or scheduler surfaces as SweepError whether
                    # or not a cache is attached — or as a JobFailure in
                    # skip/retry mode (retrying a structurally-invalid job
                    # cannot help).
                    self.fail(index, job, None, exc)
                    continue
                self.keys.append(key)
            identity = key or (job.benchmark_name, job.scheduler)
            first = next(
                (i for i in planned.get(identity, ()) if key or jobs[i] == job),
                None,
            )
            if first is not None:
                self.repeats.setdefault(first, []).append(index)
                if self.results[first] is not None:  # a cache hit
                    self.results[index] = self.results[first]
                    self.stats.cache_hits += 1
                continue
            planned.setdefault(identity, []).append(index)
            if cache is not None:
                hit = _decode_cached_result(cache.get(key))
                if hit is not None:
                    self.results[index] = hit
                    self.stats.cache_hits += 1
                    continue
            self.pending.append((index, job, key))
        self.stats.executed = len(self.pending)

    def _slots(self, index: int) -> tuple[int, ...]:
        """``index`` and the slots of the jobs repeating it."""
        return (index, *self.repeats.get(index, ()))

    # -- settlement ----------------------------------------------------
    def record(self, job, key: Optional[str], status: str, attempts: int,
               error: str = "") -> None:
        """Append one manifest row for ``job`` (keyless jobs have none)."""
        if self.manifest_path is None or key is None:
            return
        try:
            backend = job.resolved_backend()
        except KeyError:
            backend = str(job.backend or "")
        append_outcome(self.manifest_path, ManifestEntry(
            key=key,
            status=status,
            attempts=attempts,
            benchmark=job.benchmark_name,
            scheduler=job.scheduler,
            backend=backend,
            error=error,
        ))

    def succeed(self, index: int, job, key: Optional[str],
                result: SimulationResult, attempts: int) -> None:
        """Settle a completed job: result slots, cache write, ``done`` row."""
        for slot in self._slots(index):
            self.results[slot] = result
            self.attempts[slot] = attempts
        if self.cache is not None and key is not None:
            self.cache.put(key, result.to_dict())
        self.record(job, key, "done", attempts)

    def fail(self, index: int, job, key: Optional[str], cause: BaseException,
             *, attempts: int = 1, timed_out: bool = False,
             completed: Optional[int] = None,
             outstanding: Optional[int] = None) -> None:
        """Settle a job that exhausted its attempts (``completed`` /
        ``outstanding`` describe what survived, for :class:`SweepError`)."""
        error_type = _error_type(cause)
        slots = self._slots(index)
        self.stats.failed += len(slots)
        for slot in slots:
            self.attempts[slot] = attempts
        self.record(
            job, key, "timeout" if timed_out else "failed", attempts,
            error=f"{error_type}: {cause}",
        )
        if self.on_error == "raise":
            raise SweepError(
                job, cause, completed=completed, outstanding=outstanding
            ) from cause
        for slot in slots:
            self.results[slot] = JobFailure(
                job=self.jobs[slot],
                error=str(cause),
                error_type=error_type,
                attempts=attempts,
                timed_out=timed_out,
            )

    def unsettle(self, index: int) -> None:
        """Clear a settled job's slots (its repeats' too) to run it again."""
        for slot in self._slots(index):
            if isinstance(self.results[slot], JobFailure):
                self.stats.failed -= 1
            self.results[slot] = None

    def outcome(self) -> SweepOutcome:
        """Stamp the wall time and return the settled sweep."""
        self.stats.wall_seconds = time.perf_counter() - self.start
        return SweepOutcome(
            jobs=self.jobs,
            results=self.results,
            stats=self.stats,
            attempts=self.attempts,
            manifest_skipped=self.manifest_skipped,
        )

    def finish(self, ledger_rows: Sequence[dict] = ()) -> SweepOutcome:
        """:meth:`outcome`, plus the sweep's ledger row merged with
        ``ledger_rows`` (a remote sweep's worker rows), duplicates dropped."""
        outcome = self.outcome()
        try:
            record_sweep(self.stats, keys=self.keys or None)
            for row in merge_ledger_entries([ledger_rows]):
                append_entry(row)
        except Exception:
            pass  # the ledger is best-effort; never fail a sweep over it
        return outcome


def _run_inprocess(books: _Sweep, policy: RetryPolicy, attempts_allowed: int) -> None:
    """The in-process (workers == 1) executor: one attempt loop per job.

    ``repro serve``'s misses run here too (:func:`repro.api.run_batch`).
    Timeouts and straggler duplicates need a pool — a job running in this
    very process cannot be interrupted — so only the retry/backoff half of
    the policy applies here (documented in docs/RESILIENCE.md).
    """
    for index, job, key in books.pending:
        attempt = 1
        while True:
            try:
                result = _execute(job, attempt)
            except Exception as exc:
                if attempt < attempts_allowed:
                    books.stats.retried += 1
                    time.sleep(
                        policy.backoff_seconds(key or f"index:{index}", attempt)
                    )
                    attempt += 1
                    continue
                books.fail(index, job, key, exc, attempts=attempt)
            else:
                books.succeed(index, job, key, result, attempt)
            break


def _pool_context():
    """Prefer fork (cheap, inherits ``sys.path``) where available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _force_shutdown(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting for hung or abandoned workers.

    ``shutdown(wait=True)`` would block on a dispatch we already abandoned
    (a timed-out or hanging job); instead cancel what never started and
    terminate the worker processes so no orphans outlive the sweep.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
        except Exception:
            pass


class _PendingJob:
    """Book-keeping of one not-yet-settled job on the pool path."""

    __slots__ = (
        "index", "job", "key", "fail_count", "dispatches", "inflight",
        "not_before", "running_since", "settled", "timed_out",
    )

    def __init__(self, index: int, job: AnyRequest, key: Optional[str]) -> None:
        self.index = index
        self.job = job
        self.key = key
        self.fail_count = 0      # job-level failures consumed
        self.dispatches = 0      # total executions started (fault dimension)
        self.inflight: set = set()
        self.not_before: Optional[float] = None  # backoff gate (monotonic)
        #: When the current attempt actually started *executing* (a future
        #: can sit queued behind abandoned hung workers; deadlines must not
        #: run while it waits).  ``None`` until a dispatch reports running.
        self.running_since: Optional[float] = None
        self.settled = False
        self.timed_out = False

    def backoff_key(self) -> str:
        return self.key or f"index:{self.index}"


class _PoolRunner:
    """The fault-tolerant process-pool executor of :func:`run_jobs`."""

    #: Poll granularity while deadlines (timeouts, backoff, stragglers) are
    #: armed; without any, the loop blocks until a future completes.
    TICK = 0.05

    def __init__(self, books: _Sweep, policy: RetryPolicy, attempts_allowed: int) -> None:
        self.books = books
        self.states = [_PendingJob(i, job, key) for i, job, key in books.pending]
        self.stats = books.stats
        self.policy = policy
        self.attempts_allowed = attempts_allowed
        #: Crash re-dispatch is infrastructure recovery, not a job retry,
        #: but still bounded so a deterministic crasher cannot loop forever.
        self.max_dispatches = max(attempts_allowed, 3)
        self.ready: deque[_PendingJob] = deque(self.states)
        self.waiting: list[_PendingJob] = []
        self.future_map: dict = {}
        self.abandoned: set = set()
        self.unsettled = len(self.states)
        self.pool: Optional[ProcessPoolExecutor] = None

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, state: _PendingJob, *, duplicate: bool = False) -> None:
        state.dispatches += 1
        future = self.pool.submit(_execute, state.job, state.dispatches)
        self.future_map[future] = state
        state.inflight.add(future)
        state.not_before = None
        if not duplicate:
            state.running_since = None

    def _busy_workers(self) -> int:
        """Worker slots in use: live dispatches + abandoned-but-running."""
        self.abandoned = {f for f in self.abandoned if not f.done()}
        return len(self.future_map) + len(self.abandoned)

    def _observe_running(self, now: float) -> None:
        """Start each attempt's deadline clock when it actually executes."""
        for state in self.states:
            if state.settled or state.running_since is not None:
                continue
            if any(f.running() or f.done() for f in state.inflight):
                state.running_since = now

    # -- settlement ----------------------------------------------------
    def _abandon_inflight(self, state: _PendingJob) -> None:
        for future in state.inflight:
            self.future_map.pop(future, None)
            if not future.cancel():
                self.abandoned.add(future)
        state.inflight.clear()

    def _settle(self, state: _PendingJob, result=None, exc=None) -> None:
        """Hand ``state``'s final outcome to the books; first result wins."""
        state.settled = True
        self.unsettled -= 1
        self._abandon_inflight(state)  # drop any duplicate dispatch
        attempts = max(1, state.dispatches)
        if exc is None:
            self.books.succeed(state.index, state.job, state.key, result, attempts)
            return
        if self.books.on_error == "raise" and self.pool is not None:
            _force_shutdown(self.pool)
        self.books.fail(
            state.index, state.job, state.key, exc,
            attempts=attempts,
            timed_out=state.timed_out,
            completed=len(self.states) - self.unsettled - 1,
            outstanding=self.unsettled,
        )

    def _fail_attempt(
        self, state: _PendingJob, exc: BaseException, *, timed_out: bool = False
    ) -> None:
        state.timed_out = state.timed_out or timed_out
        state.fail_count += 1
        if state.inflight:
            # A duplicate dispatch of the same job is still running and may
            # yet win; hold judgement until the last dispatch settles.
            return
        if (
            state.fail_count < self.attempts_allowed
            and state.dispatches < self.max_dispatches
        ):
            self.stats.retried += 1
            delay = self.policy.backoff_seconds(state.backoff_key(), state.fail_count)
            state.not_before = time.monotonic() + delay
            self.waiting.append(state)
            return
        self._settle(state, exc=exc)

    # -- pool-break recovery -------------------------------------------
    def _handle_pool_break(
        self, broken_states: list, exc: BaseException
    ) -> None:
        lost = sorted(
            {
                s.index: s
                for s in (*self.future_map.values(), *broken_states)
                if not s.settled
            }.values(),
            key=lambda s: s.index,
        )
        self.future_map.clear()
        for state in lost:
            state.inflight.clear()
        broken_pool, self.pool = self.pool, None
        broken_pool.shutdown(wait=False, cancel_futures=True)
        if self.books.on_error == "raise":
            # Every broken state is unsettled, so ``lost`` names at least one.
            self._settle(lost[0], exc=RuntimeError(
                f"a worker process crashed while running this job "
                f"({type(exc).__name__}: {exc})"
            ))
        # Respawn and re-dispatch only the lost jobs.  A crash consumes no
        # retry attempt (the job itself did not fail) but every re-dispatch
        # counts against max_dispatches, bounding crash loops.
        self.pool = ProcessPoolExecutor(
            max_workers=self.stats.workers, mp_context=_pool_context()
        )
        for state in lost:
            if state.dispatches >= self.max_dispatches:
                self._settle(state, exc=RuntimeError(
                    f"worker crashed on every dispatch "
                    f"({state.dispatches} of them): {exc}"
                ))
            else:
                self.stats.retried += 1
                self.ready.append(state)

    # -- deadline sweeps -----------------------------------------------
    def _check_timeouts(self, now: float) -> None:
        if self.policy.timeout_seconds is None:
            return
        for state in self.states:
            if state.settled or not state.inflight:
                continue
            if state.running_since is None:
                continue  # still queued; the deadline clock has not started
            if now - state.running_since <= self.policy.timeout_seconds:
                continue
            self.stats.timed_out += 1
            self._abandon_inflight(state)
            self._fail_attempt(
                state,
                TimeoutError(
                    f"job exceeded its {self.policy.timeout_seconds}s deadline"
                ),
                timed_out=True,
            )

    def _check_stragglers(self, now: float) -> None:
        if self.policy.straggler_seconds is None:
            return
        for state in self.states:
            if state.settled or len(state.inflight) != 1:
                continue
            if state.running_since is None:
                continue  # queued, not slow
            if now - state.running_since <= self.policy.straggler_seconds:
                continue
            if self._busy_workers() >= self.stats.workers:
                return  # no idle worker to duplicate onto
            if state.dispatches >= self.max_dispatches:
                continue
            self.stats.retried += 1
            self._dispatch(state, duplicate=True)

    # -- the loop ------------------------------------------------------
    def run(self) -> None:
        self.pool = ProcessPoolExecutor(
            max_workers=self.stats.workers, mp_context=_pool_context()
        )
        try:
            while self.unsettled:
                now = time.monotonic()
                for state in list(self.waiting):
                    if state.not_before is None or now >= state.not_before:
                        self.waiting.remove(state)
                        self.ready.append(state)
                while self.ready and self._busy_workers() < self.stats.workers:
                    self._dispatch(self.ready.popleft())
                self._observe_running(now)
                self._check_stragglers(now)

                if not self.future_map:
                    if not self.waiting and not self.ready:
                        # Engine invariant: every unsettled job is either
                        # dispatched, ready or backing off.  Failing loud
                        # beats silently returning None result slots.
                        raise RuntimeError(
                            f"sweep engine lost track of {self.unsettled} "
                            "unsettled job(s)"
                        )
                    if self.ready and self._busy_workers() >= self.stats.workers:
                        # Every worker is stuck on an abandoned (timed-out)
                        # call and no live dispatch exists: recycle the
                        # pool so pending work is not hostage to hung jobs.
                        stuck, self.pool = self.pool, ProcessPoolExecutor(
                            max_workers=self.stats.workers,
                            mp_context=_pool_context(),
                        )
                        _force_shutdown(stuck)
                        self.abandoned.clear()
                        continue
                    time.sleep(self.TICK)
                    continue
                ticking = (
                    self.policy.timeout_seconds is not None
                    or self.policy.straggler_seconds is not None
                    or bool(self.waiting)
                    or bool(self.ready)
                )
                done, _ = wait(
                    set(self.future_map),
                    timeout=self.TICK if ticking else None,
                    return_when=FIRST_COMPLETED,
                )
                broken_exc: Optional[BaseException] = None
                broken_states: list[_PendingJob] = []
                for future in done:
                    state = self.future_map.pop(future, None)
                    if state is None:
                        continue
                    state.inflight.discard(future)
                    if state.settled:
                        continue
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        # A worker crash fails every in-flight future at
                        # once; collect them all before recovering.
                        broken_exc = exc
                        broken_states.append(state)
                        continue
                    if exc is None:
                        self._settle(state, future.result())
                    else:
                        self._fail_attempt(state, exc)
                if broken_exc is not None:
                    self._handle_pool_break(broken_states, broken_exc)
                    continue
                self._check_timeouts(time.monotonic())
        finally:
            if self.pool is not None:
                if any(not f.done() for f in self.abandoned):
                    _force_shutdown(self.pool)
                else:
                    self.pool.shutdown(wait=True)


def run_jobs(
    jobs: Sequence[AnyRequest],
    *,
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = AUTO_CACHE,
    backend: Optional[str] = None,
    on_error: str = "raise",
    retry: Optional[RetryPolicy] = None,
    manifest: Union[str, Path, None] = None,
) -> SweepOutcome:
    """Execute ``jobs`` and return results in submission order.

    Jobs are :class:`SimulationRequest` values, :class:`MultiTenantRequest`
    values (co-located tenants, lock-step only), or a mix of both.
    ``cache`` is :data:`AUTO_CACHE` (environment default), ``None`` (caching
    off for this sweep), or an explicit :class:`ResultCache`.  Cache lookups
    and writes happen in the parent process; workers only ever simulate.
    ``backend`` selects the engine for jobs that did not pin one themselves
    (multi-tenant jobs with no pinned backend keep their ``lockstep``
    default — the serialized engine cannot run them).

    ``on_error`` picks the failure mode (:data:`ON_ERROR_MODES`):
    ``"raise"`` aborts on the first failure (historic behavior, the
    default), ``"skip"`` records a :class:`JobFailure` in the failed job's
    result slot and continues, ``"retry"`` re-dispatches failures under
    ``retry`` (a :class:`RetryPolicy`; a default-constructed one applies
    when omitted).  The policy's ``timeout_seconds`` / ``straggler_seconds``
    deadlines apply on the pool path in every mode.

    ``manifest`` names an append-only checkpoint file
    (:mod:`repro.harness.manifest`): per-job outcomes are appended as they
    settle, and — together with the content-addressed result cache — a
    re-run of the same sweep skips everything already completed and
    re-executes only failures, timeouts and never-ran jobs.
    """
    books = _Sweep(
        jobs, cache=cache, backend=backend, on_error=on_error, manifest=manifest
    )
    policy = retry if retry is not None else RetryPolicy()
    attempts_allowed = policy.max_attempts if on_error == "retry" else 1
    books.stats.workers = resolve_workers(workers, len(books.pending))
    if books.stats.workers <= 1:
        _run_inprocess(books, policy, attempts_allowed)
    elif books.pending:
        _PoolRunner(books, policy, attempts_allowed).run()
    return books.finish()
