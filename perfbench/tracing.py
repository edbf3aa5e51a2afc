"""Span recorder the benchmark wraps around the program's public functions.

Nothing under ``src/`` knows about it: :func:`install` replaces each listed
function or method with a wrapper that records one span per call and puts
the original back nowhere (a traced process is thrown away afterwards).
A span is ``(name, start_ns, end_ns, span_id, parent_id, thread_id)``; the
parent is the innermost open span of the same thread or asyncio task
(a ``ContextVar``), so concurrent ``ReproService.submit`` calls on one event
loop nest correctly.  Spans stay in memory until :meth:`Tracer.summary`.

Clocks are ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC``: spans of the remote worker process share the
coordinator's time base.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

#: ``(span name, module, attribute path)`` of every wrapped call site, in
#: layer order.  A dotted attribute path names a method on a class.
TRACED = (
    ("experiments.fig8_main_comparison", "repro.harness.experiments", "fig8_main_comparison"),
    ("distributed.run_distributed", "repro.harness.distributed", "run_distributed"),
    ("WorkerClient.run_batch", "repro.harness.distributed", "WorkerClient.run_batch"),
    ("WorkerServer._handle_batch", "repro.harness.distributed", "WorkerServer._handle_batch"),
    ("parallel.run_jobs", "repro.harness.parallel", "run_jobs"),
    ("ReproService.submit", "repro.serve.server", "ReproService.submit"),
    ("api.run_batch", "repro.api", "run_batch"),
    ("api.execute", "repro.api", "execute"),
    ("SimulationRequest.cache_key", "repro.api", "SimulationRequest.cache_key"),
    ("MultiTenantRequest.cache_key", "repro.api", "MultiTenantRequest.cache_key"),
    ("backends.materialize_model", "repro.backends", "materialize_model"),
    ("backends.materialize_tenants", "repro.backends", "materialize_tenants"),
    ("vector.trace.kernel_trace_for_model", "repro.gpu.vector.trace", "kernel_trace_for_model"),
    ("KernelTrace.__init__", "repro.gpu.vector.trace", "KernelTrace.__init__"),
    ("KernelTrace.warp", "repro.gpu.vector.trace", "KernelTrace.warp"),
    ("WarpTrace.__init__", "repro.gpu.vector.trace", "WarpTrace.__init__"),
    ("VectorGPU.run", "repro.gpu.vector.engine", "VectorGPU.run"),
    ("lockstep.run_multi_tenant", "repro.gpu.lockstep", "run_multi_tenant"),
    ("SimulationResult.to_dict", "repro.gpu.gpu", "SimulationResult.to_dict"),
    ("SimulationResult.from_dict", "repro.gpu.gpu", "SimulationResult.from_dict"),
    ("integrity.result_digest", "repro.harness.integrity", "result_digest"),
    ("ResultCache.peek", "repro.harness.cache", "ResultCache.peek"),
    ("ResultCache.get", "repro.harness.cache", "ResultCache.get"),
    ("ResultCache.put", "repro.harness.cache", "ResultCache.put"),
)


class Tracer:
    """In-memory span store plus byte and timestamp counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Named byte totals (wire sizes measured at the same boundaries).
        self.bytes: dict[str, int] = defaultdict(int)
        #: ``job_id -> time.time()`` when a served job left the queue.
        self.dispatched: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's own)."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with _Span(tracer, name):
                    return await fn(*args, **kwargs)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, name):
                return fn(*args, **kwargs)

        return traced

    # -- summarising -----------------------------------------------------
    def summary(self) -> dict:
        """Per-name ``count`` / ``total_ns`` / ``self_ns`` plus the byte counts.

        A span's self time is its duration minus the part of it that its
        child spans cover (children of one parent may overlap when they run
        on other tasks, so the covered part is an interval union).
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _name, start, end, _sid, parent, _tid in self.spans:
            if parent:
                children[parent].append((start, end))
        per_name: dict[str, dict] = {}
        for name, start, end, sid, _parent, _tid in self.spans:
            covered = union_length(children.get(sid, ()), start, end)
            slot = per_name.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            slot["count"] += 1
            slot["total_ns"] += end - start
            slot["self_ns"] += end - start - covered
        return {"spans": per_name, "bytes": dict(self.bytes)}


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "token", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        current = self.tracer._current
        self.parent = current.get()
        self.span_id = next(self.tracer._ids)
        self.token = current.set(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._current.reset(self.token)
        self.tracer.spans.append((
            self.name, self.start, end, self.span_id, self.parent,
            threading.get_ident(),
        ))
        return False


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every call site in :data:`TRACED` (imports the modules first)."""
    modules = {module for _name, module, _attr in TRACED}
    for module in sorted(modules):
        importlib.import_module(module)
    for name, module_name, attr in TRACED:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, method, tracer.wrap(name, raw))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.wrap(name, original))
    _install_wire_counters(tracer)


def _install_wire_counters(tracer: Tracer) -> None:
    """Byte counts of the worker's ``/batch`` bodies and the served jobs'
    dispatch times (for queue wait), taken at the same boundaries."""
    from repro.api import JobRecord, JobState
    from repro.harness import distributed

    handle_batch = distributed.WorkerServer._handle_batch

    async def counted_handle_batch(self, http_request, writer):
        tracer.bytes["batch_request"] += len(http_request.body)
        return await handle_batch(self, http_request, writer)

    distributed.WorkerServer._handle_batch = counted_handle_batch

    respond = distributed.respond

    async def counted_respond(writer, status, payload, **kwargs):
        if isinstance(payload, bytes):
            tracer.bytes["batch_response"] += len(payload)
        return await respond(writer, status, payload, **kwargs)

    distributed.respond = counted_respond

    advance = JobRecord.advance

    def timed_advance(self, state, **kwargs):
        if state is JobState.RUNNING:
            tracer.dispatched[self.job_id] = time.time()
        return advance(self, state, **kwargs)

    JobRecord.advance = timed_advance
