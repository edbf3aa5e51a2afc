"""``repro.gpu.vector`` — the trace-replaying, batch-issuing execution engine.

This package implements the ``vector`` backend (see
:mod:`repro.gpu.vector.backend`) and the SMs of the ``lockstep`` backend: an
execution engine that is bit-identical to ``reference`` but replaces the
hottest per-warp/per-cycle bookkeeping with tables precomputed once per
kernel, in pure stdlib Python:

* :mod:`repro.gpu.vector.trace` — workload instruction streams are
  *packed once* per kernel identity, straight from the workload's ops,
  into flat ``bytes``/``array`` tables (instruction kinds, latency-1 ALU
  run ends, pre-coalesced blocks of every global access back to back,
  scratchpad lane offsets, and per-geometry set indices), then interned
  so every request for the same kernel — a co-located tenant's included —
  replays the same tables.
* :mod:`repro.gpu.vector.engine` — :class:`VectorSM` drives the same warp
  list, schedulers, caches and memory subsystem as the reference SM, but
  replays the trace, runs the global-memory path against the pre-coalesced,
  pre-hashed transactions and skips selection while the greedy warp can
  issue.  Its batched loop issues uninterrupted single-warp instruction
  runs in one step (exact under the schedulers' declared
  ``vector_sticky_select`` capability) and fast-forwards stall stretches
  with one min-reduction over the warp timers.  Driven serially it runs
  that loop to the end; driven by the lock-step loop
  (:mod:`repro.gpu.lockstep`) it runs it while it is the only SM awake,
  steps one cycle at a time otherwise, and sleeps through the cycles in
  which it provably cannot act.
"""

from repro.gpu.vector.backend import VectorBackend
from repro.gpu.vector.engine import VectorGPU, VectorSM
from repro.gpu.vector.trace import KernelTrace, WarpTrace, kernel_trace_for_model

__all__ = [
    "VectorBackend",
    "VectorGPU",
    "VectorSM",
    "KernelTrace",
    "WarpTrace",
    "kernel_trace_for_model",
]
