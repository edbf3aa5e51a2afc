"""The ``vector`` backend: trace-interned, batch-issuing execution engine.

Requests are materialised exactly like the reference backend (same kernel
model, same scheduler factory, same machine construction), but execution
runs on :class:`~repro.gpu.vector.engine.VectorGPU`: the kernel's
instruction streams are extracted once into compact traces
(:func:`~repro.gpu.vector.trace.kernel_trace_for_model`) and replayed by
:class:`~repro.gpu.vector.engine.VectorSM`.

The trace intern cache is process-wide, so requests over the same kernel —
a sweep's scheduler column, a served batch, repeated bench runs — pay
extraction once.  The ``lockstep`` backend builds its machine here too
(:func:`vector_machine`) and drives the same SMs in lock step.
"""

from __future__ import annotations

from repro.gpu.gpu import SimulationResult
from repro.gpu.vector.engine import VectorGPU
from repro.gpu.vector.trace import kernel_trace_for_model


def vector_machine(request):
    """Build the concrete (scheduler name, kernel, VectorGPU, run config).

    The trace-replaying twin of :func:`repro.backends.materialize`: the same
    kernel model, scheduler factory and machine configuration, with every SM
    replaying the kernel's interned trace.
    """
    from repro.backends import materialize_model
    from repro.sched.registry import scheduler_factory, uses_shared_cache

    request, scheduler, model, kernel, config = materialize_model(request)
    trace = kernel_trace_for_model(model, kernel)
    gpu = VectorGPU(
        config.gpu_config,
        scheduler_factory=scheduler_factory(scheduler, **request.scheduler_kwargs()),
        enable_shared_cache=uses_shared_cache(scheduler),
        dram_bandwidth_scale=config.dram_bandwidth_scale,
        sm_traces=dict.fromkeys(range(config.gpu_config.num_sms), trace),
    )
    return scheduler, kernel, gpu, config


class VectorBackend:
    """Trace-replaying, batch-issuing warp engine behind the backend protocol."""

    name = "vector"

    def execute(self, request) -> SimulationResult:
        from repro.api import MultiTenantRequest

        if isinstance(request, MultiTenantRequest):
            raise ValueError(
                "the 'vector' backend replays single-kernel traces and "
                "cannot co-locate tenants; run multi-tenant requests on the "
                "'lockstep' backend"
            )
        scheduler, kernel, gpu, config = vector_machine(request)
        return gpu.run(kernel, max_cycles=config.max_cycles, scheduler_name=scheduler)
